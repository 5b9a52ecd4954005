package checkpoint

import (
	"bytes"
	"encoding/json"
	"math"
	"strconv"
	"unicode/utf8"
)

// decodeRecord decodes a journal record body into rec. A body in the
// exact form appendRecord writes — every record this package writes —
// is parsed by hand, field by field in appendRecord's order. Anything
// else (whitespace, another field order, a field a newer writer added)
// falls back to encoding/json, so the result always equals
// json.Unmarshal's, and so does the error.
func decodeRecord(body []byte, rec *Record) error {
	*rec = Record{}
	if parseRecord(body, rec) {
		return nil
	}
	*rec = Record{}
	return json.Unmarshal(body, rec)
}

// parseRecord is decodeRecord's hand-written parser. It reports false,
// leaving rec partly filled, for any body that is not in appendRecord's
// form or that json.Unmarshal would decode differently or reject.
func parseRecord(body []byte, rec *Record) bool {
	p := parser{b: body}
	var ok bool
	if !p.lit(`{"iter":`) {
		return false
	}
	if rec.Iter, ok = p.int(); !ok || !p.lit(`,"algo":`) {
		return false
	}
	if rec.Algo, ok = p.str(); !ok || !p.lit(`,"config":`) {
		return false
	}
	if rec.Config, ok = p.floats(); !ok || !p.lit(`,"value":`) {
		return false
	}
	if rec.Value, ok = p.float(); !ok {
		return false
	}
	if p.lit(`,"fail":`) {
		if rec.FailKind, ok = p.str(); !ok {
			return false
		}
	}
	if p.lit(`,"trial":`) {
		if rec.Trial, ok = p.uint(); !ok {
			return false
		}
	}
	rec.Spec = p.lit(`,"spec":true`)
	rec.Pinned = p.lit(`,"pinned":true`)
	if p.lit(`,"drift":`) {
		if rec.Drift, ok = p.str(); !ok {
			return false
		}
	}
	if p.lit(`,"dseq":`) {
		if rec.DriftSeq, ok = p.uint(); !ok {
			return false
		}
	}
	if p.lit(`,"darm":`) {
		if rec.DriftArm, ok = p.int(); !ok {
			return false
		}
	}
	if p.lit(`,"dkeep":`) {
		if rec.DriftKeep, ok = p.float(); !ok {
			return false
		}
	}
	if p.lit(`,"dprobes":`) {
		if rec.DriftProbes, ok = p.int(); !ok {
			return false
		}
	}
	rec.DriftP1 = p.lit(`,"dp1":true`)
	return p.lit("}") && p.i == len(p.b)
}

// recordIter returns a record body's iteration and whether it is a
// drift sentinel, without decoding the rest of it when the body is in
// appendRecord's form: "iter" leads the body, and a non-empty "drift"
// is the only way `drift":` can appear, since a quote inside a string
// is escaped. The search starts at the rare byte 'd', not a comma.
func recordIter(body []byte) (iter int, drift, ok bool) {
	p := parser{b: body}
	if p.lit(`{"iter":`) {
		if iter, ok = p.int(); ok && p.i < len(p.b) && p.b[p.i] == ',' {
			return iter, bytes.Contains(body, []byte(`drift":`)), true
		}
	}
	var rec Record
	if decodeRecord(body, &rec) != nil {
		return 0, false, false
	}
	return rec.Iter, rec.Drift != "", true
}

// parser reads the JSON that appendRecord and appendSnapshotLine write,
// from b at i.
type parser struct {
	b []byte
	i int
}

// lit consumes s when the input continues with it.
func (p *parser) lit(s string) bool {
	if len(p.b)-p.i < len(s) || string(p.b[p.i:p.i+len(s)]) != s {
		return false
	}
	p.i += len(s)
	return true
}

// run consumes decimal digits and returns how many.
func (p *parser) run() int {
	start := p.i
	for p.i < len(p.b) && p.b[p.i] >= '0' && p.b[p.i] <= '9' {
		p.i++
	}
	return p.i - start
}

// digits consumes a JSON integer's digits: 0, or a nonzero digit and
// any more.
func (p *parser) digits() bool {
	start := p.i
	n := p.run()
	return n > 0 && (p.b[start] != '0' || n == 1)
}

// uint consumes a JSON integer that fits a uint64.
func (p *parser) uint() (uint64, bool) {
	start := p.i
	if !p.digits() {
		return 0, false
	}
	var n uint64
	for _, c := range p.b[start:p.i] {
		d := uint64(c - '0')
		if n > (math.MaxUint64-d)/10 {
			return 0, false
		}
		n = n*10 + d
	}
	return n, true
}

// int consumes a JSON integer that fits an int.
func (p *parser) int() (int, bool) {
	neg := p.lit("-")
	u, ok := p.uint()
	switch {
	case !ok:
		return 0, false
	case neg && u <= -math.MinInt:
		return int(-u), true
	case !neg && u <= math.MaxInt:
		return int(u), true
	}
	return 0, false
}

// float consumes an F: a JSON number, or one of the strings AppendF
// writes for non-finite values.
func (p *parser) float() (F, bool) {
	switch {
	case p.lit(`"NaN"`):
		return F(math.NaN()), true
	case p.lit(`"+Inf"`):
		return F(math.Inf(1)), true
	case p.lit(`"-Inf"`):
		return F(math.Inf(-1)), true
	}
	start := p.i
	p.lit("-")
	if !p.digits() {
		return 0, false
	}
	if p.lit(".") && p.run() == 0 {
		return 0, false
	}
	if p.lit("e") || p.lit("E") {
		if !p.lit("+") {
			p.lit("-")
		}
		if p.run() == 0 {
			return 0, false
		}
	}
	v, err := strconv.ParseFloat(string(p.b[start:p.i]), 64)
	return F(v), err == nil
}

// floats consumes a []F: null, or an array of floats.
func (p *parser) floats() ([]F, bool) {
	if p.lit("null") {
		return nil, true
	}
	if !p.lit("[") {
		return nil, false
	}
	if p.lit("]") {
		return []F{}, true
	}
	n := 1 // elements, if the array is well formed: one more than its commas
	for _, c := range p.b[p.i:] {
		if c == ']' {
			break
		}
		if c == ',' {
			n++
		}
	}
	xs := make([]F, 0, n)
	for {
		x, ok := p.float()
		if !ok {
			return nil, false
		}
		xs = append(xs, x)
		if p.lit("]") {
			return xs, true
		}
		if !p.lit(",") {
			return nil, false
		}
	}
}

// str consumes a JSON string. Plain strings — no escapes, valid UTF-8 —
// are copied as they are; any other string is handed to encoding/json,
// which unescapes it and replaces invalid UTF-8 exactly as it would in a
// whole record.
func (p *parser) str() (string, bool) {
	if !p.lit(`"`) {
		return "", false
	}
	start, plain := p.i, true
	for ; p.i < len(p.b); p.i++ {
		switch c := p.b[p.i]; {
		case c == '"':
			s := p.b[start:p.i]
			p.i++
			if plain && utf8.Valid(s) {
				return string(s), true
			}
			var out string
			if json.Unmarshal(p.b[start-1:p.i], &out) != nil {
				return "", false
			}
			return out, true
		case c == '\\':
			plain = false
			p.i++ // the escaped byte cannot end the string
		case c < ' ':
			return "", false
		}
	}
	return "", false
}
