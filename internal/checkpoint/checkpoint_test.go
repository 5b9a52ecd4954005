package checkpoint

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func TestFNonFiniteRoundTrip(t *testing.T) {
	for _, v := range []float64{0, 1.5, -2.25, math.Inf(1), math.Inf(-1), math.NaN(), math.MaxFloat64} {
		data, err := F(v).MarshalJSON()
		if err != nil {
			t.Fatalf("marshal %v: %v", v, err)
		}
		var got F
		if err := got.UnmarshalJSON(data); err != nil {
			t.Fatalf("unmarshal %s: %v", data, err)
		}
		if math.IsNaN(v) {
			if !math.IsNaN(float64(got)) {
				t.Errorf("NaN round-tripped to %v", got)
			}
		} else if float64(got) != v {
			t.Errorf("%v round-tripped to %v", v, got)
		}
	}
	var f F
	if err := f.UnmarshalJSON([]byte(`"pancake"`)); err == nil {
		t.Error("unmarshal of an unknown string succeeded")
	}
}

func TestFloatsNilPreserved(t *testing.T) {
	if Floats(nil) != nil || Unfloats(nil) != nil {
		t.Error("nil slices should stay nil through conversion")
	}
	in := []float64{1, math.Inf(1)}
	out := Unfloats(Floats(in))
	if !reflect.DeepEqual(in, out) {
		t.Errorf("round trip changed %v to %v", in, out)
	}
}

func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.json")
	if err := WriteFileAtomic(path, []byte("first"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := WriteFileAtomic(path, []byte("second"), 0o644); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "second" {
		t.Errorf("read back %q", data)
	}
	// No temp files may be left behind.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Errorf("directory holds %d entries, want just the target", len(entries))
	}
}

// decodeSnapshotLine classifies one framed snapshot line, as the
// segment reader does.
func decodeSnapshotLine(framed []byte) line {
	return classify(1, 0, bytes.TrimSuffix(framed, []byte("\n")))
}

// TestSnapshotEncodeDecode: a snapshot line carries its iteration,
// highest trial ID and payload through the segment reader unchanged.
func TestSnapshotEncodeDecode(t *testing.T) {
	payload := []byte(`{"hello":"world","n":3}`)
	l := decodeSnapshotLine(appendSnapshotLine(nil, 7, 42, payload))
	if l.kind != lineSnapshot || l.iter != 7 || l.trial != 42 || string(l.state) != string(payload) {
		t.Fatalf("decoded kind %d, iter %d, trial %d, payload %s", l.kind, l.iter, l.trial, l.state)
	}
}

// TestSnapshotRoundTripsAnyJSON: whatever one-line JSON payload goes
// into a snapshot line comes back out byte for byte — whitespace and
// characters json.Marshal would HTML-escape included.
func TestSnapshotRoundTripsAnyJSON(t *testing.T) {
	for _, payload := range []string{`{"a": 1}`, `{"s":"<b>&amp;</b>"}`, "[1,\t2]", `"\u2028"`} {
		l := decodeSnapshotLine(appendSnapshotLine(nil, 0, 0, []byte(payload)))
		if l.kind != lineSnapshot || string(l.state) != payload {
			t.Errorf("%q round-tripped to kind %d, %q", payload, l.kind, l.state)
		}
	}
}

// TestSnapshotFrameMatchesJSON: for a json.Marshal payload a snapshot
// line's body is byte-identical to json.Marshal of its fields, so any
// JSON reader can parse the segment's snapshot lines.
func TestSnapshotFrameMatchesJSON(t *testing.T) {
	payload, err := json.Marshal(map[string]any{"best": F(math.Inf(1)), "name": "<a&b>", "v": []F{0.5, 1e-9}})
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(struct {
		Version int             `json:"version"`
		Iter    int             `json:"iter"`
		Trial   uint64          `json:"trial"`
		State   json.RawMessage `json:"state"`
	}{Version, 12, 99, payload})
	if err != nil {
		t.Fatal(err)
	}
	if got := decodeSnapshotLine(appendSnapshotLine(nil, 12, 99, payload)).body; !bytes.Equal(got, want) {
		t.Fatalf("snapshot line body\n%s\nwant\n%s", got, want)
	}
}

// TestSnapshotDecodeRejectsDamage: a snapshot line cut short anywhere,
// or with any byte flipped, never reads as a snapshot of other contents,
// and a checksummed line of a future version is not a snapshot at all.
func TestSnapshotDecodeRejectsDamage(t *testing.T) {
	payload := []byte(`{"counts":[1,2,3],"value":0.5}`)
	framed := bytes.TrimSuffix(appendSnapshotLine(nil, 5, 9, payload), []byte("\n"))
	for cut := 0; cut < len(framed); cut++ {
		if l := classify(1, 0, framed[:cut]); l.kind == lineSnapshot {
			t.Fatalf("a snapshot line cut to %d bytes reads as a snapshot", cut)
		}
	}
	for i := range framed {
		mut := bytes.Clone(framed)
		mut[i] ^= 0x01
		if l := classify(1, 0, mut); l.kind == lineSnapshot && (l.iter != 5 || l.trial != 9 || string(l.state) != string(payload)) {
			t.Fatalf("flip at byte %d yields snapshot iter %d, trial %d, payload %s", i, l.iter, l.trial, l.state)
		}
	}
	body := fmt.Appendf(nil, `{"version":%d,"iter":5,"trial":9,"state":{}}`, Version+1)
	future := fmt.Appendf(nil, "%08x %s", crc32.ChecksumIEEE(body), body)
	if l := classify(1, 0, future); l.kind == lineSnapshot {
		t.Error("a future-version snapshot line reads as a snapshot")
	}
}

func TestJournalAppendRead(t *testing.T) {
	dir := t.TempDir()
	j, err := OpenJournal(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := []Record{
		{Iter: 0, Algo: "a", Config: []F{1, 2}, Value: 3.5},
		{Iter: 1, Algo: "b", Value: F(math.Inf(1)), FailKind: "timeout"},
		{Iter: 2, Algo: "a", Config: []F{F(math.NaN()), 0}, Value: 4},
	}
	for _, r := range want {
		if err := j.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJournal(SegPath(dir, 0))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("read %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Iter != want[i].Iter || got[i].Algo != want[i].Algo || got[i].FailKind != want[i].FailKind {
			t.Errorf("record %d: got %+v want %+v", i, got[i], want[i])
		}
	}
	if !math.IsNaN(float64(got[2].Config[0])) {
		t.Errorf("NaN config value read back as %v", got[2].Config[0])
	}
}

func TestJournalReadStopsAtDamage(t *testing.T) {
	dir := t.TempDir()
	path := SegPath(dir, 0)
	j, err := OpenJournal(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := j.Append(Record{Iter: i, Algo: "a", Value: F(i)}); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()

	cases := []struct {
		name   string
		mangle func(data []byte) []byte
		want   int
	}{
		{"torn final line", func(d []byte) []byte { return d[:len(d)-7] }, 2},
		{"flipped byte in last body", func(d []byte) []byte {
			d = append([]byte(nil), d...)
			d[len(d)-3] ^= 0x01
			return d
		}, 2},
		{"empty line between records", func(d []byte) []byte {
			lines := strings.SplitAfter(string(d), "\n")
			return []byte(lines[0] + "\n" + strings.Join(lines[1:], ""))
		}, 3},
		{"garbage after records", func(d []byte) []byte { return append(d, []byte("not a journal line\n")...) }, 3},
	}
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if err := os.WriteFile(path, c.mangle(orig), 0o644); err != nil {
				t.Fatal(err)
			}
			recs, err := ReadJournal(path)
			if err != nil {
				t.Fatal(err)
			}
			if len(recs) != c.want {
				t.Errorf("read %d records, want %d", len(recs), c.want)
			}
			for i, r := range recs {
				if r.Iter != i {
					t.Errorf("record %d has iteration %d", i, r.Iter)
				}
			}
		})
	}
}

func TestReadJournalMissingFile(t *testing.T) {
	recs, err := ReadJournal(filepath.Join(t.TempDir(), "nope.log"))
	if err != nil || recs != nil {
		t.Errorf("missing journal: got %v, %v; want empty, nil", recs, err)
	}
}

// copyFormat2 copies the format-2 fixture's snapshot and journal files
// (testdata/engine-v2) into dir and returns their names.
func copyFormat2(t *testing.T, dir string) []string {
	t.Helper()
	var names []string
	for _, name := range []string{"snap-000000000000.ckpt", "wal-000000000000.log"} {
		data, err := os.ReadFile(filepath.Join("testdata", "engine-v2", name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
		names = append(names, name)
	}
	return names
}

// TestPruneKeepsTwoGenerations: a roll keeps the new segment and the
// one before it, and deletes older segments — but only once the new
// segment is written. Files it does not write, format-2 files among
// them, stay.
func TestPruneKeepsTwoGenerations(t *testing.T) {
	dir := t.TempDir()
	legacy := copyFormat2(t, dir)
	for seq := 1; seq <= 4; seq++ {
		j, err := Roll(dir, seq, 10*seq, 0, []byte(`{"s":1}`))
		if err != nil {
			t.Fatal(err)
		}
		j.Close()
	}
	if got := Segments(dir); !reflect.DeepEqual(got, []int{3, 4}) {
		t.Errorf("segments after four rolls: %v, want [3 4]", got)
	}
	for _, name := range legacy {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Errorf("a roll removed %s: %v", name, err)
		}
	}
	// A failed roll — here, onto an existing segment — leaves the
	// directory as it was.
	if _, err := Roll(dir, 4, 50, 0, []byte(`{"s":1}`)); err == nil {
		t.Fatal("rolling onto an existing segment succeeded")
	}
	if got := Segments(dir); !reflect.DeepEqual(got, []int{3, 4}) {
		t.Errorf("segments after a failed roll: %v, want [3 4]", got)
	}
}

// TestLoadRefusesFormat2: a directory whose only state is format 2 —
// alone, or beside an empty segment whose creation a crash cut short —
// holds state (Exists), and Load refuses it with ErrFormat2 and leaves
// every file in place.
func TestLoadRefusesFormat2(t *testing.T) {
	for _, emptySeg := range []bool{false, true} {
		dir := t.TempDir()
		legacy := copyFormat2(t, dir)
		if emptySeg {
			if err := os.WriteFile(SegPath(dir, 1), nil, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		if !Exists(dir) {
			t.Fatalf("empty segment %v: Exists false over format-2 files", emptySeg)
		}
		if st, err := Load(dir); !errors.Is(err, ErrFormat2) || !strings.Contains(err.Error(), "format-2") {
			t.Fatalf("empty segment %v: Load = %+v, %v; want ErrFormat2", emptySeg, st, err)
		}
		for _, name := range legacy {
			if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
				t.Errorf("empty segment %v: Load removed %s: %v", emptySeg, name, err)
			}
		}
	}
}

// TestLoadSegmentBesideFormat2: a directory holding a valid segment and
// stray format-2 files — a migration to segments cut short — resumes
// from its segment.
func TestLoadSegmentBesideFormat2(t *testing.T) {
	dir := t.TempDir()
	copyFormat2(t, dir)
	j, err := Roll(dir, 1, 7, 3, []byte(`{"s":7}`))
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append(Record{Iter: 7, Algo: "a", Value: 1, Trial: 4}); err != nil {
		t.Fatal(err)
	}
	j.Close()
	st, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st.Iter != 7 || string(st.Payload) != `{"s":7}` || len(st.Records) != 1 || st.Trial != 4 {
		t.Fatalf("Load = iter %d, payload %s, %d records, trial %d; want the segment's state", st.Iter, st.Payload, len(st.Records), st.Trial)
	}
}

// recordCases covers every branch of appendRecord: non-finite floats,
// both exponent cutoffs, nil and empty Config, names that need
// escaping, and every omitempty field, drift sentinels included.
var recordCases = []Record{
	{},
	{Iter: 3, Algo: "a", Config: []F{}, Value: 1},
	{Iter: 4, Algo: "b", Config: []F{F(math.NaN()), F(math.Inf(1)), F(math.Inf(-1))}, Value: F(math.NaN())},
	{Iter: 5, Algo: "c", Config: []F{1e-6, 9.99e-7, 1e-7, 5e-324, -1e-7, 1.5e-300}, Value: F(math.Inf(-1))},
	{Iter: 6, Algo: "d", Config: []F{1e20, 1e21, 123456789e15, -1e21, math.MaxFloat64, 0.1, -0.0}, Value: F(math.Copysign(0, -1))},
	{Iter: -7, Algo: "quote\" back\\ slash", Value: 2.5},
	{Iter: 8, Algo: "<script>&amp;</script>", Value: 3},
	{Iter: 9, Algo: "\x00\x01\b\f\n\r\t\x1f\x7f", Value: 4},
	{Iter: 10, Algo: "bad utf8 \xff\xfe, cut \xe2\x82, line\u2028para\u2029", Value: 5},
	{Iter: 11, Algo: "héllo, 世界 🙂", Value: 6},
	{Iter: math.MaxInt64, Algo: "plain", Config: []F{1, 2}, Value: 3.5, FailKind: "timeout",
		Trial: math.MaxUint64, Spec: true, Pinned: true},
	{Iter: 12, Drift: DriftRefork, DriftSeq: 2, DriftArm: -1, DriftKeep: 0.25, DriftProbes: 4, DriftP1: true},
	{Iter: 13, Drift: DriftDecay, DriftSeq: 1, DriftArm: 2, DriftKeep: F(math.NaN())},
	{Iter: 14, Drift: DriftDecay, DriftKeep: F(math.Copysign(0, -1))},
}

// TestAppendRecordMatchesJSON: the hand-written record encoder writes
// exactly what json.Marshal writes, and its journal line reads back.
func TestAppendRecordMatchesJSON(t *testing.T) {
	for i, r := range recordCases {
		checkRecordEncoding(t, fmt.Sprintf("case %d", i), r)
	}
	// Every field set, found by reflection, so a field added to Record
	// but not to appendRecord fails here.
	var all Record
	v := reflect.ValueOf(&all).Elem()
	for i := 0; i < v.NumField(); i++ {
		switch f := v.Field(i); f.Kind() {
		case reflect.Int, reflect.Int64:
			f.SetInt(int64(i + 1))
		case reflect.Uint64:
			f.SetUint(uint64(i + 1))
		case reflect.Float64:
			f.SetFloat(float64(i) + 0.5)
		case reflect.String:
			f.SetString(fmt.Sprint("s", i))
		case reflect.Bool:
			f.SetBool(true)
		case reflect.Slice:
			f.Set(reflect.ValueOf([]F{F(i), 0.25}))
		default:
			t.Fatalf("Record.%s has kind %v; teach this test and appendRecord about it", v.Type().Field(i).Name, f.Kind())
		}
	}
	checkRecordEncoding(t, "every field set", all)
}

// FuzzJournalRecord: for any record, the hand-written encoder writes
// exactly what json.Marshal writes, and the hand-written decoder reads
// it back. On any body — arbitrary bytes, and the encoded record with
// them spliced in — the decoder agrees with json.Unmarshal.
func FuzzJournalRecord(f *testing.F) {
	f.Add(0, "", []byte(nil), true, 0.0, "", uint64(0), false, false, "", uint64(0), 0, 0.0, 0, false, "", []byte(nil),
		uint64(0), uint64(0), []byte(`{"iter":1,"algo":"a","config":null,"value":1}`))
	f.Add(5, "tuned", []byte{0, 0, 0, 0, 0, 0, 0xf8, 0x7f}, false, 1e-7, "panic", uint64(9), true, true,
		DriftRefork, uint64(3), 2, 0.5, 4, true, "", []byte(nil), uint64(0), uint64(0), []byte(`,"spec":true`))
	f.Add(-1, "<\xff\u2028>", []byte{1, 2, 3, 4, 5, 6, 7, 8, 9}, false, 2.5e21, "\n", uint64(1), false, true,
		DriftDecay, uint64(1), -3, math.Inf(-1), -2, false, "", []byte(nil), uint64(0), uint64(0), []byte(`"\u004eaN"`))
	// A contextual completion, a contextual failure and a split record.
	f.Add(7, "tuned", []byte{0, 0, 0, 0, 0, 0, 0xf0, 0x3f}, false, 1.25, "", uint64(3), true, false,
		"", uint64(0), 0, 0.0, 0, false, "b0.lo", []byte(nil), uint64(0), uint64(0), []byte(`,"ctx":"b0.lo"}`))
	f.Add(8, "plain", []byte(nil), true, 40.0, "timeout", uint64(4), false, false,
		"", uint64(0), 0, 0.0, 0, false, "b1", []byte(nil), uint64(0), uint64(0), []byte(`,"fail":"timeout","trial":4,"ctx":"b1"`))
	f.Add(9, "", []byte(nil), true, 0.0, "", uint64(0), false, false,
		"", uint64(0), 0, 0.0, 0, false, "b0", []byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0x08, 0x40},
		uint64(0), uint64(0), []byte(`{"iter":9,"algo":"","config":null,"value":0,"ctx":"b0","split":[0,3]}`))
	// A completion with its selector RNG draw count, and a trial-ID mark.
	f.Add(10, "tuned", []byte{0, 0, 0, 0, 0, 0, 0xf0, 0x3f}, false, 2.0, "", uint64(5), false, false,
		"", uint64(0), 0, 0.0, 0, false, "", []byte(nil), uint64(17), uint64(0), []byte(`,"trial":5,"draws":17}`))
	f.Add(11, "", []byte(nil), true, 0.0, "", uint64(0), false, false,
		"", uint64(0), 0, 0.0, 0, false, "", []byte(nil), uint64(0), uint64(2048),
		[]byte(`{"iter":11,"algo":"","config":null,"value":0,"mark":2048}`))
	f.Fuzz(func(t *testing.T, iter int, algo string, cfgBits []byte, cfgNil bool, value float64, fail string,
		trial uint64, spec, pinned bool, drift string, dseq uint64, darm int, dkeep float64, dprobes int, dp1 bool,
		ctx string, splitBits []byte, draws, mark uint64, body []byte) {
		// Long inputs add no encoder branch, only time per run, and the
		// fuzzer's minimizer pays that time once per byte of them.
		algo, fail, drift, ctx = clip(algo), clip(fail), clip(drift), clip(ctx)
		if len(cfgBits) > 8*32 {
			cfgBits = cfgBits[:8*32]
		}
		var cfg []F
		if !cfgNil {
			cfg = []F{}
		}
		for ; len(cfgBits) >= 8; cfgBits = cfgBits[8:] {
			cfg = append(cfg, F(math.Float64frombits(binary.LittleEndian.Uint64(cfgBits))))
		}
		var split []F // omitempty: no split reads back as nil
		for ; len(splitBits) >= 8 && len(split) < 4; splitBits = splitBits[8:] {
			split = append(split, F(math.Float64frombits(binary.LittleEndian.Uint64(splitBits))))
		}
		if len(body) > 512 {
			body = body[:512]
		}
		rec := Record{
			Iter: iter, Algo: algo, Config: cfg, Value: F(value), FailKind: fail, Trial: trial,
			Spec: spec, Pinned: pinned, Drift: drift, DriftSeq: dseq, DriftArm: darm,
			DriftKeep: F(dkeep), DriftProbes: dprobes, DriftP1: dp1, Ctx: ctx, Split: split,
			Draws: draws, Mark: mark,
		}
		checkRecordEncoding(t, "fuzz", rec)
		checkRecordDecoding(t, "fuzz", rec)
		checkDecodeAgrees(t, body)
		enc := appendRecord(nil, &rec)
		k := len(body) % (len(enc) + 1)
		checkDecodeAgrees(t, cat(enc[:k], body, enc[k:]))
	})
}

func clip(s string) string {
	if len(s) > 256 {
		return s[:256]
	}
	return s
}

func checkRecordEncoding(t *testing.T, name string, r Record) {
	t.Helper()
	// json.Marshal(r) goes through F.MarshalJSON, that is AppendF, so
	// hold AppendF to encoding/json's own float64 encoding separately.
	for _, f := range append(append([]F{r.Value, r.DriftKeep}, r.Config...), r.Split...) {
		if v := float64(f); !math.IsNaN(v) && !math.IsInf(v, 0) {
			want, err := json.Marshal(v)
			if err != nil {
				t.Fatal(err)
			}
			if got := AppendF(nil, f); !bytes.Equal(got, want) {
				t.Fatalf("%s: AppendF(%v) = %s, encoding/json writes %s", name, v, got, want)
			}
		}
	}
	want, err := json.Marshal(r)
	if err != nil {
		t.Fatalf("%s: json.Marshal: %v", name, err)
	}
	if got := appendRecord(nil, &r); !bytes.Equal(got, want) {
		t.Fatalf("%s: appendRecord wrote\n%s\njson.Marshal writes\n%s", name, got, want)
	}
	if got, want := appendLine(nil, &r), fmt.Appendf(nil, "%08x %s\n", crc32.ChecksumIEEE(want), want); !bytes.Equal(got, want) {
		t.Fatalf("%s: journal line\n%s\nwant\n%s", name, got, want)
	}
}

// TestJournalFixtureReencodes: journal lines written before the
// hand-written encoders (testdata/engine-v3, the records of a trial
// engine's run of completions, failures, speculative records and an
// Absorb, as json.Marshal encoded them) come out of today's encoders
// byte for byte, and so does the segment's opening snapshot line.
func TestJournalFixtureReencodes(t *testing.T) {
	path := filepath.Join("testdata", "engine-v3", "seg-000000000001.log")
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	first := bytes.IndexByte(orig, '\n') + 1
	snap := classify(1, 0, orig[:first-1])
	if snap.kind != lineSnapshot {
		t.Fatal("the fixture does not open with a snapshot line")
	}
	if got := appendSnapshotLine(nil, snap.iter, snap.trial, snap.state); !bytes.Equal(got, orig[:first]) {
		t.Fatalf("re-encoded snapshot line differs from the fixture:\n%s", got)
	}
	recs, err := ReadJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if n := bytes.Count(orig[first:], []byte("\n")); len(recs) != n {
		t.Fatalf("read %d records from a journal of %d record lines", len(recs), n)
	}
	var lines []byte
	for i := range recs {
		lines = appendLine(lines, &recs[i])
	}
	if !bytes.Equal(lines, orig[first:]) {
		t.Fatalf("re-encoded journal differs from the fixture:\n%s", lines)
	}
}

// TestGenerationNames: only the fixed-width names SegPath writes count
// as segments, and only fixed-width snap-*.ckpt and wal-*.log names as
// format-2 files; temp files and near misses do not.
func TestGenerationNames(t *testing.T) {
	dir := t.TempDir()
	write := func(names ...string) {
		for _, name := range names {
			if err := os.WriteFile(filepath.Join(dir, name), nil, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	write("snap-5.ckpt", "snap-0000000000005.ckpt", "snap-00000000000x.ckpt", "snap-+00000000001.ckpt",
		".snap-000000000007.ckpt.tmp-1", "snap-000000000007.ckpt.tmp", "wal-000000000003.ckpt", "wal-3.log", "README",
		"seg-000000000002.log", "seg-000000000011.log", "seg-2.log", "seg-000000000002.ckpt", "seg-00000000001a.log")
	segs, format2 := list(dir)
	if !reflect.DeepEqual(segs, []int{2, 11}) {
		t.Errorf("segments %v, want [2 11]", segs)
	}
	if format2 {
		t.Error("near-miss names count as format-2 files")
	}
	for _, name := range []string{"snap-000000000020.ckpt", "wal-999999999999.log"} {
		write(name)
		if _, format2 := list(dir); !format2 {
			t.Errorf("%s does not count as a format-2 file", name)
		}
		if err := os.Remove(filepath.Join(dir, name)); err != nil {
			t.Fatal(err)
		}
	}
}
