package wire

// Each trial operation has one in-memory message: the packed struct of
// packed.go. Sessions that negotiated proto ≥ 3 carry it as is; older
// sessions carry it as its JSON twin from messages.go. This file is the
// only place the two encodings meet. A server or client names the
// packed type, asks ForVersion for the frame type its session's version
// uses, and passes that frame type with the packed struct to Codec for
// the payload that encodes or decodes it; an incoming frame's Canonical
// type names the packed struct to decode into. On a v3 session all
// three return their arguments unchanged, so the packed path pays
// nothing.
//
// The conversion is lossless for every field the packed form carries.
// JSON Result.Features has no packed field and is dropped: a contextual
// server routes completions by trial ID, never by that echo.

// Canonical returns the packed type of a JSON trial type (TLeaseN →
// TLeaseP, TTrials → TTrialsP, TCompleteN → TCompleteP, TFailN →
// TFailP, TAck → TAckP) and every other type unchanged, so a handler
// dispatches on the operation whatever its encoding.
func (t Type) Canonical() Type {
	switch t {
	case TLeaseN:
		return TLeaseP
	case TTrials:
		return TTrialsP
	case TCompleteN:
		return TCompleteP
	case TFailN:
		return TFailP
	case TAck:
		return TAckP
	}
	return t
}

// ForVersion returns the frame type that carries a message of type t at
// protocol version v: the JSON twin of a packed trial type below v3,
// t itself otherwise.
func (t Type) ForVersion(v byte) Type {
	if v >= 3 {
		return t
	}
	switch t {
	case TLeaseP:
		return TLeaseN
	case TTrialsP:
		return TTrials
	case TCompleteP:
		return TCompleteN
	case TFailP:
		return TFailN
	case TAckP:
		return TAck
	}
	return t
}

// Codec returns the payload that carries p in a frame of type typ: p
// itself, or, when typ is a JSON trial type and p its packed message, an
// adapter that encodes p as the JSON twin and decodes the twin into p.
func Codec(typ Type, p Payload) Payload {
	if typ.Canonical() == typ {
		return p
	}
	switch m := p.(type) {
	case *PackedLeaseReq:
		return jsonTwin[LeaseNReq, *PackedLeaseReq]{m}
	case *PackedTrials:
		return jsonTwin[LeaseNResp, *PackedTrials]{m}
	case *PackedCompleteReq:
		return jsonTwin[CompleteNReq, *PackedCompleteReq]{m}
	case *PackedFailReq:
		return jsonTwin[FailNReq, *PackedFailReq]{m}
	case *PackedAck:
		return jsonTwin[AckResp, *PackedAck]{m}
	}
	return p
}

// twinned is a packed trial message that converts to and from its JSON
// twin J.
type twinned[J any] interface {
	toJSON() *J
	fromJSON(v *J)
}

// jsonTwin carries the packed message m as its JSON twin J.
type jsonTwin[J any, P twinned[J]] struct{ m P }

func (t jsonTwin[J, P]) AppendEncode(buf []byte) []byte { return appendJSON(buf, t.m.toJSON()) }

func (t jsonTwin[J, P]) DecodeFrom(buf []byte) error {
	var v J
	if err := decodeJSON(buf, &v); err != nil {
		return err
	}
	t.m.fromJSON(&v)
	return nil
}

func (m *PackedLeaseReq) toJSON() *LeaseNReq { return &LeaseNReq{N: m.N, Features: m.Features} }

func (m *PackedLeaseReq) fromJSON(v *LeaseNReq) { m.N, m.Features = v.N, v.Features }

func (m *PackedTrials) toJSON() *LeaseNResp {
	v := &LeaseNResp{Epoch: m.Epoch, Done: m.Done, RetryMS: m.RetryMS, Draining: m.Draining, SuggestMax: m.SuggestMax}
	for _, tr := range m.Trials {
		v.Trials = append(v.Trials, Trial{ID: tr.ID, Algo: tr.Algo, Config: tr.Config, DeadlineMS: tr.DeadlineMS,
			Speculative: tr.Speculative, Pinned: tr.Pinned})
	}
	return v
}

func (m *PackedTrials) fromJSON(v *LeaseNResp) {
	m.Epoch, m.Done, m.RetryMS, m.Draining, m.SuggestMax = v.Epoch, v.Done, v.RetryMS, v.Draining, v.SuggestMax
	m.Trials = m.Trials[:0]
	for _, tr := range v.Trials {
		m.Trials = append(m.Trials, PackedTrial{ID: tr.ID, Algo: tr.Algo, DeadlineMS: tr.DeadlineMS,
			Speculative: tr.Speculative, Pinned: tr.Pinned, Config: tr.Config})
	}
}

func (m *PackedCompleteReq) toJSON() *CompleteNReq {
	v := &CompleteNReq{Epoch: m.Epoch, Worker: m.Worker, Results: make([]Result, len(m.Results))}
	for i, r := range m.Results {
		v.Results[i] = Result{ID: r.ID, Value: r.Value}
	}
	return v
}

func (m *PackedCompleteReq) fromJSON(v *CompleteNReq) {
	m.Epoch, m.Worker = v.Epoch, v.Worker
	m.Results = m.Results[:0]
	for _, r := range v.Results {
		m.Results = append(m.Results, PackedResult{ID: r.ID, Value: r.Value})
	}
}

// failKindNames are the JSON Fail.Kind strings of the packed failure
// kinds: guard.Kind's String form, plus "other" for FailOther.
var failKindNames = [...]string{FailOther: "other", FailPanic: "panic", FailTimeout: "timeout", FailInvalid: "invalid"}

func (m *PackedFailReq) toJSON() *FailNReq {
	v := &FailNReq{Epoch: m.Epoch, Fails: make([]Fail, len(m.Fails))}
	for i, f := range m.Fails {
		kind := failKindNames[FailOther] // bytes without a name travel as "other"
		if int(f.Kind) < len(failKindNames) {
			kind = failKindNames[f.Kind]
		}
		v.Fails[i] = Fail{ID: f.ID, Kind: kind, Penalty: f.Penalty, Msg: f.Msg}
	}
	return v
}

// fromJSON maps unknown kind strings to FailOther, which a server
// charges as invalid.
func (m *PackedFailReq) fromJSON(v *FailNReq) {
	m.Epoch = v.Epoch
	m.Fails = m.Fails[:0]
	for _, f := range v.Fails {
		kind := FailOther
		for k, name := range failKindNames {
			if name == f.Kind {
				kind = uint8(k)
			}
		}
		m.Fails = append(m.Fails, PackedFail{ID: f.ID, Kind: kind, Penalty: f.Penalty, Msg: f.Msg})
	}
}

func (m *PackedAck) toJSON() *AckResp { return &AckResp{Applied: m.Applied, Dropped: m.Dropped} }

func (m *PackedAck) fromJSON(v *AckResp) { m.Applied, m.Dropped = v.Applied, v.Dropped }
