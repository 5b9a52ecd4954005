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

// encodeSnapshot frames payload in a format-2 snapshot envelope, the
// way format-2 snapshot files were written, for the v2 reader's tests.
func encodeSnapshot(payload []byte) ([]byte, error) {
	if !json.Valid(payload) {
		return nil, errors.New("snapshot payload is not valid JSON")
	}
	payload = bytes.TrimSpace(payload)
	b := fmt.Appendf(nil, `{"version":2,"crc32":%d,"payload":`, crc32.ChecksumIEEE(payload))
	b = append(b, payload...)
	return append(b, '}'), nil
}

func TestSnapshotEncodeDecode(t *testing.T) {
	payload := []byte(`{"hello":"world","n":3}`)
	data, err := encodeSnapshot(payload)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeSnapshot(data)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(payload) {
		t.Errorf("payload round-tripped to %s", got)
	}
	if _, err := encodeSnapshot([]byte(`{"un终`)); err == nil {
		t.Error("encoding invalid JSON succeeded")
	}
}

// TestSnapshotRoundTripsAnyJSON: whatever valid JSON goes in comes back
// out of DecodeSnapshot, checksum intact — whitespace and characters
// json.Marshal would HTML-escape included — less only the whitespace
// around it.
func TestSnapshotRoundTripsAnyJSON(t *testing.T) {
	for _, c := range []struct{ in, want string }{
		{`{"a": 1}`, `{"a": 1}`},
		{`{"s":"<b>&amp;</b>"}`, `{"s":"<b>&amp;</b>"}`},
		{"\n [1,\t2] \r\n", `[1,	2]`},
		{`"\u2028"`, `"\u2028"`},
	} {
		data, err := encodeSnapshot([]byte(c.in))
		if err != nil {
			t.Fatalf("encode %q: %v", c.in, err)
		}
		got, err := DecodeSnapshot(data)
		if err != nil {
			t.Fatalf("decode the frame of %q: %v", c.in, err)
		}
		if string(got) != c.want {
			t.Errorf("%q round-tripped to %q, want %q", c.in, got, c.want)
		}
	}
}

// TestSnapshotFrameMatchesJSON: for a json.Marshal payload the frame is
// byte-identical to json.Marshal of the envelope, the form format-2
// snapshot files were written in.
func TestSnapshotFrameMatchesJSON(t *testing.T) {
	payload, err := json.Marshal(map[string]any{"best": F(math.Inf(1)), "name": "<a&b>", "v": []F{0.5, 1e-9}})
	if err != nil {
		t.Fatal(err)
	}
	got, err := encodeSnapshot(payload)
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(envelope{Version: 2, CRC32: crc32.ChecksumIEEE(payload), Payload: payload})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("frame\n%s\nwant\n%s", got, want)
	}
}

func TestSnapshotDecodeRejectsDamage(t *testing.T) {
	payload := []byte(`{"counts":[1,2,3],"value":0.5}`)
	data, err := encodeSnapshot(payload)
	if err != nil {
		t.Fatal(err)
	}
	// Truncation at any point must fail, never panic.
	for cut := 0; cut < len(data); cut++ {
		if _, err := DecodeSnapshot(data[:cut]); err == nil {
			t.Fatalf("decoding a snapshot truncated to %d bytes succeeded", cut)
		}
	}
	// A flipped byte anywhere must fail: either the frame breaks or the
	// checksum catches it.
	for i := range data {
		mut := append([]byte(nil), data...)
		mut[i] ^= 0x01
		if got, err := DecodeSnapshot(mut); err == nil && string(got) != string(payload) {
			t.Fatalf("flip at byte %d yielded a different payload without error: %s", i, got)
		}
	}
	// A future version must be refused.
	future := []byte(fmt.Sprintf(`{"version":%d,"crc32":0,"payload":{}}`, Version+1))
	if _, err := DecodeSnapshot(future); err == nil {
		t.Error("decoding a future-version snapshot succeeded")
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

// writeGen writes a format-2 generation: a snapshot file and a journal
// covering [iter, iter+n).
func writeGen(t *testing.T, dir string, iter, n int) {
	t.Helper()
	snap, err := encodeSnapshot([]byte(fmt.Sprintf(`{"iter":%d}`, iter)))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(SnapPath(dir, iter), snap, 0o644); err != nil {
		t.Fatal(err)
	}
	var lines []byte
	for i := iter; i < iter+n; i++ {
		lines = appendLine(lines, &Record{Iter: i, Algo: "a", Value: F(i)})
	}
	if err := os.WriteFile(WalPath(dir, iter), lines, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestPruneKeepsTwoGenerations: a roll keeps the new segment and the
// one before it, and deletes older segments and every format-2 file —
// but only once the new segment is written.
func TestPruneKeepsTwoGenerations(t *testing.T) {
	dir := t.TempDir()
	writeGen(t, dir, 0, 10)
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
	if segs, snaps, wals := list(dir); len(snaps)+len(wals) != 0 {
		t.Errorf("format-2 files survive a roll: snapshots %v, journals %v (segments %v)", snaps, wals, segs)
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

func TestLoadLatestFallsBack(t *testing.T) {
	dir := t.TempDir()
	writeGen(t, dir, 0, 5)
	writeGen(t, dir, 5, 5)

	// Healthy: newest wins.
	st, err := Load(dir)
	if err != nil || st.Iter != 5 {
		t.Fatalf("Load: %+v, err %v", st, err)
	}

	// Corrupt the newest: previous generation must load, and the chained
	// journals must still cover everything from it onward.
	data, err := os.ReadFile(SnapPath(dir, 5))
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(SnapPath(dir, 5), data, 0o644); err != nil {
		t.Fatal(err)
	}
	st, err = Load(dir)
	if err != nil || st.Iter != 0 {
		t.Fatalf("Load after corruption: %+v, err %v", st, err)
	}
	if len(st.Records) != 10 {
		t.Fatalf("chained journals replay %d records, want 10", len(st.Records))
	}
	for i, r := range st.Records {
		if r.Iter != i {
			t.Errorf("replay record %d has iteration %d", i, r.Iter)
		}
	}

	// Corrupt both: ErrNoSnapshot.
	data, err = os.ReadFile(SnapPath(dir, 0))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(SnapPath(dir, 0), data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(dir); !errors.Is(err, ErrNoSnapshot) {
		t.Errorf("Load with every snapshot damaged: %v, want ErrNoSnapshot", err)
	}
}

func TestReadJournalsSinceSkipsOlderRecords(t *testing.T) {
	dir := t.TempDir()
	writeGen(t, dir, 0, 10)
	writeGen(t, dir, 10, 4)
	_, _, wals := list(dir)
	recs, _ := readJournalsSince(dir, wals, 10)
	if len(recs) != 4 {
		t.Fatalf("replay from 10 yields %d records, want 4", len(recs))
	}
	if recs[0].Iter != 10 || recs[3].Iter != 13 {
		t.Errorf("replay range %d..%d, want 10..13", recs[0].Iter, recs[3].Iter)
	}
}

// FuzzSnapshotDecode asserts the decoder never panics and never returns a
// payload that fails validation, no matter the input bytes.
func FuzzSnapshotDecode(f *testing.F) {
	valid, err := encodeSnapshot([]byte(`{"counts":[1,2,3],"value":0.5}`))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add([]byte{})
	f.Add([]byte(`{"version":1,"crc32":0,"payload":{}}`))
	f.Add([]byte(`{"version":99,"crc32":0,"payload":null}`))
	f.Add(valid[:len(valid)/2])
	f.Fuzz(func(t *testing.T, data []byte) {
		payload, err := DecodeSnapshot(data)
		if err != nil {
			return
		}
		// Whatever decodes must be self-consistent: re-encoding and
		// re-decoding yields the same payload.
		again, err := encodeSnapshot(payload)
		if err != nil {
			t.Fatalf("decoded payload does not re-encode: %v", err)
		}
		back, err := DecodeSnapshot(again)
		if err != nil {
			t.Fatalf("re-encoded snapshot does not decode: %v", err)
		}
		if string(back) != string(payload) {
			t.Fatalf("payload changed across re-encode: %s vs %s", payload, back)
		}
	})
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
	f.Add(0, "", []byte(nil), true, 0.0, "", uint64(0), false, false, "", uint64(0), 0, 0.0, 0, false,
		[]byte(`{"iter":1,"algo":"a","config":null,"value":1}`))
	f.Add(5, "tuned", []byte{0, 0, 0, 0, 0, 0, 0xf8, 0x7f}, false, 1e-7, "panic", uint64(9), true, true,
		DriftRefork, uint64(3), 2, 0.5, 4, true, []byte(`,"spec":true`))
	f.Add(-1, "<\xff\u2028>", []byte{1, 2, 3, 4, 5, 6, 7, 8, 9}, false, 2.5e21, "\n", uint64(1), false, true,
		DriftDecay, uint64(1), -3, math.Inf(-1), -2, false, []byte(`"\u004eaN"`))
	f.Fuzz(func(t *testing.T, iter int, algo string, cfgBits []byte, cfgNil bool, value float64, fail string,
		trial uint64, spec, pinned bool, drift string, dseq uint64, darm int, dkeep float64, dprobes int, dp1 bool,
		body []byte) {
		// Long inputs add no encoder branch, only time per run, and the
		// fuzzer's minimizer pays that time once per byte of them.
		algo, fail, drift = clip(algo), clip(fail), clip(drift)
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
		if len(body) > 512 {
			body = body[:512]
		}
		rec := Record{
			Iter: iter, Algo: algo, Config: cfg, Value: F(value), FailKind: fail, Trial: trial,
			Spec: spec, Pinned: pinned, Drift: drift, DriftSeq: dseq, DriftArm: darm,
			DriftKeep: F(dkeep), DriftProbes: dprobes, DriftP1: dp1,
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
	for _, f := range append([]F{r.Value, r.DriftKeep}, r.Config...) {
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

// TestJournalFixtureReencodes: a journal and snapshot written before the
// hand-written encoders (testdata/engine-v2: a trial engine's run of
// completions, failures, speculative records and an Absorb) come out of
// today's encoders byte for byte.
func TestJournalFixtureReencodes(t *testing.T) {
	dir := filepath.Join("testdata", "engine-v2")
	orig, err := os.ReadFile(WalPath(dir, 0))
	if err != nil {
		t.Fatal(err)
	}
	recs, err := ReadJournal(WalPath(dir, 0))
	if err != nil {
		t.Fatal(err)
	}
	if n := bytes.Count(orig, []byte("\n")); len(recs) != n {
		t.Fatalf("read %d records from a %d-line journal", len(recs), n)
	}
	var lines []byte
	for i := range recs {
		lines = appendLine(lines, &recs[i])
	}
	if !bytes.Equal(lines, orig) {
		t.Fatalf("re-encoded journal differs from the fixture:\n%s", lines)
	}

	snap, err := os.ReadFile(SnapPath(dir, 0))
	if err != nil {
		t.Fatal(err)
	}
	payload, err := DecodeSnapshot(snap)
	if err != nil {
		t.Fatal(err)
	}
	again, err := encodeSnapshot(payload)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, snap) {
		t.Fatalf("re-encoded snapshot differs from the fixture:\n%s", again)
	}
}

// TestGenerationNames: only the fixed-width names SegPath, SnapPath and
// WalPath write count as segments and generations; temp files and near
// misses do not.
func TestGenerationNames(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{
		"snap-000000000020.ckpt", "snap-000000000003.ckpt", "wal-000000000003.log", "wal-999999999999.log",
		"snap-5.ckpt", "snap-0000000000005.ckpt", "snap-00000000000x.ckpt", "snap-+00000000001.ckpt",
		".snap-000000000007.ckpt.tmp-1", "snap-000000000007.ckpt.tmp", "wal-000000000003.ckpt", "README",
		"seg-000000000002.log", "seg-000000000011.log", "seg-2.log", "seg-000000000002.ckpt", "seg-00000000001a.log",
	} {
		if err := os.WriteFile(filepath.Join(dir, name), nil, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	segs, snaps, wals := list(dir)
	if !reflect.DeepEqual(segs, []int{2, 11}) {
		t.Errorf("segments %v, want [2 11]", segs)
	}
	if !reflect.DeepEqual(snaps, []int{3, 20}) {
		t.Errorf("snapshot generations %v, want [3 20]", snaps)
	}
	if !reflect.DeepEqual(wals, []int{3, 999999999999}) {
		t.Errorf("journal generations %v, want [3 999999999999]", wals)
	}
}
