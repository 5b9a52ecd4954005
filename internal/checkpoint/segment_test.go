package checkpoint

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
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

// snapLine is a snapshot line taken at iter, with trial as its highest
// journaled trial ID.
func snapLine(iter int, trial uint64) []byte {
	return appendSnapshotLine(nil, iter, trial, fmt.Appendf(nil, `{"at":%d}`, iter))
}

// recLine is the record line of iteration iter, with trial ID iter+1.
func recLine(iter int) []byte {
	return appendLine(nil, &Record{Iter: iter, Algo: "a", Value: F(iter), Trial: uint64(iter + 1)})
}

// recLines is the record lines of iterations [from, to).
func recLines(from, to int) []byte {
	var b []byte
	for i := from; i < to; i++ {
		b = append(b, recLine(i)...)
	}
	return b
}

// damage flips a byte in the middle of a line's body.
func damage(line []byte) []byte {
	out := bytes.Clone(line)
	out[9+(len(out)-10)/2] ^= 0x01
	return out
}

func cat(parts ...[]byte) []byte { return bytes.Join(parts, nil) }

func iters(recs []Record) []int {
	out := make([]int, len(recs))
	for i, r := range recs {
		out[i] = r.Iter
	}
	return out
}

func span(from, to int) []int {
	var out []int
	for i := from; i < to; i++ {
		out = append(out, i)
	}
	return out
}

// TestLoadSegments: Load restores the newest valid snapshot line and the
// records after it, falls back past a damaged snapshot line — inside a
// segment and across segments — and drops the records behind a damaged
// record until a valid snapshot restores the whole state.
func TestLoadSegments(t *testing.T) {
	drift := appendLine(nil, &Record{Iter: 3, Drift: DriftDecay, DriftSeq: 1, DriftKeep: 0.5})
	future := frameLine(append([]byte("00000000 "), `{"version":99,"iter":4,"trial":4,"state":{"at":4}}`...), 0)
	cases := []struct {
		name    string
		segs    [][]byte
		iter    int
		recs    []int
		trial   uint64
		noState bool
		noSnap  bool
	}{
		{name: "newest snapshot wins", segs: [][]byte{cat(snapLine(0, 0), recLines(0, 10), snapLine(10, 10), recLines(10, 15))},
			iter: 10, recs: span(10, 15), trial: 15},
		{name: "damaged newest snapshot falls back", segs: [][]byte{cat(snapLine(0, 0), recLines(0, 10), damage(snapLine(10, 10)), recLines(10, 15))},
			iter: 0, recs: span(0, 15), trial: 15},
		{name: "damaged opening snapshot falls back to the previous segment",
			segs: [][]byte{cat(snapLine(0, 0), recLines(0, 10)), cat(damage(snapLine(10, 10)), recLines(10, 15))},
			iter: 0, recs: span(0, 15), trial: 15},
		{name: "torn tail", segs: [][]byte{cat(snapLine(0, 0), recLines(0, 5), recLine(5)[:20])},
			iter: 0, recs: span(0, 5), trial: 5},
		{name: "torn tail, then the resume's segment",
			segs: [][]byte{cat(snapLine(0, 0), recLines(0, 5), recLine(5)[:20]), cat(snapLine(5, 5), recLines(5, 7))},
			iter: 5, recs: span(5, 7), trial: 7},
		{name: "damaged record drops the records after it", segs: [][]byte{cat(snapLine(0, 0), recLines(0, 2), damage(recLine(2)), recLines(3, 5))},
			iter: 0, recs: span(0, 2), trial: 2},
		{name: "a valid snapshot after a damaged record restores the state",
			segs: [][]byte{cat(snapLine(0, 0), recLine(0), damage(recLine(1)), recLine(2), snapLine(3, 3), recLine(3))},
			iter: 3, recs: []int{3}, trial: 4},
		{name: "a damaged record is not mistaken for a snapshot line",
			segs: [][]byte{cat(snapLine(0, 0), recLine(0), damage(recLine(1)), recLine(2), damage(snapLine(3, 3)), recLine(3))},
			iter: 0, recs: []int{0}, trial: 1},
		{name: "drift sentinels carry the next record's iteration",
			segs: [][]byte{cat(snapLine(0, 0), recLines(0, 3), drift, damage(snapLine(3, 3)), recLines(3, 5))},
			iter: 0, recs: []int{0, 1, 2, 3, 3, 4}, trial: 5},
		{name: "snapshot carries the highest trial", segs: [][]byte{cat(snapLine(0, 0), recLines(0, 4), snapLine(4, 40))},
			iter: 4, trial: 40},
		{name: "future version is damage", segs: [][]byte{cat(snapLine(0, 0), recLines(0, 4), future, recLines(4, 6))},
			iter: 0, recs: span(0, 6), trial: 6},
		{name: "empty segments hold no state", segs: [][]byte{nil, nil}, noState: true},
		{name: "every snapshot damaged", segs: [][]byte{cat(damage(snapLine(0, 0)), recLines(0, 4), damage(snapLine(4, 4)))}, noSnap: true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			for i, data := range c.segs {
				if err := os.WriteFile(SegPath(dir, 3+i), data, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			st, err := Load(dir)
			if c.noSnap {
				if !errors.Is(err, ErrNoSnapshot) {
					t.Fatalf("Load: %v, want ErrNoSnapshot", err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if st.Seq != 2+len(c.segs) {
				t.Errorf("Seq %d, want %d", st.Seq, 2+len(c.segs))
			}
			if c.noState {
				if st.Payload != nil {
					t.Fatalf("payload %s, want none", st.Payload)
				}
				return
			}
			if want := fmt.Sprintf(`{"at":%d}`, c.iter); st.Iter != c.iter || string(st.Payload) != want {
				t.Errorf("snapshot at %d with %s, want %d with %s", st.Iter, st.Payload, c.iter, want)
			}
			if got := iters(st.Records); !reflect.DeepEqual(got, c.recs) && (len(got) != 0 || len(c.recs) != 0) {
				t.Errorf("records at %v, want %v", got, c.recs)
			}
			if st.Trial != c.trial {
				t.Errorf("highest trial %d, want %d", st.Trial, c.trial)
			}
		})
	}
}

// TestLoadMissingDir: a directory that does not exist holds no state.
func TestLoadMissingDir(t *testing.T) {
	st, err := Load(filepath.Join(t.TempDir(), "nope"))
	if err != nil || st.Payload != nil || st.Seq != 0 {
		t.Fatalf("Load of a missing dir: %+v, %v", st, err)
	}
}

// TestSnapshotLinesInline: snapshot lines share the journal's buffer and
// its one write, read back in order with the records around them, and
// are found by InspectSegment.
func TestSnapshotLinesInline(t *testing.T) {
	dir := t.TempDir()
	j, err := Roll(dir, 1, 0, 0, []byte(`{"at":0}`))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if err := j.AppendBuffered(Record{Iter: i, Algo: "a", Trial: uint64(i + 1)}); err != nil {
			t.Fatal(err)
		}
		if i == 2 {
			if err := j.AppendSnapshot(3, 3, []byte(`{"at":3}`)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	recs, err := ReadJournal(SegPath(dir, 1))
	if err != nil || !reflect.DeepEqual(iters(recs), span(0, 6)) {
		t.Fatalf("ReadJournal: %v, %v; want records 0..5", iters(recs), err)
	}
	info, err := InspectSegment(SegPath(dir, 1))
	if err != nil {
		t.Fatal(err)
	}
	if len(info.Snapshots) != 2 || info.Snapshots[0].Iter != 0 || info.Snapshots[1].Iter != 3 ||
		info.Snapshots[1].Line != 5 || info.Records != 6 || info.Lines != 8 || info.Damaged != 0 {
		t.Fatalf("InspectSegment: %+v", info)
	}
	data, err := os.ReadFile(SegPath(dir, 1))
	if err != nil {
		t.Fatal(err)
	}
	s := info.Snapshots[1]
	if got := data[s.Offset : s.Offset+int64(s.Len)]; !bytes.Equal(got, bytes.TrimSuffix(snapLine(3, 3), []byte("\n"))) {
		t.Fatalf("snapshot line at offset %d reads %s", s.Offset, got)
	}
	// After Close the journal reopens the segment on its next write.
	if err := j.Append(Record{Iter: 6, Algo: "a"}); err != nil {
		t.Fatal(err)
	}
	if recs, _ := ReadJournal(SegPath(dir, 1)); len(recs) != 7 {
		t.Fatalf("%d records after reopening, want 7", len(recs))
	}
}

// TestAppendSnapshotRefuses: a payload that is empty or spans lines
// cannot be a snapshot line, and a segment no longer in its directory
// takes no snapshot.
func TestAppendSnapshotRefuses(t *testing.T) {
	dir := t.TempDir()
	j, err := Roll(dir, 1, 0, 0, []byte(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	for _, p := range []string{"", "{\n}"} {
		if err := j.AppendSnapshot(1, 0, []byte(p)); err == nil {
			t.Errorf("AppendSnapshot(%q) succeeded", p)
		}
	}
	if _, err := Roll(dir, 2, 0, 0, []byte("{\n}")); err == nil {
		t.Error("Roll with a multi-line payload succeeded")
	}
	if got := Segments(dir); !reflect.DeepEqual(got, []int{1}) {
		t.Errorf("segments %v after a failed roll, want [1]", got)
	}
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	if err := j.AppendSnapshot(1, 0, []byte(`{}`)); err == nil {
		t.Error("AppendSnapshot into an unlinked segment succeeded")
	}
}

// TestSegmentFull: a segment is full once it holds the cap's bytes.
func TestSegmentFull(t *testing.T) {
	prev := SetSegmentBytes(256)
	defer SetSegmentBytes(prev)
	j, err := Roll(t.TempDir(), 1, 0, 0, []byte(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	for i := 0; !j.Full(); i++ {
		if i > 10 {
			t.Fatal("segment not full after 10 records")
		}
		if err := j.AppendBuffered(Record{Iter: i, Algo: "padding-padding-padding"}); err != nil {
			t.Fatal(err)
		}
	}
	if SetSegmentBytes(0) != 256 || SetSegmentBytes(prev) != SegmentBytes {
		t.Fatal("SetSegmentBytes does not swap the cap")
	}
}

// sameF reports whether two floats are the same value: equal bits, or
// both NaN.
func sameF(a, b F) bool {
	return math.Float64bits(float64(a)) == math.Float64bits(float64(b)) || (math.IsNaN(float64(a)) && math.IsNaN(float64(b)))
}

// sameRecord compares records field by field, NaN-aware, nil and empty
// Config apart.
func sameRecord(a, b Record) bool {
	if (a.Config == nil) != (b.Config == nil) || len(a.Config) != len(b.Config) ||
		!sameF(a.Value, b.Value) || !sameF(a.DriftKeep, b.DriftKeep) {
		return false
	}
	for i := range a.Config {
		if !sameF(a.Config[i], b.Config[i]) {
			return false
		}
	}
	a.Config, b.Config, a.Value, b.Value, a.DriftKeep, b.DriftKeep = nil, nil, 0, 0, 0, 0
	return reflect.DeepEqual(a, b)
}

// checkDecodeAgrees: decodeRecord accepts exactly what json.Unmarshal
// accepts, with the same result, and the hand-written parser alone never
// accepts a body that json.Unmarshal rejects or reads differently.
func checkDecodeAgrees(t *testing.T, body []byte) {
	t.Helper()
	var want, got, fast Record
	wantErr := json.Unmarshal(body, &want)
	gotErr := decodeRecord(body, &got)
	if (wantErr == nil) != (gotErr == nil) || (wantErr == nil && !sameRecord(got, want)) {
		t.Fatalf("body %q: decodeRecord = %+v, %v; json.Unmarshal = %+v, %v", body, got, gotErr, want, wantErr)
	}
	if parseRecord(body, &fast) && (wantErr != nil || !sameRecord(fast, want)) {
		t.Fatalf("body %q: parseRecord = %+v; json.Unmarshal = %+v, %v", body, fast, want, wantErr)
	}
}

// checkRecordDecoding: appendRecord's form of r is read back by the
// hand-written parser itself, as r with invalid UTF-8 replaced the way
// the encoder replaces it, and -0 in an omitempty field read as 0.
func checkRecordDecoding(t *testing.T, name string, r Record) {
	t.Helper()
	body := appendRecord(nil, &r)
	var got Record
	if !parseRecord(body, &got) {
		t.Fatalf("%s: parseRecord refuses appendRecord's %s", name, body)
	}
	want := r
	want.Algo, want.FailKind, want.Drift = string([]rune(r.Algo)), string([]rune(r.FailKind)), string([]rune(r.Drift))
	if want.DriftKeep == 0 {
		want.DriftKeep = 0
	}
	if !sameRecord(got, want) {
		t.Fatalf("%s: %s decodes to %+v, want %+v", name, body, got, want)
	}
	checkDecodeAgrees(t, body)
}

func TestDecodeRecord(t *testing.T) {
	for i, r := range recordCases {
		checkRecordDecoding(t, fmt.Sprintf("case %d", i), r)
	}
	for _, body := range []string{
		`{"iter":1,"algo":"a","config":null,"value":1}`,
		` {"iter":1, "algo":"a","config":[ 1 ],"value":1} `,
		`{"algo":"a","iter":1,"config":null,"value":1}`,
		`{"iter":1,"algo":"a","config":null,"value":1,"spec":false,"new":[1,{"x":2}]}`,
		`{"ITER":1,"Algo":"a","config":null,"value":1}`,
		`{"iter":1,"algo":"A\/😀\ud800","config":["NaN","+Inf",-0,1E+2,1e-400],"value":"-Inf"}`,
		`{"iter":1,"algo":"a` + "\x7f\xff" + `","config":[],"value":1e400}`,
		`{"iter":01,"algo":"a","config":null,"value":1}`,
		`{"iter":1.5,"algo":"a","config":null,"value":1}`,
		`{"iter":9223372036854775808,"algo":"a","config":null,"value":1}`,
		`{"iter":-9223372036854775808,"algo":"a","config":null,"value":1,"trial":18446744073709551615}`,
		`{"iter":1,"algo":"a","config":null,"value":1,"trial":18446744073709551616}`,
		`{"iter":1,"algo":"a","config":null,"value":1,"trial":-1}`,
		`{"iter":1,"algo":"a","config":null,"value":.5}`,
		`{"iter":1,"algo":"a","config":[1,],"value":1}`,
		`{"iter":1,"algo":"a` + "\n" + `","config":null,"value":1}`,
		`{"iter":1,"algo":"a","config":null,"value":1}x`,
		`{"iter":1,"algo":"a","config":null,"value":1`,
		`null`, ``,
	} {
		checkDecodeAgrees(t, []byte(body))
	}
}

// FuzzSegmentRead: no bytes panic the segment readers, and no record,
// nor snapshot, comes from a line that fails its checksum.
func FuzzSegmentRead(f *testing.F) {
	f.Add(cat(snapLine(0, 0), recLines(0, 3), snapLine(3, 3), recLines(3, 5)))
	f.Add(cat(snapLine(0, 0), recLines(0, 3), damage(snapLine(3, 3)), recLines(3, 5), recLine(5)[:30]))
	f.Add(cat(damage(recLine(0)), recLines(1, 3), []byte("\n\n"), snapLine(3, 7)))
	f.Add([]byte("00000000 {}\nzzzzzzzz {\"version\":3}\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		// The checksummed bodies, found independently of scanLines.
		var bodies [][]byte
		for _, l := range bytes.Split(data, []byte("\n")) {
			l = bytes.TrimSpace(l)
			if len(l) < 9 || l[8] != ' ' {
				continue
			}
			if sum, err := hex.DecodeString(string(l[:8])); err == nil && crc32.ChecksumIEEE(l[9:]) == binary.BigEndian.Uint32(sum) {
				bodies = append(bodies, l[9:])
			}
		}
		fromValidLine := func(recs []Record) {
			i := 0
			for _, r := range recs {
				for ; i < len(bodies); i++ {
					var want Record
					if json.Unmarshal(bodies[i], &want) == nil && sameRecord(r, want) {
						break
					}
				}
				if i == len(bodies) {
					t.Fatalf("record %+v comes from no checksummed line, in order", r)
				}
				i++
			}
		}
		recs, err := readRecords(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		fromValidLine(recs)
		var r resumeReader
		if err := r.read(bytes.NewReader(data)); err != nil {
			t.Fatal(err)
		}
		if r.found {
			ok := false
			for _, b := range bodies {
				ok = ok || bytes.Contains(b, r.state)
			}
			if !ok {
				t.Fatalf("snapshot %q comes from no checksummed line", r.state)
			}
			var st State
			r.fill(&st)
			fromValidLine(st.Records)
		}
	})
}

// TestLongSnapshotLine: a snapshot line longer than the reader's buffer
// reads back whole, and the lines after it keep their offsets.
func TestLongSnapshotLine(t *testing.T) {
	dir := t.TempDir()
	payload := []byte(`{"pad":"` + strings.Repeat("x", 200<<10) + `"}`)
	j, err := Roll(dir, 1, 0, 0, []byte(`{"at":0}`))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := j.AppendBuffered(Record{Iter: i, Algo: "a"}); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.AppendSnapshot(3, 0, payload); err != nil {
		t.Fatal(err)
	}
	if err := j.AppendBuffered(Record{Iter: 3, Algo: "a"}); err != nil {
		t.Fatal(err)
	}
	if err := j.AppendSnapshot(4, 0, []byte(`{"at":4}`)); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	info, err := InspectSegment(SegPath(dir, 1))
	if err != nil {
		t.Fatal(err)
	}
	if len(info.Snapshots) != 3 || info.Snapshots[1].Len != len(snapLine(0, 0))-len(`{"at":0}`)-1+len(payload) {
		t.Fatalf("InspectSegment: %+v", info)
	}
	data, err := os.ReadFile(SegPath(dir, 1))
	if err != nil {
		t.Fatal(err)
	}
	last := info.Snapshots[2]
	if got := string(data[last.Offset : last.Offset+int64(last.Len)]); !strings.HasSuffix(got, `"state":{"at":4}}`) {
		t.Fatalf("last snapshot line at offset %d reads %q", last.Offset, got)
	}
	// With the newest snapshot damaged the long one is restored.
	data[last.Offset+int64(last.Len)/2] ^= 0x01
	if err := os.WriteFile(SegPath(dir, 1), data, 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := Load(dir)
	if err != nil || st.Iter != 3 || !bytes.Equal(st.Payload, payload) || !reflect.DeepEqual(iters(st.Records), []int{3}) {
		t.Fatalf("Load: iteration %d, %d payload bytes, records %v, %v", st.Iter, len(st.Payload), iters(st.Records), err)
	}
}
