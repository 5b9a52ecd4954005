// Package checkpoint implements crash-safe persistence for tuner state:
// one durable log per tuner, made of journal segments that hold both
// the iterations completed and periodic snapshots of the whole state.
//
// The durability contract is the classical snapshot+WAL design, kept in
// a single file at a time. A snapshot captures everything needed to
// resume tuning — search-strategy state, selector state, quarantine
// circuits, incumbent, RNG stream position — and between snapshots every
// completed iteration is a record. Both are lines of the current
// segment (seg-N.log). Appending only encodes the line into the
// journal's buffer (a record by hand, byte-identical to its json.Marshal
// form); the lines an operation buffered, a snapshot's included, reach
// the file in one write and are fsynced together before it returns, so
// on restart the newest snapshot is restored and the records after it
// are replayed through the tuner's normal Observe/ObserveFailure path,
// and only the lines of an operation still in flight at the crash can
// be lost — any prefix of them may survive.
//
// A snapshot creates no file. A new segment starts only when the
// current one passes SegmentBytes, when a tuner resumes (so a torn tail
// is never followed by new lines), and at the first snapshot after a
// checkpoint error; it opens with a snapshot line, is fsynced, and its
// directory is fsynced before the segments older than the previous one
// are deleted (Roll). Two segments survive, so a damaged opening
// snapshot still falls back to the previous segment.
//
// Corruption is expected, not exceptional: every line carries a CRC32
// over its body, and the loader falls back — to the previous snapshot
// when the newest fails its checksum, and to a truncated replay when a
// record is damaged — instead of failing the resume (see Load).
// Directories written in format 2 (a snap-N.ckpt file per snapshot
// beside a wal-N.log journal) are refused with ErrFormat2, never read
// or written over.
package checkpoint

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
)

// F is a float64 whose JSON encoding round-trips the non-finite values
// that tuner state legitimately contains (NaN simplex vertices awaiting
// evaluation, +Inf "no best yet" sentinels), which encoding/json
// rejects. Finite values encode as ordinary JSON numbers; NaN and ±Inf
// encode as the strings "NaN", "+Inf", "-Inf".
type F float64

// MarshalJSON encodes non-finite values as strings.
func (f F) MarshalJSON() ([]byte, error) {
	var buf [32]byte
	return AppendF(buf[:0], f), nil
}

// AppendF appends the JSON encoding of f to dst: the strings "NaN",
// "+Inf" and "-Inf" for non-finite values, and otherwise exactly the
// bytes encoding/json writes for a float64 — shortest round-trip digits,
// exponent form below 1e-6 and from 1e21 up, no zero-padded exponent.
func AppendF(dst []byte, f F) []byte {
	v := float64(f)
	switch {
	case math.IsNaN(v):
		return append(dst, `"NaN"`...)
	case math.IsInf(v, 1):
		return append(dst, `"+Inf"`...)
	case math.IsInf(v, -1):
		return append(dst, `"-Inf"`...)
	}
	format := byte('f')
	if abs := math.Abs(v); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, v, format, -1, 64)
	if format == 'e' {
		// encoding/json writes e-7, not e-07.
		n := len(dst)
		if n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst
}

// AppendFloats appends the JSON encoding of xs as a []F to dst, the way
// json.Marshal writes it: null for a nil slice, otherwise an array of
// AppendF values.
func AppendFloats[T ~float64](dst []byte, xs []T) []byte {
	if xs == nil {
		return append(dst, "null"...)
	}
	dst = append(dst, '[')
	for i, x := range xs {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = AppendF(dst, F(x))
	}
	return append(dst, ']')
}

// AppendInts appends the JSON encoding of xs to dst, the way
// json.Marshal writes it: null for a nil slice, otherwise an array.
func AppendInts(dst []byte, xs []int) []byte {
	if xs == nil {
		return append(dst, "null"...)
	}
	dst = append(dst, '[')
	for i, x := range xs {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendInt(dst, int64(x), 10)
	}
	return append(dst, ']')
}

// UnmarshalJSON accepts numbers and the three non-finite strings.
func (f *F) UnmarshalJSON(data []byte) error {
	if len(data) > 0 && data[0] == '"' {
		var s string
		if err := json.Unmarshal(data, &s); err != nil {
			return err
		}
		switch s {
		case "NaN":
			*f = F(math.NaN())
		case "+Inf":
			*f = F(math.Inf(1))
		case "-Inf":
			*f = F(math.Inf(-1))
		default:
			return fmt.Errorf("checkpoint: bad float %q", s)
		}
		return nil
	}
	v, err := strconv.ParseFloat(string(data), 64)
	if err != nil {
		return fmt.Errorf("checkpoint: bad float %s: %v", data, err)
	}
	*f = F(v)
	return nil
}

// Floats converts a value slice to its JSON-safe form.
func Floats(xs []float64) []F {
	if xs == nil {
		return nil
	}
	out := make([]F, len(xs))
	for i, x := range xs {
		out[i] = F(x)
	}
	return out
}

// Unfloats converts a JSON-safe slice back to float64s.
func Unfloats(xs []F) []float64 {
	if xs == nil {
		return nil
	}
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = float64(x)
	}
	return out
}

// WriteFileAtomic writes data to path so that a crash at any point
// leaves either the previous file contents or the new ones, never a
// truncated mix: the data goes to a temp file in the same directory
// (rename is only atomic within a filesystem), is fsynced, and is
// renamed over the target. The directory is fsynced afterwards so the
// rename itself survives a crash.
func WriteFileAtomic(path string, data []byte, perm os.FileMode) (err error) {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, "."+filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	defer func() {
		if err != nil {
			os.Remove(tmpName) // renamed away on success
		}
	}()

	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Chmod(perm); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmpName, path); err != nil {
		return err
	}
	return syncDir(dir)
}

// syncDir fsyncs a directory so a completed rename is durable. Some
// platforms refuse to fsync directories; that is a durability hint lost,
// not an error worth failing the checkpoint over.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return nil
	}
	defer d.Close()
	d.Sync()
	return nil
}
