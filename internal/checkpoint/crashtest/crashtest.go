// Package crashtest simulates power loss beneath the checkpoint journal.
// Install routes every journal segment through a Disk — its creation,
// writes and syncs, snapshot lines included, its removal, and the
// directory fsync that makes a creation durable. The Disk counts those
// operations, can cut the power at a chosen write, and on PowerLoss
// throws away every byte not yet synced — or, after Tear, a seeded
// random suffix of them — and every file whose directory entry was not
// yet synced: the states a disk may be left in when the machine goes
// down.
package crashtest

import (
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"testing"

	"repro/internal/checkpoint"
)

// ErrPowerCut is what every journal operation returns once the power is
// cut, until PowerLoss brings the disk back.
var ErrPowerCut = errors.New("crashtest: power cut")

// Disk is a journal file system whose durability is modelled rather than
// real: a Sync marks a file's bytes as surviving a power loss, a SyncDir
// marks the entries of the files created in that directory, and nothing
// else does. Neither fsyncs, so tests stay fast.
type Disk struct {
	mu       sync.Mutex
	files    map[string]*extent
	handles  []*file
	writes   int
	syncs    int
	creates  int
	dirSyncs int
	cutAt    int // write number at which the power fails; 0 = never
	down     bool
	boot     int        // bumped by PowerLoss; handles from an earlier boot stay dead
	tear     *rand.Rand // non-nil after Tear: unsynced bytes survive in part
}

// extent is one file's length, the prefix of it that is synced, and
// whether its directory entry is.
type extent struct {
	size, synced int64
	linked       bool
}

// Install routes every journal segment opened or created during the
// test through a fresh Disk and restores the previous opener when the
// test ends.
func Install(tb testing.TB) *Disk {
	d := &Disk{files: make(map[string]*extent)}
	prev := checkpoint.SetOpener(d)
	tb.Cleanup(func() { checkpoint.SetOpener(prev) })
	return d
}

// Writes returns the number of journal writes attempted so far.
func (d *Disk) Writes() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.writes
}

// Syncs returns the number of journal syncs so far.
func (d *Disk) Syncs() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.syncs
}

// Creates returns the number of files created so far.
func (d *Disk) Creates() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.creates
}

// DirSyncs returns the number of directory fsyncs so far.
func (d *Disk) DirSyncs() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.dirSyncs
}

// Handles returns the number of handles open on files in dir.
func (d *Disk) Handles(dir string) int {
	d.mu.Lock()
	defer d.mu.Unlock()
	n := 0
	for _, f := range d.handles {
		if filepath.Dir(f.path) == filepath.Clean(dir) {
			n++
		}
	}
	return n
}

// CutAt arms a power cut at the n-th journal write from now (n ≥ 1):
// that write and every journal operation after it fail with ErrPowerCut.
func (d *Disk) CutAt(n int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.cutAt = d.writes + n
}

// Tear switches the disk to torn writes, drawn from seed. The write the
// power is cut at still fails, but its bytes reach the file unsynced,
// and PowerLoss keeps a random prefix — anywhere from none to all — of
// each file's unsynced bytes instead of dropping them all. That is what
// a disk may hold after a multi-record write the machine went down in:
// any prefix of it, a torn final line included.
func (d *Disk) Tear(seed int64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.tear = rand.New(rand.NewSource(seed))
}

// Down reports whether the power has been cut.
func (d *Disk) Down() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.down
}

// PowerLoss ends the current boot: every file created since its
// directory's last fsync is gone, every other journal file is cut back
// to its synced length (after Tear, to a random point between its synced
// and its written length), handles opened before it fail from now on,
// and the disk accepts new files again, as after a restart.
func (d *Disk) PowerLoss() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	// Sorted, so a torn disk draws its cuts in the same order every run.
	paths := make([]string, 0, len(d.files))
	for path := range d.files {
		paths = append(paths, path)
	}
	sort.Strings(paths)
	for _, path := range paths {
		e := d.files[path]
		if !e.linked {
			if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
				return err
			}
			delete(d.files, path)
			continue
		}
		keep := e.synced
		if d.tear != nil && e.size > e.synced {
			keep += d.tear.Int63n(e.size - e.synced + 1)
		}
		if err := os.Truncate(path, keep); err != nil && !os.IsNotExist(err) {
			return err
		}
		e.size, e.synced = keep, keep
	}
	d.down, d.cutAt = false, 0
	d.boot++
	d.handles = nil
	return nil
}

// Open opens an existing segment for appending (checkpoint.Opener).
func (d *Disk) Open(path string) (checkpoint.File, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.down {
		return nil, ErrPowerCut
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		return nil, err
	}
	e, ok := d.files[path]
	if !ok {
		// Bytes already on disk when the file is first seen count as
		// synced, and so does its entry: they predate anything this
		// Disk could have lost.
		st, err := f.Stat()
		if err != nil {
			f.Close()
			return nil, err
		}
		e = &extent{size: st.Size(), synced: st.Size(), linked: true}
		d.files[path] = e
	}
	return d.handle(path, f, e), nil
}

// Create creates a new segment (checkpoint.Opener). Its directory entry
// survives a power loss only once its directory is synced.
func (d *Disk) Create(path string) (checkpoint.File, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.down {
		return nil, ErrPowerCut
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	d.creates++
	e := &extent{}
	d.files[path] = e
	return d.handle(path, f, e), nil
}

// SyncDir makes the entries of the files created in dir durable
// (checkpoint.Opener).
func (d *Disk) SyncDir(dir string) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.down {
		return ErrPowerCut
	}
	d.dirSyncs++
	dir = filepath.Clean(dir)
	for path, e := range d.files {
		if filepath.Dir(path) == dir {
			e.linked = true
		}
	}
	return nil
}

// Remove deletes a file (checkpoint.Opener). With the power cut nothing
// is deleted: a file created before the cut is then left to PowerLoss.
func (d *Disk) Remove(path string) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.down {
		return ErrPowerCut
	}
	delete(d.files, path)
	return os.Remove(path)
}

func (d *Disk) handle(path string, f *os.File, e *extent) *file {
	h := &file{d: d, f: f, path: path, ext: e, boot: d.boot}
	d.handles = append(d.handles, h)
	return h
}

// file is one open journal handle on a Disk.
type file struct {
	d    *Disk
	f    *os.File
	path string
	ext  *extent
	boot int
}

func (f *file) dead() bool { return f.d.down || f.boot != f.d.boot }

func (f *file) Write(p []byte) (int, error) {
	d := f.d
	d.mu.Lock()
	defer d.mu.Unlock()
	if f.dead() {
		return 0, ErrPowerCut
	}
	d.writes++
	if d.cutAt > 0 && d.writes >= d.cutAt {
		d.down = true
		if d.tear != nil {
			n, _ := f.f.Write(p)
			f.ext.size += int64(n)
		}
		return 0, ErrPowerCut
	}
	n, err := f.f.Write(p)
	f.ext.size += int64(n)
	return n, err
}

func (f *file) Sync() error {
	d := f.d
	d.mu.Lock()
	defer d.mu.Unlock()
	if f.dead() {
		return ErrPowerCut
	}
	d.syncs++
	f.ext.synced = f.ext.size
	return nil
}

func (f *file) Close() error {
	d := f.d
	d.mu.Lock()
	for i, h := range d.handles {
		if h == f {
			d.handles = append(d.handles[:i], d.handles[i+1:]...)
			break
		}
	}
	d.mu.Unlock()
	return f.f.Close()
}
