package tenant

import (
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/core"
)

// copyTree copies the directory tree src into dst.
func copyTree(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		if d.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestShardedDirectoryResumes: a tenant directory written by a 2-shard
// engine, before multi-shard selection was retired, still resumes
// exactly. testdata/sharded-root holds one tenant, "sharded", whose
// spec.json carries "shards":2,"merge_every":8 and whose ckpt/ holds the
// journal segment that engine wrote: 44 trials of the sleep workload,
// leased four at a time and completed in reverse lease order, with
// snapshots every 10 (so 4 trials replay from journal records). Its
// trial IDs lie above 2³², where the shards issued them. At generation
// the engine read 44 iterations, counts [3 39 2] and best arm 1 at 1.1.
func TestShardedDirectoryResumes(t *testing.T) {
	root := t.TempDir()
	copyTree(t, filepath.Join("testdata", "sharded-root"), root)

	r, err := NewRegistry(Config{Root: root})
	if err != nil {
		t.Fatal(err)
	}
	if names := r.Names(); !slices.Equal(names, []string{"sharded"}) {
		t.Fatalf("rediscovered %v, want [sharded]", names)
	}
	// The spec without the retired fields is the same spec: the two
	// fields left the hash's canonical form only as their one remaining
	// values, so the directory's tuning semantics are unchanged.
	same := Spec{Name: "sharded", Workload: "sleep", Engine: core.EngineSpec{Seed: 7, SnapshotEvery: 10}}
	if err := r.Register(same); err != nil {
		t.Fatalf("re-register without shards/merge_every: %v", err)
	}

	eng, _, release, err := r.Acquire("sharded")
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	if got := eng.Iterations(); got != 44 {
		t.Fatalf("resumed at %d iterations, want 44", got)
	}
	if got := eng.Counts(); !slices.Equal(got, []int{3, 39, 2}) {
		t.Fatalf("resumed counts %v, want [3 39 2]", got)
	}
	if algo, _, val := eng.Best(); algo != 1 || val != 1.1 {
		t.Fatalf("resumed best arm %d at %v, want 1 at 1.1", algo, val)
	}
}

// TestFormat2TenantRefused: a rediscovered tenant whose checkpoint
// directory holds a format-2 checkpoint (checkpoint's testdata/engine-v2)
// fails its resume with the error naming the format, for a flat and a
// contextual spec alike, and the format-2 files are still there after.
// Both keep their journal in ckpt/ itself.
func TestFormat2TenantRefused(t *testing.T) {
	for _, tc := range []struct {
		spec Spec
		sub  string // where the engine keeps its journal under ckpt/
	}{
		{Spec{Name: "flat", Workload: "sleep", Engine: core.EngineSpec{Seed: 7}}, ""},
		{Spec{Name: "ctx", Workload: "sleep", Engine: core.EngineSpec{Seed: 7},
			Contexts: &Contexts{Buckets: 1, SplitMin: 32}}, ""},
	} {
		root := t.TempDir()
		first, err := NewRegistry(Config{Root: root})
		if err != nil {
			t.Fatal(err)
		}
		if err := first.Register(tc.spec); err != nil {
			t.Fatal(err)
		}
		ckpt := filepath.Join(root, tc.spec.Name, "ckpt", tc.sub)
		copyTree(t, filepath.Join("..", "checkpoint", "testdata", "engine-v2"), ckpt)

		r, err := NewRegistry(Config{Root: root})
		if err != nil {
			t.Fatal(err)
		}
		if _, _, _, err := r.Acquire(tc.spec.Name); !errors.Is(err, checkpoint.ErrFormat2) {
			t.Fatalf("%s: resume over a format-2 directory: %v, want the format-2 error", tc.spec.Name, err)
		}
		for _, name := range []string{"snap-000000000000.ckpt", "wal-000000000000.log"} {
			if _, err := os.Stat(filepath.Join(ckpt, name)); err != nil {
				t.Errorf("%s: %s gone after the refused resume: %v", tc.spec.Name, name, err)
			}
		}
		if segs := checkpoint.Segments(ckpt); len(segs) != 0 {
			t.Errorf("%s: refused resume wrote segments %v", tc.spec.Name, segs)
		}
	}
}
