package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/checkpoint"
)

// runMainEnv marks a child process of this test binary that should run
// main() with its own arguments instead of the tests.
const runMainEnv = "ATUNE_DEMO_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runDemo runs main() in a child process with args and returns its exit
// code and combined output.
func runDemo(t *testing.T, args ...string) (int, string) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, os.Args[0], args...)
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &out
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case err == nil:
		return 0, out.String()
	case errors.As(err, &exit):
		return exit.ExitCode(), out.String()
	default:
		t.Fatalf("atune-demo %v: %v", args, err)
		return 0, ""
	}
}

// TestCheckpointResume: a -checkpoint run of 60 iterations followed by
// a run of 120 over the same directory resumes at iteration 60, for the
// sequential loop and the trial engine alike, and leaves journal
// segments only.
func TestCheckpointResume(t *testing.T) {
	for _, workers := range []string{"1", "4"} {
		dir := t.TempDir()
		if code, out := runDemo(t, "-checkpoint", dir, "-workers", workers, "-iters", "60"); code != 0 {
			t.Fatalf("-workers %s: first run exit %d\n%s", workers, code, out)
		}
		code, out := runDemo(t, "-checkpoint", dir, "-workers", workers, "-iters", "120")
		if code != 0 {
			t.Fatalf("-workers %s: second run exit %d\n%s", workers, code, out)
		}
		if want := fmt.Sprintf("resumed from %s at iteration 60", dir); !strings.Contains(out, want) {
			t.Errorf("-workers %s: output lacks %q:\n%s", workers, want, out)
		}
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(entries) == 0 {
			t.Errorf("-workers %s: the directory is empty", workers)
		}
		for _, e := range entries {
			if !strings.HasPrefix(e.Name(), "seg-") || !strings.HasSuffix(e.Name(), ".log") {
				t.Errorf("-workers %s: %s left beside the journal segments", workers, e.Name())
			}
		}
	}
}

// TestFormat2DirectoryRefused: a -checkpoint directory holding a
// format-2 checkpoint (the snap-*/wal-* files of checkpoint's
// testdata/engine-v2) makes the demo exit 1 with the format-2 error,
// without starting fresh over it.
func TestFormat2DirectoryRefused(t *testing.T) {
	fixture := filepath.Join("..", "..", "internal", "checkpoint", "testdata", "engine-v2")
	dir := t.TempDir()
	names := []string{"snap-000000000000.ckpt", "wal-000000000000.log"}
	for _, name := range names {
		data, err := os.ReadFile(filepath.Join(fixture, name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for _, workers := range []string{"1", "4"} {
		code, out := runDemo(t, "-checkpoint", dir, "-workers", workers)
		if code != 1 || !strings.Contains(out, checkpoint.ErrFormat2.Error()) {
			t.Errorf("-workers %s: exit %d, want 1 with the format-2 error:\n%s", workers, code, out)
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != len(names) {
		t.Errorf("directory holds %d entries after the refused runs, want the %d format-2 files alone", len(entries), len(names))
	}
}
