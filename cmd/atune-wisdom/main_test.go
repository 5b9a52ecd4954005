package main

import (
	"bytes"
	"context"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/nominal"
	"repro/internal/param"
)

// runMainEnv marks a child process of this test binary that should run
// main() with its own arguments instead of the tests.
const runMainEnv = "ATUNE_WISDOM_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runWisdom runs main() in a child process with args and returns its
// exit code and combined output.
func runWisdom(t *testing.T, args ...string) (int, string) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
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
		t.Fatalf("atune-wisdom %v: %v", args, err)
		return 0, ""
	}
}

func wantAll(t *testing.T, out string, wants ...string) {
	t.Helper()
	for _, w := range wants {
		if !strings.Contains(out, w) {
			t.Errorf("output lacks %q:\n%s", w, out)
		}
	}
}

// TestInspectSegments: inspect lists a fresh directory's segment with
// its snapshot lines and records and prints the resume point; on a
// segment with a damaged record line it names that line.
func TestInspectSegments(t *testing.T) {
	dir := t.TempDir()
	algos := []core.Algorithm{{Name: "fast"}, {Name: "slow"}}
	eng, err := core.NewConcurrentTuner(algos, nominal.NewEpsilonGreedy(0.10), nil, 1, core.WithCheckpoint(dir, 10))
	if err != nil {
		t.Fatal(err)
	}
	eng.RunPool(1, 35, func(algo int, _ param.Config) float64 { return float64(1 + algo) })
	if err := eng.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	seg := checkpoint.SegPath(dir, 1)

	code, out := runWisdom(t, "inspect", dir)
	if code != 0 {
		t.Fatalf("inspect %s: exit %d\n%s", dir, code, out)
	}
	wantAll(t, out, "seg-000000000001.log", "segment", "0,10,20,30,35", "resume point: snapshot at iteration 35, 0 records after it", `"algos"`)

	code, out = runWisdom(t, "inspect", seg)
	if code != 0 {
		t.Fatalf("inspect %s: exit %d\n%s", seg, code, out)
	}
	wantAll(t, out, "5 snapshot lines, 35 valid records, first damaged line none", "line 12: snapshot at iteration 10")

	// Damage the record on line 3 (iteration 1).
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(data, []byte("\n"))
	lines[2][20] ^= 0x01
	if err := os.WriteFile(seg, bytes.Join(lines, nil), 0o644); err != nil {
		t.Fatal(err)
	}
	code, out = runWisdom(t, "inspect", seg)
	if code != 0 {
		t.Fatalf("inspect %s: exit %d\n%s", seg, code, out)
	}
	wantAll(t, out, "5 snapshot lines, 34 valid records, first damaged line 3")
}

// TestInspectV2Fixture: inspect still reads a format-2 directory and its
// snapshot file.
func TestInspectV2Fixture(t *testing.T) {
	fixture := filepath.Join("..", "..", "internal", "checkpoint", "testdata", "engine-v2")
	code, out := runWisdom(t, "inspect", fixture)
	if code != 0 {
		t.Fatalf("inspect %s: exit %d\n%s", fixture, code, out)
	}
	wantAll(t, out, "snap-000000000000.ckpt", "v2 snapshot", "wal-000000000000.log", "v2 journal",
		"resume point: snapshot at iteration 0, 44 records after it")

	code, out = runWisdom(t, "inspect", filepath.Join(fixture, "snap-000000000000.ckpt"))
	if code != 0 {
		t.Fatalf("inspect snapshot: exit %d\n%s", code, out)
	}
	wantAll(t, out, "valid (format 2")

	code, out = runWisdom(t, "inspect", filepath.Join(fixture, "state.json"))
	if code != 1 || !strings.Contains(out, "is neither a checkpoint directory") {
		t.Fatalf("inspect of a non-checkpoint file: exit %d\n%s", code, out)
	}
}
