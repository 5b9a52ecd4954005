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
	"repro/internal/ctxtune"
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
	eng, err := core.NewTuner(algos, nominal.NewEpsilonGreedy(0.10), nil, 1, core.WithCheckpoint(dir, 10))
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
	// 35 completions and the trial-ID mark the first lease journaled.
	wantAll(t, out, "5 snapshot lines, 36 valid records, first damaged line none", "line 13: snapshot at iteration 10")

	// Damage the record on line 3 (iteration 0).
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
	wantAll(t, out, "5 snapshot lines, 35 valid records, first damaged line 3")
}

// TestInspectV2Fixture: inspect refuses the format-2 fixture directory
// and each of its files with the format-2 error, as a resume does.
func TestInspectV2Fixture(t *testing.T) {
	fixture := filepath.Join("..", "..", "internal", "checkpoint", "testdata", "engine-v2")
	for _, path := range []string{
		fixture,
		filepath.Join(fixture, "snap-000000000000.ckpt"),
		filepath.Join(fixture, "wal-000000000000.log"),
	} {
		code, out := runWisdom(t, "inspect", path)
		if code != 1 || !strings.Contains(out, checkpoint.ErrFormat2.Error()) {
			t.Errorf("inspect %s: exit %d, want 1 with the format-2 error\n%s", path, code, out)
		}
	}

	state := filepath.Join("..", "..", "internal", "checkpoint", "testdata", "engine-v3", "state.json")
	code, out := runWisdom(t, "inspect", state)
	if code != 1 || !strings.Contains(out, "is neither a checkpoint directory") {
		t.Fatalf("inspect of a non-checkpoint file: exit %d\n%s", code, out)
	}
}

// TestInspectContextualDirectory: a contextual engine's directory reads
// like a flat one — its segment and resume point — and lists each record
// after the resume point behind its context tag, each replica's birth
// and each split.
func TestInspectContextualDirectory(t *testing.T) {
	dir := t.TempDir()
	eng, err := ctxtune.New(ctxtune.Config{
		Algos:       []core.Algorithm{{Name: "fast"}, {Name: "slow"}},
		Selector:    func() nominal.Selector { return nominal.NewEpsilonGreedy(0.10) },
		Seed:        1,
		Partitioner: ctxtune.NewTree(1, 8, 1.5),
		Dir:         dir,
		Every:       1000, // every record stays after the opening snapshot
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		f, scale := ctxtune.Features{1}, 1.0
		if i%2 == 1 {
			f, scale = ctxtune.Features{100}, 100
		}
		trials, err := eng.LeaseNFor(f, 1)
		if err != nil {
			t.Fatal(err)
		}
		if errs := eng.CompleteN([]core.TrialResult{{ID: trials[0].ID, Value: scale * float64(1+trials[0].Algo)}}); errs[0] != nil {
			t.Fatal(errs[0])
		}
	}
	if len(eng.Contexts()) < 3 {
		t.Fatalf("contexts %v: the stream never split", eng.Contexts())
	}
	code, out := runWisdom(t, "inspect", dir)
	if code != 0 {
		t.Fatalf("inspect %s: exit %d\n%s", dir, code, out)
	}
	wantAll(t, out, "seg-000000000001.log", "resume point: snapshot at iteration 0,",
		"context b0 born (iteration 0)", `context b0: {"iter":1,"algo":`, `"ctx":"b0"}`,
		"split b0 at feature 0, bin ", "context b0.lo born", "context b0.hi: {")

	code, out = runWisdom(t, "inspect", checkpoint.SegPath(dir, 1))
	if code != 0 {
		t.Fatalf("inspect segment: exit %d\n%s", code, out)
	}
	wantAll(t, out, "1 snapshot lines", "context b0 born (iteration 0)", "split b0 at feature 0")
}

// TestInspectRefusesEarlierContextLayout: inspect refuses a directory in
// the earlier contextual layout with the error a resume gives, exit 1,
// and leaves it as it was.
func TestInspectRefusesEarlierContextLayout(t *testing.T) {
	dir := t.TempDir()
	global := filepath.Join(dir, "global")
	if err := os.Mkdir(global, 0o755); err != nil {
		t.Fatal(err)
	}
	code, out := runWisdom(t, "inspect", dir)
	if code != 1 || !strings.Contains(out, checkpoint.ErrContextLayout.Error()) || !strings.Contains(out, global) {
		t.Fatalf("inspect %s: exit %d, want 1 with the earlier-layout error naming %s\n%s", dir, code, global, out)
	}
	if _, err := os.Stat(global); err != nil {
		t.Fatalf("global/ gone after the refusal: %v", err)
	}
}
