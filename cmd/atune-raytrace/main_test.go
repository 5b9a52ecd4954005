package main

import (
	"bytes"
	"context"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
	"time"
)

// runMainEnv marks a child process of this test binary that should run
// main() with its own arguments instead of the tests.
const runMainEnv = "ATUNE_RAYTRACE_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runCmd runs main() in a child process with args and returns its exit
// code and combined output.
func runCmd(t *testing.T, args ...string) (int, string) {
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
		t.Fatalf("atune-raytrace %v: %v", args, err)
		return 0, ""
	}
}

// TestSmallestFigure runs the command's smallest configuration,
// Figure 5 — its first figure — over two 16×16 frames of the least detailed scene, and expects exit 0 with the case study's header and the
// figure's title.
func TestSmallestFigure(t *testing.T) {
	code, out := runCmd(t, "-fig", "5", "-reps", "1", "-frames", "2", "-width", "16", "-height", "16", "-detail", "1")
	if code != 0 {
		t.Fatalf("exit %d\n%s", code, out)
	}
	for _, want := range []string{"Case study 2: raytracing (reps=1 frames=2 detail=1 res=16x16)", "Figure 5: tuning timeline"} {
		if !strings.Contains(out, want) {
			t.Errorf("output lacks %q:\n%s", want, out)
		}
	}
}

// TestUnknownFlag: a flag the command does not define exits non-zero
// before running anything.
func TestUnknownFlag(t *testing.T) {
	code, out := runCmd(t, "-no-such-flag")
	if code == 0 || !strings.Contains(out, "flag provided but not defined: -no-such-flag") {
		t.Fatalf("-no-such-flag: exit %d, want non-zero naming the flag\n%s", code, out)
	}
	if strings.Contains(out, "Case study") {
		t.Errorf("ran the case study despite the unknown flag:\n%s", out)
	}
}
