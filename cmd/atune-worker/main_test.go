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
const runMainEnv = "ATUNE_WORKER_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestFlagValidation pins atune-worker's rejection of invalid flag sets:
// each row must exit 1 with its log.Fatal text before the worker dials.
// The address is a closed port, so a row that got past validation would
// fail on the dial with another message.
func TestFlagValidation(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"zero batch", []string{"-batch", "0"}, "-batch 0 must be >= 1"},
		{"negative max-trials", []string{"-max-trials", "-1"}, "-max-trials -1 must be >= 0"},
		{"zero corpus", []string{"-corpus", "0"}, "-corpus 0 must be > 0"},
		{"zero threads", []string{"-threads", "0"}, "-threads 0 must be >= 1"},
		{"negative heartbeat", []string{"-heartbeat", "-1s"}, "-heartbeat, -sleep and -idle-retry must be >= 0"},
		{"negative sleep", []string{"-sleep", "-1ms"}, "-heartbeat, -sleep and -idle-retry must be >= 0"},
		{"negative idle-retry", []string{"-idle-retry", "-1ms"}, "-heartbeat, -sleep and -idle-retry must be >= 0"},
		{"zero probe", []string{"-probe", "0"}, "-probe 0s must be > 0"},
		{"negative calibrate", []string{"-calibrate", "-1"}, "-calibrate -1 must be >= 0"},
		{"non-numeric feature", []string{"-features", "4,x"}, `-features "4,x": bad feature "x"`},
		{"infinite feature", []string{"-features", "Inf"}, `-features "Inf": feature "Inf" must be finite`},
		{"empty feature", []string{"-features", "4,"}, `-features "4,": bad feature ""`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			cmd := exec.CommandContext(ctx, os.Args[0], append([]string{"-addr", "127.0.0.1:1"}, tc.args...)...)
			cmd.Env = append(os.Environ(), runMainEnv+"=1")
			var stderr bytes.Buffer
			cmd.Stderr = &stderr
			err := cmd.Run()
			if ctx.Err() != nil {
				t.Fatalf("atune-worker %v still running after 10s; stderr:\n%s", tc.args, stderr.String())
			}
			var exit *exec.ExitError
			if !errors.As(err, &exit) || exit.ExitCode() != 1 {
				t.Errorf("exit %v, want code 1; stderr:\n%s", err, stderr.String())
			}
			if !strings.Contains(stderr.String(), "atune-worker: "+tc.want) {
				t.Errorf("stderr does not contain %q:\n%s", tc.want, stderr.String())
			}
		})
	}
}
