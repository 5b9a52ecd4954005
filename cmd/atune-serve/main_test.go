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
)

// runMainEnv marks a child process of this test binary that should run
// main() with its own arguments instead of the tests.
const runMainEnv = "ATUNE_SERVE_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runServe runs main() in a child process with args and returns its
// exit code and stderr. A child still running after the deadline is
// killed and fails the test: every row here must die at startup.
func runServe(t *testing.T, args ...string) (int, string) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, os.Args[0], args...)
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	err := cmd.Run()
	if ctx.Err() != nil {
		t.Fatalf("atune-serve %v still running after 10s; stderr:\n%s", args, stderr.String())
	}
	var exit *exec.ExitError
	switch {
	case err == nil:
		return 0, stderr.String()
	case errors.As(err, &exit):
		return exit.ExitCode(), stderr.String()
	default:
		t.Fatalf("atune-serve %v: %v", args, err)
		return 0, ""
	}
}

// TestFlagValidation pins atune-serve's rejection of invalid flag sets,
// the exclusivity matrix between -contextual, -tenants, -shards and
// -max-resident included: each row must exit 1 with its log.Fatal text
// before the server listens.
func TestFlagValidation(t *testing.T) {
	dir := t.TempDir()
	empty := filepath.Join(dir, "empty.json")
	if err := os.WriteFile(empty, []byte("[]"), 0o644); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"epsilon zero", []string{"-epsilon", "0"}, "-epsilon 0 out of range (0, 100]"},
		{"epsilon over 100", []string{"-epsilon", "101"}, "-epsilon 101 out of range (0, 100]"},
		{"negative target", []string{"-target", "-1"}, "-target -1 must be >= 0"},
		{"zero every", []string{"-every", "0"}, "-every 0 must be > 0"},
		{"zero lease timeout", []string{"-lease-timeout", "0"}, "-lease-timeout 0s must be > 0"},
		{"zero max-inflight", []string{"-max-inflight", "0"}, "-max-inflight 0 must be > 0"},
		{"zero shards", []string{"-shards", "0"}, "-shards 0 must be > 0"},
		{"negative session cap", []string{"-session-cap", "-1"}, "-session-cap -1 and -global-cap 0 must be >= 0"},
		{"zero drain", []string{"-drain", "0"}, "-drain 0s must be > 0"},
		{"ref-algo past strmatch roster", []string{"-ref-algo", "8"}, "-ref-algo 8 out of range [0, 8) for workload strmatch"},
		{"ref-algo past sleep roster", []string{"-workload", "sleep", "-ref-algo", "3"}, "-ref-algo 3 out of range [0, 3) for workload sleep"},
		{"negative ref-algo", []string{"-ref-algo", "-1"}, "-ref-algo -1 out of range"},
		{"unknown workload", []string{"-workload", "bogus"}, `unknown workload "bogus" (want strmatch or sleep)`},
		{"max-resident without tenants", []string{"-max-resident", "2", "-checkpoint", dir}, "-max-resident only applies with -tenants"},
		{"max-resident without checkpoint", []string{"-max-resident", "2", "-tenants", "a=sleep"}, "-max-resident needs -checkpoint"},
		{"zero buckets", []string{"-contextual", "-buckets", "0"}, "-buckets 0 must be > 0"},
		{"contextual with tenants", []string{"-contextual", "-tenants", "a=sleep"}, "-contextual is exclusive with -tenants"},
		{"contextual with shards", []string{"-contextual", "-shards", "2"}, "-contextual is exclusive with -shards 2"},
		{"buckets without contextual", []string{"-buckets", "16"}, "-buckets and -split-min only apply with -contextual"},
		{"split-min without contextual", []string{"-split-min", "5"}, "-buckets and -split-min only apply with -contextual"},
		{"tenant entry without workload", []string{"-tenants", "a"}, `-tenants entry "a": want name=workload[/selector[/shards]]`},
		{"tenant entry without name", []string{"-tenants", "=sleep"}, `-tenants entry "=sleep": want name=workload[/selector[/shards]]`},
		{"tenant entry with four parts", []string{"-tenants", "a=sleep/egreedy:5/2/9"}, `-tenants entry "a=sleep/egreedy:5/2/9": want name=workload[/selector[/shards]]`},
		{"tenant shard count zero", []string{"-tenants", "a=sleep/egreedy:5/0"}, `-tenants entry "a=sleep/egreedy:5/0": bad shard count "0"`},
		{"duplicate tenant", []string{"-tenants", "a=sleep,a=strmatch"}, `-tenants names "a" twice`},
		{"tenant with unknown workload", []string{"-tenants", "a=bogus"}, `tenant a: tenant a: tenant: unknown workload "bogus" (want strmatch or sleep)`},
		{"empty tenant spec file", []string{"-tenants", "@" + empty}, "-tenants @" + empty + ": empty spec list"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			args := append([]string{"-addr", "127.0.0.1:0", "-stats", "0"}, tc.args...)
			code, stderr := runServe(t, args...)
			if code != 1 {
				t.Errorf("exit code %d, want 1; stderr:\n%s", code, stderr)
			}
			if !strings.Contains(stderr, "atune-serve: "+tc.want) {
				t.Errorf("stderr does not contain %q:\n%s", tc.want, stderr)
			}
		})
	}
}
