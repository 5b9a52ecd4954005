package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/tuned"
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

// mainCmd returns a command that runs main() with args in a child
// process of this test binary.
func mainCmd(ctx context.Context, args ...string) *exec.Cmd {
	cmd := exec.CommandContext(ctx, os.Args[0], args...)
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	return cmd
}

// runServe runs main() in a child process with args and returns its
// exit code and stderr. A child still running after the deadline is
// killed and fails the test: every row here must die at startup.
func runServe(t *testing.T, args ...string) (int, string) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	cmd := mainCmd(ctx, args...)
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
// the checks that -max-resident, -buckets and -split-min need their
// companion flags included: each row must exit 1 with its log.Fatal
// text before the server listens.
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
		{"negative session cap", []string{"-session-cap", "-1"}, "-session-cap -1 and -global-cap 0 must be >= 0"},
		{"zero drain", []string{"-drain", "0"}, "-drain 0s must be > 0"},
		{"ref-algo past strmatch roster", []string{"-ref-algo", "8"}, "-ref-algo 8 out of range [0, 8) for workload strmatch"},
		{"ref-algo past sleep roster", []string{"-workload", "sleep", "-ref-algo", "3"}, "-ref-algo 3 out of range [0, 3) for workload sleep"},
		{"negative ref-algo", []string{"-ref-algo", "-1"}, "-ref-algo -1 out of range"},
		{"unknown workload", []string{"-workload", "bogus"}, `unknown workload "bogus" (want strmatch or sleep)`},
		{"max-resident without tenants", []string{"-max-resident", "2", "-checkpoint", dir}, "-max-resident only applies with -tenants"},
		{"max-resident without checkpoint", []string{"-max-resident", "2", "-tenants", "a=sleep"}, "-max-resident needs -checkpoint"},
		{"zero buckets", []string{"-contextual", "-buckets", "0"}, "-buckets 0 must be > 0"},
		{"buckets without contextual", []string{"-buckets", "16"}, "-buckets and -split-min only apply with -contextual"},
		{"split-min without contextual", []string{"-split-min", "5"}, "-buckets and -split-min only apply with -contextual"},
		{"tenant entry without workload", []string{"-tenants", "a"}, `-tenants entry "a": want name=workload[/selector]`},
		{"tenant entry without name", []string{"-tenants", "=sleep"}, `-tenants entry "=sleep": want name=workload[/selector]`},
		{"tenant entry with three parts", []string{"-tenants", "a=sleep/egreedy:5/2"}, `-tenants entry "a=sleep/egreedy:5/2": want name=workload[/selector]`},
		{"tenant entry with four parts", []string{"-tenants", "a=sleep/egreedy:5/2/9"}, `-tenants entry "a=sleep/egreedy:5/2/9": want name=workload[/selector]`},
		{"duplicate tenant", []string{"-tenants", "a=sleep,a=strmatch"}, `-tenants names "a" twice`},
		{"tenant with unknown workload", []string{"-tenants", "a=bogus"}, `tenant a: unknown workload "bogus" (want strmatch or sleep)`},
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

// TestShardsFlagRetired: selection has one shard, and -shards is no
// longer a flag, so a command line that still asks for shards dies at
// startup with the flag package's usage error.
func TestShardsFlagRetired(t *testing.T) {
	code, stderr := runServe(t, "-addr", "127.0.0.1:0", "-stats", "0", "-shards", "2")
	if code != 2 || !strings.Contains(stderr, "flag provided but not defined: -shards") {
		t.Fatalf("-shards 2: exit code %d, stderr:\n%s", code, stderr)
	}
}

// server is atune-serve running in a child process, its log lines
// collected as they arrive.
type server struct {
	t     *testing.T
	cmd   *exec.Cmd
	lines chan string // closed at the child's EOF; buffered past the few dozen lines a run logs, so the reader never waits on the test
	log   []string    // every line read so far
	addr  string      // the address the child bound
}

// startServe starts main() with args in a child process and waits for
// its listening line. The child is killed at cleanup if still running.
func startServe(t *testing.T, args ...string) *server {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	t.Cleanup(cancel)
	cmd := mainCmd(ctx, append([]string{"-addr", "127.0.0.1:0", "-stats", "0"}, args...)...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	s := &server{t: t, cmd: cmd, lines: make(chan string, 256)}
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			s.lines <- sc.Text()
		}
		close(s.lines)
	}()
	line := s.waitFor("listening on ")
	s.addr = line[strings.LastIndex(line, " ")+1:]
	return s
}

// waitFor returns the first line from here on that contains want,
// failing the test if none arrives within 10 s or the child exits first.
func (s *server) waitFor(want string) string {
	s.t.Helper()
	deadline := time.After(10 * time.Second)
	for {
		select {
		case line, ok := <-s.lines:
			if !ok {
				s.t.Fatalf("atune-serve exited without logging %q; log:\n%s", want, strings.Join(s.log, "\n"))
			}
			s.log = append(s.log, line)
			if strings.Contains(line, want) {
				return line
			}
		case <-deadline:
			s.t.Fatalf("no %q from atune-serve within 10s; log:\n%s", want, strings.Join(s.log, "\n"))
		}
	}
}

// stop sends SIGTERM and waits for the child to exit 0, returning its
// whole log.
func (s *server) stop() string {
	s.t.Helper()
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		s.t.Fatal(err)
	}
	for line := range s.lines {
		s.log = append(s.log, line)
	}
	out := strings.Join(s.log, "\n")
	if err := s.cmd.Wait(); err != nil {
		s.t.Fatalf("atune-serve after SIGTERM: %v; log:\n%s", err, out)
	}
	return out
}

// TestServeDrainResume drives the one-engine serving path end to end:
// trials over the wire, a SIGTERM drain that prints the drift summary and
// the verdict, and a restart on the same -checkpoint directory that
// resumes at the trial the drain checkpointed.
func TestServeDrainResume(t *testing.T) {
	dir := t.TempDir()
	args := []string{"-workload", "sleep", "-checkpoint", dir, "-drift"}
	const n = 30
	srv := startServe(t, args...)
	c, err := tuned.Dial(srv.addr)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		lb, err := c.LeaseN(1)
		if err != nil || len(lb.Trials) != 1 {
			t.Fatalf("lease %d: %d trials, %v", i, len(lb.Trials), err)
		}
		tr := lb.Trials[0]
		applied, _, err := c.CompleteN(lb.Epoch, []core.TrialResult{{ID: tr.ID, Value: float64(1 + tr.Algo)}})
		if err != nil || len(applied) != 1 {
			t.Fatalf("complete %d: applied %v, %v", i, applied, err)
		}
	}
	c.Close()
	out := srv.stop()
	for _, want := range []string{"drift summary:", fmt.Sprintf("best after %d trials", n)} {
		if !strings.Contains(out, want) {
			t.Errorf("shutdown log lacks %q:\n%s", want, out)
		}
	}

	srv = startServe(t, args...)
	if !strings.Contains(strings.Join(srv.log, "\n"), fmt.Sprintf("resumed session from %s at trial %d", dir, n)) {
		t.Errorf("restart did not resume at trial %d:\n%s", n, strings.Join(srv.log, "\n"))
	}
	srv.stop()
}

// TestServeTenants: with -tenants the same serving path lists the named
// tenants and the "default" tenant the base flags add.
func TestServeTenants(t *testing.T) {
	srv := startServe(t, "-workload", "sleep", "-tenants", "a=sleep")
	c, err := tuned.Dial(srv.addr)
	if err != nil {
		t.Fatal(err)
	}
	view, err := c.Tenants()
	c.Close()
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, ts := range view.Tenants {
		names = append(names, ts.Name)
	}
	if len(names) != 2 || names[0] != "a" || names[1] != "default" {
		t.Errorf("tenants %v, want [a default]", names)
	}
	srv.stop()
}

// TestServeContextualTenants: -contextual applies to the tenants of a
// -tenants flag list. A client on tenant a leasing under a feature
// vector sees its contexts in the stats; after a SIGTERM drain and a
// restart over the same directory, tenant a is rediscovered as
// contextual and comes back with its contexts and trials, counted as a
// restart.
func TestServeContextualTenants(t *testing.T) {
	dir := t.TempDir()
	args := []string{"-workload", "sleep", "-contextual", "-tenants", "a=sleep", "-checkpoint", dir}
	const n = 20
	srv := startServe(t, args...)
	c, err := tuned.Dial(srv.addr, tuned.WithTenant("a"), tuned.WithFeatures([]float64{4}))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		lb, err := c.LeaseN(1)
		if err != nil || len(lb.Trials) != 1 {
			t.Fatalf("lease %d: %d trials, %v", i, len(lb.Trials), err)
		}
		tr := lb.Trials[0]
		applied, _, err := c.CompleteN(lb.Epoch, []core.TrialResult{{ID: tr.ID, Value: float64(1 + tr.Algo)}})
		if err != nil || len(applied) != 1 {
			t.Fatalf("complete %d: applied %v, %v", i, applied, err)
		}
	}
	st, err := c.Stats()
	c.Close()
	if err != nil {
		t.Fatal(err)
	}
	if st.Contexts == 0 || st.Iterations != n {
		t.Fatalf("tenant a: %d contexts, %d iterations; want > 0 and %d", st.Contexts, st.Iterations, n)
	}
	srv.stop()

	srv = startServe(t, args...)
	defer srv.stop()
	if log := strings.Join(srv.log, "\n"); !strings.Contains(log, "rediscovered 2 tenant(s)") {
		t.Errorf("restart did not rediscover both tenants:\n%s", log)
	}
	c, err = tuned.Dial(srv.addr, tuned.WithTenant("a"))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	again, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if again.Contexts != st.Contexts || again.Iterations != n {
		t.Errorf("restarted tenant a: %d contexts, %d iterations; want %d and %d",
			again.Contexts, again.Iterations, st.Contexts, n)
	}
	view, err := c.Tenants()
	if err != nil {
		t.Fatal(err)
	}
	for _, ts := range view.Tenants {
		if ts.Name == "a" && ts.Restarts != 1 {
			t.Errorf("tenant a restarts %d, want 1", ts.Restarts)
		}
	}
}
