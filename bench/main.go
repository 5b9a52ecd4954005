// Command bench is the repository's benchmark: four closed-loop
// workloads of the distributed tuning service over loopback TCP, each
// in its own process, measured end to end untraced and layer by layer
// in a traced run. See README.md for the metrics and workloads.
//
// Usage (from the repository root; bench/run.sh builds and runs it):
//
//	bench -workload NAME -seed N -seconds S -trace 0|1 [-spans FILE]
//	bench -seed N -seconds S -out FILE [-reps R]
//	bench -compare BASE.json NEW.json [MORE.json…]
//
// The first form runs one workload and prints its metrics as the last
// line of standard output: end-to-end metrics with -trace 0, per-layer
// metrics with -trace 1. The second runs every workload R times
// untraced and once traced, each run a child process of its own, and
// writes one document with run metadata. The third compares documents
// against the first by the no-regression rule.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
)

func main() {
	var (
		name    = flag.String("workload", "", "run one workload and print its metrics (empty = every workload, see -out)")
		seed    = flag.Int64("seed", 1, "seed for the engines, the corpora and the DNA pattern offset")
		seconds = flag.Int("seconds", refSeconds, "run length: scales each workload's fixed trial budget by seconds / 20")
		trace   = flag.Int("trace", 0, "0 = end-to-end metrics (untraced), 1 = per-layer metrics (traced)")
		tmp     = flag.String("tmp", filepath.Join(".bench_build", "tmp"), "directory for durable state and journals")
		spans   = flag.String("spans", "", "write the traced run's spans here as JSON lines (with -trace 1)")
		out     = flag.String("out", "", "write the document of a run over every workload here")
		reps    = flag.Int("reps", 5, "untraced runs per workload (with -out)")
		compare = flag.Bool("compare", false, "compare the documents named as arguments")
	)
	flag.Parse()
	// The benchmark is defined at GOMAXPROCS = the machine's CPU count.
	runtime.GOMAXPROCS(runtime.NumCPU())

	var err error
	switch {
	case *compare:
		err = compareDocs(os.Stdout, flag.Args())
	case *name != "":
		err = runOne(*name, *seed, *seconds, *trace, *tmp, *spans)
	case *out != "":
		err = runAll(*seed, *seconds, *reps, *tmp, *out)
	default:
		err = fmt.Errorf("want -workload, -out or -compare")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// runOne runs one workload and prints its result line.
func runOne(name string, seed int64, seconds, trace int, tmp, spans string) error {
	w := workloadByName(name)
	switch {
	case w == nil:
		return fmt.Errorf("unknown workload %q", name)
	case seconds < 1:
		return fmt.Errorf("-seconds %d must be ≥ 1", seconds)
	case trace != 0 && trace != 1:
		return fmt.Errorf("-trace %d must be 0 or 1", trace)
	}
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(tmp, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	in := &inputs{seed: seed}
	if w.name == "strmatch_ctx" {
		in.sm = newSMInputs(seed, 1<<20)
	}
	budget := w.budgetFor(seconds)
	var (
		res      *result
		failures []string
	)
	if trace == 0 {
		m, err := runWorkload(w, in, budget, 9, dir, nil)
		if err != nil {
			return err
		}
		res, failures = newResult(endToEndMetrics(m), endToEnd, []*measurement{m})
	} else {
		values, runs, err := traceRun(w, in, budget, dir, spans)
		if err != nil {
			return err
		}
		res, failures = newResult(values, perLayer, runs)
	}
	meta, err := json.Marshal(runMeta(seed, seconds, dir))
	if err != nil {
		return err
	}
	fmt.Printf("# %s budget=%d trace=%d meta=%s\n", w.name, budget, trace, meta)
	for _, f := range failures {
		fmt.Printf("# check failed: %s\n", f)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return fmt.Errorf("%s: %d correctness checks failed", w.name, len(failures))
	}
	return nil
}

// meta is the run-metadata block every output carries.
type meta struct {
	GoVersion  string         `json:"go_version"`
	GOOS       string         `json:"goos"`
	GOARCH     string         `json:"goarch"`
	GOMAXPROCS int            `json:"gomaxprocs"`
	NumCPU     int            `json:"nproc"`
	Commit     string         `json:"commit"`
	Seed       int64          `json:"seed"`
	Seconds    int            `json:"seconds"`
	Budgets    map[string]int `json:"budgets"`
	TempFS     string         `json:"temp_fs"`
	Transport  string         `json:"transport"`
}

func runMeta(seed int64, seconds int, tmp string) meta {
	m := meta{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Commit:     commit(),
		Seed:       seed,
		Seconds:    seconds,
		Budgets:    make(map[string]int),
		TempFS:     fsType(tmp),
		Transport:  "loopback",
	}
	for _, w := range workloads {
		m.Budgets[w.name] = w.budgetFor(seconds)
	}
	return m
}

// commit returns the HEAD commit of the working directory's repository,
// without looking above the working directory, or "unknown".
func commit() string {
	wd, err := os.Getwd()
	if err != nil {
		return "unknown"
	}
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(wd))
	out, err := cmd.Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// fsType names the filesystem holding dir, from statfs's magic number.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint64(st.Type) {
	case 0xEF53:
		return "ext4"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x01021994:
		return "tmpfs"
	case 0x794C7630:
		return "overlayfs"
	case 0x6969:
		return "nfs"
	}
	return "0x" + strconv.FormatUint(uint64(st.Type), 16)
}

// document is the output of a run over every workload.
type document struct {
	Meta      meta          `json:"meta"`
	Reps      int           `json:"reps"`
	Workloads []workloadDoc `json:"workloads"`
}

type workloadDoc struct {
	Name   string   `json:"name"`
	Runs   []result `json:"runs"`   // untraced, end-to-end metrics
	Traced result   `json:"traced"` // per-layer metrics
}

// runAll runs every workload reps times untraced and once traced, each
// run in a child process of this program, and writes the document.
func runAll(seed int64, seconds, reps int, tmp, out string) error {
	if reps < 1 {
		return fmt.Errorf("-reps %d must be ≥ 1", reps)
	}
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return err
	}
	doc := document{Meta: runMeta(seed, seconds, tmp), Reps: reps}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	child := func(w *workload, trace int, spans string) (*result, error) {
		args := []string{"-workload", w.name, "-seed", strconv.FormatInt(seed, 10),
			"-seconds", strconv.Itoa(seconds), "-trace", strconv.Itoa(trace), "-tmp", tmp}
		if spans != "" {
			args = append(args, "-spans", spans)
		}
		cmd := exec.Command(self, args...)
		cmd.Stderr = os.Stderr
		stdout, err := cmd.Output()
		res, perr := lastResult(stdout)
		if err != nil {
			return res, fmt.Errorf("%s trace=%d: %w", w.name, trace, err)
		}
		return res, perr
	}
	failed := false
	for _, w := range workloads {
		wd := workloadDoc{Name: w.name}
		for i := 0; i < reps; i++ {
			res, err := child(w, 0, "")
			if res == nil {
				return err
			}
			failed = failed || err != nil
			wd.Runs = append(wd.Runs, *res)
			fmt.Fprintf(os.Stderr, "%s run %d/%d: %s\n", w.name, i+1, reps, summary(res, endToEnd))
		}
		res, err := child(w, 1, strings.TrimSuffix(out, ".json")+"."+w.name+".spans.jsonl")
		if res == nil {
			return err
		}
		failed = failed || err != nil
		wd.Traced = *res
		doc.Workloads = append(doc.Workloads, wd)
	}
	buf, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(out, append(buf, '\n'), 0o644); err != nil {
		return err
	}
	if failed {
		return fmt.Errorf("some runs failed their correctness checks; see %s", out)
	}
	return nil
}

// lastResult parses the result line a single-workload run prints last.
func lastResult(stdout []byte) (*result, error) {
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(stdout))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if line := bytes.TrimSpace(sc.Bytes()); len(line) > 0 {
			last = append(last[:0], line...)
		}
	}
	var res result
	if err := json.Unmarshal(last, &res); err != nil {
		return nil, fmt.Errorf("no result line: %w", err)
	}
	return &res, nil
}

func summary(res *result, defs []metricDef) string {
	var b strings.Builder
	for _, d := range defs {
		fmt.Fprintf(&b, "%s=%.4g ", d.name, res.Metrics[d.name].Value)
	}
	return strings.TrimSpace(b.String())
}
