package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"text/tabwriter"
)

// compareDocs compares every document after the first against the first
// (the parent), one row per (end-to-end metric, workload) pair, and
// fails when any pair is worse than its bound or failures rose.
func compareDocs(w io.Writer, paths []string) error {
	if len(paths) < 2 {
		return fmt.Errorf("-compare needs a parent document and at least one more")
	}
	docs := make([]*document, len(paths))
	for i, p := range paths {
		buf, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		docs[i] = &document{}
		if err := json.Unmarshal(buf, docs[i]); err != nil {
			return fmt.Errorf("%s: %w", p, err)
		}
	}
	bad := 0
	for i := 1; i < len(docs); i++ {
		fmt.Fprintf(w, "parent %s (commit %s, seed %d) vs %s (commit %s, seed %d)\n",
			paths[0], docs[0].Meta.Commit, docs[0].Meta.Seed, paths[i], docs[i].Meta.Commit, docs[i].Meta.Seed)
		bad += comparePair(w, docs[0], docs[i])
		fmt.Fprintln(w)
	}
	if bad > 0 {
		return fmt.Errorf("%d pairs worse than their bound or with more failures", bad)
	}
	return nil
}

// comparePair prints one table and returns how many rows regressed. Each
// pair is judged at the metric's bound, not the wider fileBound.
func comparePair(w io.Writer, base, next *document) int {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "workload\tmetric\tparent median\tparent q1..q3\tnew median\tnew q1..q3\tdelta\tbound\tverdict\t")
	bad := 0
	for _, bw := range base.Workloads {
		nw := findWorkload(next, bw.Name)
		if nw == nil {
			fmt.Fprintf(tw, "%s\t(missing in new document)\t\t\t\t\t\t\t\t\n", bw.Name)
			bad++
			continue
		}
		for _, d := range endToEnd {
			a, b := metricRuns(bw.Runs, d.name), metricRuns(nw.Runs, d.name)
			aq1, am, aq3 := quartiles(a)
			bq1, bm, bq3 := quartiles(b)
			v := verdict(d, a, b)
			if d.only != "" && d.only != bw.Name {
				v = "n/a (" + d.only + " only)"
			}
			if v == "worse" {
				bad++
			}
			fmt.Fprintf(tw, "%s\t%s\t%.4g\t%.4g..%.4g\t%.4g\t%.4g..%.4g\t%+.1f%%\t%.0f%%\t%s\t\n",
				bw.Name, d.name, am, aq1, aq3, bm, bq1, bq3, 100*(bm-am)/am, 100*d.bound, v)
		}
		if fa, fb := failedFrac(bw.Runs), failedFrac(nw.Runs); fb > fa {
			fmt.Fprintf(tw, "%s\tfailed calls\t%.3g\t\t%.3g\t\t\t\tFAILURES ROSE\t\n", bw.Name, fa, fb)
			bad++
		}
	}
	tw.Flush()
	return bad
}

func findWorkload(doc *document, name string) *workloadDoc {
	for i := range doc.Workloads {
		if doc.Workloads[i].Name == name {
			return &doc.Workloads[i]
		}
	}
	return nil
}

func metricRuns(runs []result, name string) []float64 {
	out := make([]float64, 0, len(runs))
	for _, r := range runs {
		out = append(out, r.Metrics[name].Value)
	}
	return out
}

func failedFrac(runs []result) float64 {
	var failed, attempted int
	for _, r := range runs {
		failed += r.Failed
		attempted += r.Attempted
	}
	if attempted == 0 {
		return 0
	}
	return float64(failed) / float64(attempted)
}

// minGainRuns is how many runs each side needs before a pair can read
// better: a gain claim needs at least ten alternating pairs of runs.
const minGainRuns = 10

// verdict applies the no-regression rule to one (metric, workload) pair,
// parent runs a against new runs b:
//   - better: each side has at least minGainRuns runs, and every new run
//     beats every parent run, or the new runs win at least nine tenths of
//     the index-aligned pairs and the medians differ by more than the
//     parent's interquartile range;
//   - unresolved: otherwise, when either side's interquartile range is
//     wider than the bound;
//   - worse: the new median is worse than the parent's by more than the
//     bound;
//   - within: everything else.
func verdict(d metricDef, a, b []float64) string {
	if len(a) == 0 || len(b) == 0 {
		return "unresolved"
	}
	sign := 1.0 // positive = worse
	if d.better == "higher" {
		sign = -1
	}
	aq1, am, aq3 := quartiles(a)
	bq1, bm, bq3 := quartiles(b)
	worse := sign * (bm - am) / am
	spread := math.Max((aq3-aq1)/am, (bq3-bq1)/bm)

	allBetter := true
	for _, x := range a {
		for _, y := range b {
			if sign*(y-x) >= 0 {
				allBetter = false
			}
		}
	}
	wins, pairs := 0, min(len(a), len(b))
	for i := 0; i < pairs; i++ {
		if sign*(b[i]-a[i]) < 0 {
			wins++
		}
	}
	enough := pairs >= minGainRuns
	switch {
	case enough && allBetter:
		return "better"
	case enough && float64(wins) >= 0.9*float64(pairs) && -worse*am > aq3-aq1:
		return "better"
	case spread > d.bound:
		return "unresolved"
	case worse > d.bound:
		return "worse"
	}
	return "within"
}
