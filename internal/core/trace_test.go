package core

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/guard"
	"repro/internal/nominal"
	"repro/internal/param"
	"repro/internal/search"
)

// traceIters is the length of every golden decision trace.
const traceIters = 300

// traceCase is one row of the golden decision traces: a tuner setup and
// the measurement it is driven with.
type traceCase struct {
	name     string
	selector func() nominal.Selector
	factory  string // search.NewByName name; "" is DefaultFactory
	opts     func() []Option
	measure  func() Measure // fresh per run: some measurements count calls
}

// traceMeasure is engineMeasure, with every arm's cost scaled after
// shiftAt calls (never, when shiftAt is 0) and the "other" arm made the
// cheapest by the shift, and with every call in [failFrom, failTo)
// returning failing (a non-finite value or a panic).
func traceMeasure(shiftAt, failFrom, failTo int, failing func() float64) func() Measure {
	return func() Measure {
		calls := 0
		return func(algo int, cfg param.Config) float64 {
			calls++
			if calls > failFrom && calls <= failTo {
				return failing()
			}
			v := engineMeasure(algo, cfg)
			if shiftAt > 0 && calls > shiftAt {
				if algo == 2 {
					v /= 4
				} else {
					v *= 1.5
				}
			}
			return v
		}
	}
}

func nanValue() float64   { return math.NaN() }
func panicValue() float64 { panic("injected trace fault") }

// traceCases covers every package selector, guard.Quarantine around one
// of them, and every phase-one strategy, with the drift watchdog, the
// guard and the degradation mode on in some rows.
func traceCases() []traceCase {
	plain := traceMeasure(0, 0, 0, nil)
	none := func() []Option { return nil }
	sel := func(name string) func() nominal.Selector {
		return func() nominal.Selector {
			s, err := nominal.NewByName(name)
			if err != nil {
				panic(err)
			}
			return s
		}
	}
	cases := []traceCase{}
	for _, name := range []string{"egreedy:5", "egreedy:10", "egreedy:20", "greedygradient:10", "gradient", "optimum", "auc", "random", "roundrobin", "ucb1", "softmax:0.5"} {
		cases = append(cases, traceCase{name: "sel-" + strings.ReplaceAll(name, ":", "-"), selector: sel(name), opts: none, measure: plain})
	}
	for _, name := range search.Names() {
		cases = append(cases, traceCase{name: "strat-" + name, selector: sel("optimum"), factory: name, opts: none, measure: plain})
	}
	drift := func() []Option { return []Option{WithDriftWatchdog(DefaultDriftConfig())} }
	cases = append(cases,
		traceCase{name: "quarantine-guard", selector: func() nominal.Selector { return guard.NewQuarantine(nominal.NewEpsilonGreedy(0.10)) },
			opts: func() []Option { return []Option{WithGuard()} }, measure: traceMeasure(0, 40, 70, panicValue)},
		traceCase{name: "drift-decay", selector: sel("egreedy:10"), opts: drift, measure: traceMeasure(150, 0, 0, nil)},
		traceCase{name: "drift-refork", selector: sel("ucb1"), factory: "hillclimb",
			opts: func() []Option {
				c := DefaultDriftConfig()
				c.Policy = DriftRefork
				return []Option{WithDriftWatchdog(c)}
			}, measure: traceMeasure(120, 0, 0, nil)},
		traceCase{name: "degrade-nan", selector: sel("egreedy:10"), opts: none, measure: traceMeasure(0, 100, 150, nanValue)},
		traceCase{name: "degrade-guard-drift", selector: func() nominal.Selector { return guard.NewQuarantine(nominal.NewEpsilonGreedy(0.20)) },
			factory: "anneal",
			opts: func() []Option {
				return []Option{WithGuard(), WithDriftWatchdog(DefaultDriftConfig())}
			}, measure: traceMeasure(200, 80, 130, panicValue)},
		traceCase{name: "nohistory-pso", selector: sel("egreedy:20"), factory: "pso",
			opts: func() []Option { return []Option{WithoutHistory()} }, measure: plain},
	)
	return cases
}

// runTrace builds the case's tuner, steps it traceIters times, and
// returns one line per iteration: arm, configuration and value, floats
// in their shortest exact form, and an F for a failed iteration.
func runTrace(t *testing.T, tc traceCase) []byte {
	t.Helper()
	factory := DefaultFactory
	if tc.factory != "" {
		f, err := search.NewByName(tc.factory, 9)
		if err != nil {
			t.Fatal(err)
		}
		factory = f
	}
	tu, err := NewTuner(engineAlgos(), tc.selector(), factory, 17, tc.opts()...)
	if err != nil {
		t.Fatal(err)
	}
	m := tc.measure()
	var b []byte
	for i := 0; i < traceIters; i++ {
		r := tu.Step(m)
		b = strconv.AppendInt(b, int64(r.Iteration), 10)
		b = append(b, ' ')
		b = strconv.AppendInt(b, int64(r.Algo), 10)
		b = append(b, " ["...)
		for j, x := range r.Config {
			if j > 0 {
				b = append(b, ' ')
			}
			b = strconv.AppendFloat(b, x, 'g', -1, 64)
		}
		b = append(b, "] "...)
		b = strconv.AppendFloat(b, r.Value, 'g', -1, 64)
		if r.Failed {
			b = append(b, " F"...)
		}
		b = append(b, '\n')
	}
	return b
}

// TestGoldenDecisionTraces replays every trace case and compares its
// decisions byte for byte with testdata/traces, which the sequential
// two-phase tuner recorded before the trial engine became the one tuner
// type. The files are the reference: a mismatch is a decision change,
// not a file to regenerate.
func TestGoldenDecisionTraces(t *testing.T) {
	for _, tc := range traceCases() {
		t.Run(tc.name, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", "traces", tc.name+".txt"))
			if err != nil {
				t.Fatal(err)
			}
			got := runTrace(t, tc)
			if bytes.Equal(got, want) {
				return
			}
			gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
			for i := range min(len(gl), len(wl)) {
				if !bytes.Equal(gl[i], wl[i]) {
					t.Fatalf("line %d: got %q, want %q", i+1, gl[i], wl[i])
				}
			}
			t.Fatalf("got %d lines, want %d", len(gl), len(wl))
		})
	}
}
