// Command atune-figures regenerates every table and figure of the paper
// in one run, plus the ablations listed in DESIGN.md.
//
// Usage:
//
//	atune-figures [-only id[,id...]] [-paper] [-seed S]
//
// Ids: t1 t2 f1 f2 f3 f4 f5 f6 f7 f8 a1 a2 a3 a4 a5 a6 a7 a8 a9 a10 a11
// a12 a14 a15 a16 x1 x2 x3 x4 x5 (a13, sharded selection, is retired).
// An unknown id is an error. The default runs everything at quick
// scale; -paper switches to the paper-scale configuration.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"

	"repro/internal/exp"
)

// ids lists every artefact id -only accepts.
var ids = strings.Fields("t1 t2 f1 f2 f3 f4 f5 f6 f7 f8 a1 a2 a3 a4 a5 a6 a7 a8 a9 a10 a11 a12 a14 a15 a16 x1 x2 x3 x4 x5")

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the command with its arguments and streams; it returns the exit
// code.
func run(args []string, out, errOut io.Writer) int {
	fs := flag.NewFlagSet("atune-figures", flag.ContinueOnError)
	fs.SetOutput(errOut)
	var (
		only  = fs.String("only", "", "comma-separated artefact ids (t1, t2, f1..f8, a1..a12, a14..a16, x1..x5); empty = all")
		paper = fs.Bool("paper", false, "use the paper-scale configuration")
		seed  = fs.Int64("seed", 1, "master seed")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	cfg := exp.QuickConfig()
	if *paper {
		cfg = exp.PaperConfig()
	}
	cfg.Seed = *seed

	want := map[string]bool{}
	if *only != "" {
		for _, id := range strings.Split(*only, ",") {
			id = strings.TrimSpace(strings.ToLower(id))
			if !slices.Contains(ids, id) {
				fmt.Fprintf(errOut, "atune-figures: unknown id %q; known ids: %s\n", id, strings.Join(ids, " "))
				return 2
			}
			want[id] = true
		}
	}
	sel := func(id string) bool { return len(want) == 0 || want[id] }

	if sel("t1") {
		exp.TableI().Render(out)
		fmt.Fprintln(out)
	}
	if sel("t2") {
		exp.TableII().Render(out)
		fmt.Fprintln(out)
	}
	if sel("f1") {
		exp.RunUntunedMatchers(cfg).RenderFigure1(out)
		fmt.Fprintln(out)
	}
	if sel("x1") {
		exp.RunUntunedMatchersDNA(cfg).RenderFigureX1(out)
		fmt.Fprintln(out)
	}
	if sel("x2") {
		exp.RunPatternSweep(cfg, nil).RenderFigureX2(out)
		fmt.Fprintln(out)
	}
	if sel("x4") {
		exp.RunContextualSweep(cfg).RenderFigureX4(out)
		fmt.Fprintln(out)
	}
	if sel("x5") {
		exp.RunStructureChoice(cfg).RenderFigureX5(out)
		fmt.Fprintln(out)
	}
	if sel("f2") || sel("f3") || sel("f4") {
		res := exp.RunTunedMatchers(cfg)
		if sel("f2") {
			res.RenderFigure2(out)
			fmt.Fprintln(out)
		}
		if sel("f3") {
			res.RenderFigure3(out)
			fmt.Fprintln(out)
		}
		if sel("f4") {
			res.RenderFigure4(out)
		}
	}
	if sel("f5") {
		exp.RunKDTreeTimelines(cfg).RenderFigure5(out)
		fmt.Fprintln(out)
	}
	if sel("f6") || sel("f7") || sel("f8") {
		res := exp.RunTunedRaytracing(cfg)
		if sel("f6") {
			res.RenderFigure6(out)
			fmt.Fprintln(out)
		}
		if sel("f7") {
			res.RenderFigure7(out)
			fmt.Fprintln(out)
		}
		if sel("f8") {
			res.RenderFigure8(out)
		}
	}

	// Ablations: deterministic synthetic-model studies.
	aReps, aIters := 10, 400
	if *paper {
		aReps = 100
	}
	if sel("a1") {
		exp.AblationWindowSize(out, aReps, aIters, cfg.Seed)
		fmt.Fprintln(out)
	}
	if sel("a2") {
		exp.AblationEpsilonSweep(out, aReps, aIters, cfg.Seed)
		fmt.Fprintln(out)
	}
	if sel("a3") {
		exp.AblationCrossover(out, aReps, aIters, cfg.Seed)
		fmt.Fprintln(out)
	}
	if sel("a4") {
		exp.AblationPhase1Strategies(out, aReps, aIters, cfg.Seed)
		fmt.Fprintln(out)
	}
	if sel("a5") {
		exp.AblationSoftmax(out, aReps, aIters, cfg.Seed)
		fmt.Fprintln(out)
	}
	if sel("a6") {
		exp.AblationCombined(out, aReps, aIters, cfg.Seed)
		fmt.Fprintln(out)
	}
	if sel("a7") {
		exp.AblationDrift(out, aReps, aIters, cfg.Seed)
		fmt.Fprintln(out)
	}
	if sel("a8") {
		exp.AblationNoise(out, aReps, aIters, cfg.Seed)
		fmt.Fprintln(out)
	}
	if sel("x3") {
		exp.AblationMixedNominal(out, aReps, aIters, cfg.Seed)
		fmt.Fprintln(out)
	}
	if sel("a9") {
		exp.AblationRegret(out, aReps, aIters, cfg.Seed)
		fmt.Fprintln(out)
	}
	if sel("a10") {
		exp.RunFaultInjection(cfg, exp.DefaultFaultRates(), 0).RenderFigureA10(out)
		fmt.Fprintln(out)
	}
	if sel("a11") {
		res, err := exp.RunCheckpointCrash(cfg, 0, 0, 0)
		if err != nil {
			fmt.Fprintln(errOut, "a11:", err)
			return 1
		}
		res.RenderFigureA11(out)
		fmt.Fprintln(out)
	}
	if sel("a12") {
		exp.RunConcurrentTuning(cfg, 0).RenderFigureA12(out)
		fmt.Fprintln(out)
	}
	if sel("a14") {
		exp.RunChaosSoak(cfg, 0).RenderFigureA14(out)
		fmt.Fprintln(out)
	}
	if sel("a15") {
		exp.RunDriftResilience(cfg, 0).RenderFigureA15(out)
		fmt.Fprintln(out)
	}
	if sel("a16") {
		exp.RunContextualTuning(cfg, 0).RenderFigureA16(out)
		fmt.Fprintln(out)
	}
	return 0
}
