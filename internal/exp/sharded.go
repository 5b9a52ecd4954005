package exp

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/nominal"
	"repro/internal/report"
)

// Ablation A13 — sharded nominal selection. Sharding (core.ShardedEngine)
// trades selector freshness for lock-free leasing: each shard decides on
// a replica that lags the authoritative state by at most
// mergeEvery × shards observations. The experiment asks whether that
// staleness changes the outcome: over the replayed string-matching
// banks, does a sharded pool still elect the winner the sequential tuner
// elects, across shard counts?

// shardedShardCounts are the shard counts of the A13 fidelity runs.
var shardedShardCounts = []int{1, 2, 4, 8}

// ShardedTuning is the A13 result.
type ShardedTuning struct {
	Labels []string
	Iters  int
	Reps   int
	Shards []int
	// SequentialWinners[r] is the most-selected arm of the sequential
	// reference of repetition r; Agreement[s] is the fraction of
	// repetitions whose sharded run with Shards[s] shards elected the
	// same arm as its sequential reference.
	SequentialWinner string
	Winners          [][]string // [shard count][rep]
	Agreement        []float64
	// MinAgreement is the acceptance floor applied by Pass.
	MinAgreement float64
}

// Pass reports the acceptance criterion: at every shard count, at least
// MinAgreement of the repetitions agree with the sequential winner.
func (s *ShardedTuning) Pass() bool {
	for _, a := range s.Agreement {
		if a < s.MinAgreement {
			return false
		}
	}
	return true
}

// RunShardedTuning executes the A13 experiment: for each repetition a
// sequential reference run over the matchers' replayed sample banks,
// then one sharded pool per shard count with the same seed, counting
// winner agreement. iters <= 0 uses 600; reps <= 0 uses 10.
func RunShardedTuning(cfg Config, iters, reps int) *ShardedTuning {
	cfg = cfg.sanitize()
	if iters <= 0 {
		iters = 600
	}
	if reps <= 0 {
		reps = 10
	}
	names, _ := recordBank(cfg)
	res := &ShardedTuning{
		Labels:       names,
		Iters:        iters,
		Reps:         reps,
		Shards:       shardedShardCounts,
		Winners:      make([][]string, len(shardedShardCounts)),
		Agreement:    make([]float64, len(shardedShardCounts)),
		MinAgreement: 0.9,
	}

	agree := make([]int, len(res.Shards))
	for r := 0; r < reps; r++ {
		rcfg := cfg
		rcfg.Seed = cfg.Seed + int64(101*r)
		_, bank := recordBank(rcfg)

		seq, err := core.NewTuner(matcherAlgorithms(), nominal.NewEpsilonGreedy(0.10), nil, rcfg.Seed)
		if err != nil {
			panic(err)
		}
		seq.Run(iters, replayMeasure(bank))
		seqWinner := names[mostSelected(seq.Counts())]
		if r == 0 {
			res.SequentialWinner = seqWinner
		}

		for si, shards := range res.Shards {
			eng, err := core.NewShardedEngine(matcherAlgorithms(), nominal.NewEpsilonGreedy(0.10), nil, rcfg.Seed,
				core.WithShards(shards), core.WithMaxInFlight(16))
			if err != nil {
				panic(err)
			}
			eng.RunPool(8, iters, replayMeasure(bank))
			w := names[mostSelected(eng.Counts())]
			res.Winners[si] = append(res.Winners[si], w)
			if w == seqWinner {
				agree[si]++
			}
		}
	}
	for si := range res.Shards {
		res.Agreement[si] = float64(agree[si]) / float64(reps)
	}
	return res
}

// RenderFigureA13 writes the sharded-selection summary table.
func (s *ShardedTuning) RenderFigureA13(w io.Writer) *report.Table {
	t := report.NewTable("Ablation A13: sharded selection fidelity on the string matching case study",
		"property", "value")
	t.Addf("iterations per run", s.Iters)
	t.Addf("repetitions", s.Reps)
	t.Addf("sequential winner (rep 0)", s.SequentialWinner)
	for i, n := range s.Shards {
		t.Addf(fmt.Sprintf("winner agreement @ %d shards", n),
			fmt.Sprintf("%.0f%%", 100*s.Agreement[i]))
	}
	t.Addf(fmt.Sprintf("passes (agreement >= %.0f%% at every shard count)", 100*s.MinAgreement), s.Pass())
	if w != nil {
		t.Render(w)
	}
	return t
}
