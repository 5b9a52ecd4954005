package core

import (
	"repro/internal/nominal"
	"repro/internal/search"
)

// ShardedEngine, NewShardedEngine and WithShards exist only for bench/,
// which still builds its engine through them. There is one shard: Shards
// returns 1, LeaseNOn is LeaseN, NewShardedEngine is NewConcurrentTuner.
type ShardedEngine struct{ *ConcurrentTuner }

func (e *ShardedEngine) Shards() int                        { return 1 }
func (e *ShardedEngine) LeaseNOn(_, n int) ([]Trial, error) { return e.LeaseN(n) }

func NewShardedEngine(algos []Algorithm, selector nominal.Selector, factory search.Factory, seed int64, opts ...Option) (*ShardedEngine, error) {
	c, err := NewConcurrentTuner(algos, selector, factory, seed, opts...)
	if err != nil {
		return nil, err
	}
	return &ShardedEngine{c}, nil
}

// WithShards accepts one shard; any other count fails the constructor.
func WithShards(n int) Option {
	if n != 1 {
		return Option{name: "WithShards(n != 1), multi-shard selection is retired"}
	}
	return engineOption("WithShards", func(*ConcurrentTuner) {})
}
