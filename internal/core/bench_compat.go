package core

import (
	"errors"

	"repro/internal/nominal"
	"repro/internal/search"
)

// NewConcurrentTuner, ShardedEngine, NewShardedEngine and WithShards
// exist only for bench/, which still builds its engine through them.
// NewConcurrentTuner is NewTuner. There is one shard: Shards returns 1,
// LeaseNOn is LeaseN, NewShardedEngine is NewTuner.
func NewConcurrentTuner(algos []Algorithm, selector nominal.Selector, factory search.Factory, seed int64, opts ...Option) (*Tuner, error) {
	return NewTuner(algos, selector, factory, seed, opts...)
}

type ShardedEngine struct{ *Tuner }

func (e *ShardedEngine) Shards() int                        { return 1 }
func (e *ShardedEngine) LeaseNOn(_, n int) ([]Trial, error) { return e.LeaseN(n) }

func NewShardedEngine(algos []Algorithm, selector nominal.Selector, factory search.Factory, seed int64, opts ...Option) (*ShardedEngine, error) {
	c, err := NewTuner(algos, selector, factory, seed, opts...)
	if err != nil {
		return nil, err
	}
	return &ShardedEngine{c}, nil
}

// WithShards accepts one shard; any other count fails the constructor.
func WithShards(n int) Option {
	return func(*Tuner) error {
		if n != 1 {
			return errors.New("core: option WithShards(n != 1): multi-shard selection is retired")
		}
		return nil
	}
}
