package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/strmatch"
)

// smInputs are strmatch_ctx's generated inputs: class 0 searches the
// paper's query phrase in an English-like text, class 1 a dnaPatternLen
// pattern cut from a DNA text at a seed-derived offset.
type smInputs struct {
	texts, pats [2][]byte
	refs        [2]int    // match counts by bytes.Index, the reference
	oracles     [2]oracle // best matcher per class, timed at set-up
}

// newSMInputs generates both classes from seed with texts of size bytes
// and times every matcher on each to find the per-class oracle.
func newSMInputs(seed int64, size int) *smInputs {
	in := &smInputs{}
	in.texts[0] = corpus.Bible(size, seed)
	in.pats[0] = []byte(corpus.QueryPhrase)
	in.texts[1] = corpus.DNA(size, seed+1)
	off := rand.New(rand.NewSource(seed)).Intn(size - dnaPatternLen)
	in.pats[1] = append([]byte(nil), in.texts[1][off:off+dnaPatternLen]...)
	for class := range in.texts {
		in.refs[class] = countMatches(in.texts[class], in.pats[class])
		in.oracles[class] = timeMatchers(in.texts[class], in.pats[class])
	}
	return in
}

// dnaPatternLen makes the two classes differ as the paper's contexts
// do: on an 8-byte DNA pattern the bit-parallel matchers win and a
// search costs about three times the Bible search, which Hash3 wins. A
// 32-byte pattern has Hash3 win both at costs within 1.3× of each other,
// below the split tree's 1.5× lift, so the classes would only sometimes
// get contexts of their own.
const dnaPatternLen = 8

// countMatches counts possibly overlapping occurrences of pat in text.
func countMatches(text, pat []byte) int {
	n := 0
	for i := 0; ; {
		j := bytes.Index(text[i:], pat)
		if j < 0 {
			return n
		}
		n++
		i += j + 1
	}
}

// oracleReps is how many times the oracle runs each matcher; it keeps
// the median.
const oracleReps = 5

func timeMatchers(text, pat []byte) oracle {
	best := oracle{arm: -1}
	for arm, m := range strmatch.All() {
		ts := make([]float64, oracleReps)
		for i := range ts {
			start := time.Now()
			strmatch.Run(m, pat, text, 1)
			ts[i] = float64(time.Since(start)) / 1e6
		}
		if t := median(ts); best.arm < 0 || t < best.cost {
			best = oracle{arm: arm, cost: t}
		}
	}
	return best
}

// measure returns a worker's kernel for one input class. Each worker
// owns its matchers: Precompute mutates them.
func (in *smInputs) measure(class int) measureFunc {
	ms := strmatch.All()
	text, pat, ref := in.texts[class], in.pats[class], in.refs[class]
	return func(tr core.Trial) (float64, int64, error) {
		start := time.Now()
		got := len(strmatch.Run(ms[tr.Algo], pat, text, 1))
		ns := int64(time.Since(start))
		if got != ref {
			return 0, 0, fmt.Errorf("%s found %d matches in class %d, want %d", ms[tr.Algo].Name(), got, class, ref)
		}
		return float64(ns) / 1e6, ns, nil
	}
}

func matcherAlgos() []core.Algorithm {
	names := strmatch.Names()
	algos := make([]core.Algorithm, len(names))
	for i, n := range names {
		algos[i] = core.Algorithm{Name: n}
	}
	return algos
}
