package core_test

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/nominal"
	"repro/internal/param"
)

// Example demonstrates the complete two-phase online tuning loop: two
// algorithms, one of which has a tunable parameter, measured by a
// deterministic cost model.
func Example() {
	algorithms := []core.Algorithm{
		{Name: "fixed"}, // no parameters, always costs 10
		{
			Name:  "tunable",
			Space: param.NewSpace(param.NewInterval("x", 0, 10)),
			Init:  param.Config{5},
		},
	}
	cost := func(algo int, cfg param.Config) float64 {
		if algo == 0 {
			return 10
		}
		d := cfg[0] - 8
		return 4 + d*d // optimum 4 at x = 8
	}

	tuner, err := core.NewTuner(algorithms, nominal.NewEpsilonGreedy(0.10), nil, 1)
	if err != nil {
		panic(err)
	}
	tuner.Run(200, cost)

	best, cfg, val := tuner.Best()
	fmt.Printf("best: %s at %s = %.1f\n",
		algorithms[best].Name, algorithms[best].Space.Format(cfg), val)
	// Output:
	// best: tunable at x=8 = 4.0
}

// ExampleTuner_Next shows the ask/tell form for applications that own
// their loop.
func ExampleTuner_Next() {
	algorithms := []core.Algorithm{{Name: "a"}, {Name: "b"}}
	tuner, err := core.NewTuner(algorithms, nominal.NewRoundRobin(), nil, 1)
	if err != nil {
		panic(err)
	}
	for i := 0; i < 4; i++ {
		algo, _ := tuner.Next()
		// … the application runs algorithm algo and times it …
		tuner.Observe(float64(algo + 1))
	}
	fmt.Println(tuner.Counts())
	// Output:
	// [2 2]
}

// ExampleExpandNominal shows the future-work generalization: an algorithm
// whose own space contains a nominal parameter is expanded so the bandit
// handles every nominal decision.
func ExampleExpandNominal() {
	algos := []core.Algorithm{{
		Name: "store",
		Space: param.NewSpace(
			param.NewNominal("layout", "row", "col"),
			param.NewRatioInt("block", 1, 64),
		),
	}}
	e, err := core.ExpandNominal(algos)
	if err != nil {
		panic(err)
	}
	for _, a := range e.Algos {
		fmt.Println(a.Name, a.Space.Dim())
	}
	// Output:
	// store[layout=row] 1
	// store[layout=col] 1
}

// ExampleMedianOfK shows a noise-suppressing measurement decorator.
func ExampleMedianOfK() {
	samples := []float64{10, 500, 10} // one outlier
	i := 0
	raw := func(int, param.Config) float64 {
		v := samples[i%len(samples)]
		i++
		return v
	}
	robust := core.MedianOfK(raw, 3)
	fmt.Println(robust(0, nil))
	// Output:
	// 10
}
