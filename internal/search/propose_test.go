package search

import (
	"math"
	"testing"

	"repro/internal/param"
)

func proposerSpace() *param.Space {
	return param.NewSpace(
		param.NewRatio("x", 0, 10),
		param.NewInterval("y", -5, 5),
	)
}

func TestProposerSinglePrimaryOutstanding(t *testing.T) {
	sp := proposerSpace()
	nm := NewNelderMead()
	if err := nm.Start(sp, nil); err != nil {
		t.Fatal(err)
	}
	p := NewProposer(nm, sp, 1)

	props := p.ProposeN(4)
	if len(props) != 4 {
		t.Fatalf("ProposeN(4) returned %d proposals", len(props))
	}
	primaries := 0
	for i, pr := range props {
		if pr.Primary {
			primaries++
		}
		if !sp.Valid(pr.Config) {
			t.Errorf("proposal %d config %v is not a valid point of the space", i, pr.Config)
		}
	}
	if primaries != 1 || !props[0].Primary {
		t.Fatalf("want exactly the first proposal primary, got %d primaries", primaries)
	}
	if p.Outstanding() != 4 {
		t.Fatalf("outstanding = %d, want 4", p.Outstanding())
	}

	// Speculative reports must not advance the strategy.
	for _, pr := range props[1:] {
		p.Report(pr, 3.0)
	}
	if nm.Evaluations() != 0 {
		t.Fatalf("speculative reports reached the strategy: %d evaluations", nm.Evaluations())
	}
	// The primary report restores strict alternation for the strategy.
	p.Report(props[0], 7.0)
	if nm.Evaluations() != 1 {
		t.Fatalf("primary report lost: %d evaluations", nm.Evaluations())
	}
	if p.Outstanding() != 0 {
		t.Fatalf("after all reports: outstanding = %d", p.Outstanding())
	}

	// The next propose hands out a genuine proposal again.
	if pr := p.Propose(); !pr.Primary {
		t.Fatal("next proposal after primary report should be primary")
	}
}

// TestProposerReleaseReissuesPrimary: a primary handed back unmeasured
// is the next primary, and the strategy never hears of the release; a
// released speculative proposal leaves the primary where it is. Random
// search draws a new point on every Propose, so asking the strategy
// again would not give the released point back.
func TestProposerReleaseReissuesPrimary(t *testing.T) {
	sp := proposerSpace()
	strat := NewRandom(1)
	if err := strat.Start(sp, nil); err != nil {
		t.Fatal(err)
	}
	p := NewProposer(strat, sp, 1)
	primary, spec := p.Propose(), p.Propose()
	p.Release(spec)
	if p.Outstanding() != 1 {
		t.Fatalf("outstanding = %d after releasing the speculative proposal, want 1", p.Outstanding())
	}
	if pr := p.Propose(); pr.Primary {
		t.Fatal("a released speculative proposal freed the primary slot")
	} else {
		p.Release(pr)
	}
	p.Release(primary)
	if p.Outstanding() != 0 || strat.Evaluations() != 0 {
		t.Fatalf("after releases: outstanding %d, %d evaluations, want 0 and 0", p.Outstanding(), strat.Evaluations())
	}
	again := p.Propose()
	if !again.Primary || !again.Config.Equal(primary.Config) {
		t.Fatalf("next proposal %+v, want the released primary %v re-issued", again, primary.Config)
	}
	p.Report(again, 2)
	if strat.Evaluations() != 1 {
		t.Fatalf("re-issued primary's report reached the strategy %d times, want 1", strat.Evaluations())
	}
	if next := p.Propose(); !next.Primary || next.Config.Equal(primary.Config) {
		t.Fatalf("proposal after the report = %+v, want the strategy's next point", next)
	}
}

func TestProposerSpeculativeBest(t *testing.T) {
	sp := proposerSpace()
	nm := NewNelderMead()
	if err := nm.Start(sp, nil); err != nil {
		t.Fatal(err)
	}
	p := NewProposer(nm, sp, 2)

	prim := p.Propose()
	spec := p.Propose()
	if spec.Primary {
		t.Fatal("second concurrent proposal should be speculative")
	}
	p.Report(spec, 0.5) // better than anything the strategy has seen
	p.Report(prim, 9.0)
	cfg, val := p.Best()
	if val != 0.5 || !cfg.Equal(spec.Config) {
		t.Fatalf("merged best = (%v, %v), want the speculative discovery (%v, 0.5)", cfg, val, spec.Config)
	}
	// The strategy's own incumbent is untouched by the speculative win.
	if _, sv := nm.Best(); sv != 9.0 {
		t.Fatalf("strategy best = %v, want 9.0", sv)
	}
}

func TestProposerEmptySpace(t *testing.T) {
	sp := param.NewSpace()
	f := NewFixed()
	if err := f.Start(sp, nil); err != nil {
		t.Fatal(err)
	}
	p := NewProposer(f, sp, 3)
	for i := 0; i < 5; i++ {
		pr := p.Propose()
		if len(pr.Config) != 0 {
			t.Fatalf("proposal %d on the empty space has %d dims", i, len(pr.Config))
		}
	}
	if p.Outstanding() != 5 {
		t.Fatalf("outstanding = %d, want 5", p.Outstanding())
	}
}

func TestProposerSpeculationStaysInSpace(t *testing.T) {
	sp := proposerSpace()
	nm := NewNelderMead()
	if err := nm.Start(sp, nil); err != nil {
		t.Fatal(err)
	}
	p := NewProposer(nm, sp, 4)
	p.Propose() // take the primary out
	for i := 0; i < 200; i++ {
		pr := p.Propose()
		if pr.Primary {
			t.Fatal("primary handed out twice without a report")
		}
		if !sp.Valid(pr.Config) {
			t.Fatalf("speculative config %v escapes the space", pr.Config)
		}
		p.Report(pr, math.Inf(1)) // worst possible: never becomes specBest
	}
}
