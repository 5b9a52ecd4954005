//go:build !race

// The race detector's instrumentation changes allocation counts, so the
// allocation gate runs in normal builds only.

package tenant

import "testing"

// TestAcquireAllocs pins Acquire + release of a resident tenant at zero
// allocations: every server request brackets its engine calls in that
// pair, so a release closure built per call would cost every request
// one allocation.
func TestAcquireAllocs(t *testing.T) {
	r, err := NewRegistry(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Register(sleepSpec("alpha")); err != nil {
		t.Fatal(err)
	}
	drive(t, r, "alpha", 1) // materialize the engine
	allocs := testing.AllocsPerRun(1000, func() {
		_, _, release, err := r.Acquire("alpha")
		if err != nil {
			t.Fatal(err)
		}
		release()
	})
	t.Logf("%.2f allocations per Acquire + release", allocs)
	if allocs != 0 {
		t.Fatalf("%.2f allocations per Acquire + release, want 0", allocs)
	}
}
