//go:build !race

package core

import (
	"testing"

	"repro/internal/nominal"
)

// maxExportAllocs bounds the allocations of one snapshot export of a
// spec-built engine. It reads 19 with Go 1.24 on linux/amd64; the
// reflective encoder it replaced made 116, or 195 with the 64-record
// history tail a history-keeping engine exports. The headroom absorbs
// encoding/json differences between Go releases in the strategy
// payloads, which keep their reflective encoder.
const maxExportAllocs = 24

// TestExportStateAllocs pins the allocations of ExportState on the
// engine a tenant runs: spec defaults, two algorithms, one of them
// tunable, after enough trials to fill every bounded window.
func TestExportStateAllocs(t *testing.T) {
	eng, err := EngineSpec{Seed: 1}.Build(specAlgos(), nominal.NewEpsilonGreedy(0.1), nil, "")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		leases, err := eng.LeaseN(1)
		if err != nil || len(leases) != 1 {
			t.Fatalf("lease %d: %v (%d leases)", i, err, len(leases))
		}
		v := 2.0
		if leases[0].Algo == 1 {
			v = 1 + leases[0].Config[0]
		}
		eng.CompleteN([]TrialResult{{ID: leases[0].ID, Value: v}})
	}
	tu := eng.t
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := tu.ExportState(); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("ExportState: %.0f allocations", allocs)
	if allocs > maxExportAllocs {
		t.Fatalf("ExportState made %.0f allocations, bound %d", allocs, maxExportAllocs)
	}
}
