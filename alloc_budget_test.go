// Allocation-budget guards for the serial hot path. The budgets pin
// the allocations-per-request of a full obs-disabled run: generous
// enough to absorb runtime noise and minor drift, tight enough that
// reintroducing a per-event or per-invocation allocation (interface
// boxing in the kernel queue, per-pass dispatcher closures, per-span
// segment slices) blows through them immediately. The committed
// BENCH_<date>.json records the precise values these budgets bracket.
package main

import (
	"testing"

	"accelflow/internal/config"
	"accelflow/internal/engine"
	"accelflow/internal/services"
)

// TestRunAllocBudgetPerRequest runs the social-network workload with
// observability disabled — the configuration every sweep cell uses —
// and pins allocations per request.
//
// Trajectory: the PR 6 optimization pass moved this from ~636
// allocs/request to ~58 (see BENCH_2026-08-08.json). Lazy arrival
// scheduling with source callbacks bound once per source, the pooled
// two-leg DMA join and core-enqueue records, and the by-value
// accel.Entry inside the engine's entry state took it to 27.4. The
// budget of 30 gives ~10% headroom; a reintroduced allocation
// per DMA transfer or per kernel event lands well above it.
func TestRunAllocBudgetPerRequest(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run allocation measurement")
	}
	svcs := services.SocialNetwork()
	cfg := config.Default()
	pol := engine.AccelFlow()
	avg := testing.AllocsPerRun(3, func() {
		spec := benchRunSpec(svcs, cfg, pol)
		if _, err := spec.Run(); err != nil {
			t.Fatal(err)
		}
	})
	perRequest := avg / benchRunRequests
	t.Logf("obs-disabled run: %.1f allocs/request (%.0f per %d-request run)",
		perRequest, avg, benchRunRequests)
	if perRequest > 30 {
		t.Errorf("obs-disabled run allocates %.1f allocs/request, budget 30", perRequest)
	}
}
