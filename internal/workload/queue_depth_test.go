package workload

import (
	"testing"

	"accelflow/internal/config"
	"accelflow/internal/engine"
	"accelflow/internal/metrics"
	"accelflow/internal/services"
	"accelflow/internal/sim"
)

// TestArrivalQueueDepth guards lazy arrival scheduling: the source
// driver keeps one pending arrival per source, so a 2500-request
// SocialNetwork mix holds only the in-flight requests' events plus a
// handful of arrivals (it peaks at 82 here). Pre-scheduling every
// arrival at t=0 peaks at 2500, and any driver that queues arrivals
// ahead of time grows with the request count instead of the load.
func TestArrivalQueueDepth(t *testing.T) {
	const requests, maxPending = 2500, 300
	k := sim.NewKernel()
	e, err := engine.New(k, config.Default(), engine.AccelFlow(), engine.Params{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Register(services.Catalog(), services.RemoteTails()); err != nil {
		t.Fatal(err)
	}
	res := &RunResult{All: metrics.NewRecorder("all"), Net: metrics.NewRecorder("net")}
	rng := sim.NewRNG(1)
	for si, src := range Mix(services.SocialNetwork(), 1.0, requests) {
		scheduleSource(k, e, src, rng.Fork(int64(si)+1), metrics.NewRecorder(src.Service.Name), res)
	}
	peak := k.Pending()
	k.SetHooks(sim.Hooks{OnEvent: func(sim.Time) {
		if n := k.Pending(); n > peak {
			peak = n
		}
	}})
	k.Run()
	if res.Completed != requests {
		t.Fatalf("completed %d of %d requests", res.Completed, requests)
	}
	t.Logf("peak pending events: %d", peak)
	if peak > maxPending {
		t.Errorf("event queue peaked at %d pending events, want <= %d (arrivals queued ahead of time?)", peak, maxPending)
	}
}
