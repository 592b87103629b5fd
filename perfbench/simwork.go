package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"accelflow/internal/check"
	"accelflow/internal/config"
	"accelflow/internal/engine"
	"accelflow/internal/metrics"
	"accelflow/internal/services"
	"accelflow/internal/sim"
	"accelflow/internal/workload"
)

const (
	// serialRequests is the accelsim CLI's default request budget.
	serialRequests = 2500
	// fleetReplicas and fleetLoad keep the per-replica load of
	// serial-run (load 1.0 per server).
	fleetReplicas = 8
	fleetLoad     = 8.0
	fleetRequests = 4000
)

// simRun is what one simulation op yields: the simulated-time model
// statistics and the exact counts every timed op must repeat.
type simRun struct {
	model    map[string]float64
	events   uint64
	requests uint64
	epochs   uint64
	mail     uint64
}

// equal reports whether two runs produced identical outputs.
func (a simRun) equal(b simRun) bool {
	if a.events != b.events || a.requests != b.requests || a.epochs != b.epochs ||
		a.mail != b.mail || len(a.model) != len(b.model) {
		return false
	}
	for k, v := range a.model {
		if w, ok := b.model[k]; !ok || w != v {
			return false
		}
	}
	return true
}

// simWorkload is serial-run or fleet: every op re-runs the one
// generated spec, so every op must reproduce the verification op's
// outputs exactly.
type simWorkload struct {
	name string
	// prepare assembles a fresh spec (arrival processes keep state, so
	// each op needs its own) and returns the call that runs it.
	prepare func(checked bool, shards int) func() (simRun, error)
	shards  int
	ref     simRun
}

func newSerialRun(seed int64) *simWorkload {
	simSeed := rand.New(rand.NewSource(seed)).Int63n(1<<31) + 1
	svcs := services.SocialNetwork()
	cfg := config.Default()
	pol := engine.AccelFlow()
	return &simWorkload{
		name: "serial-run",
		prepare: func(checked bool, _ int) func() (simRun, error) {
			spec := &workload.RunSpec{
				Config:  cfg,
				Policy:  pol,
				Sources: workload.Mix(svcs, 1.0, serialRequests),
				Seed:    simSeed,
			}
			if checked {
				spec.Check = check.New()
			}
			return func() (simRun, error) {
				res, err := spec.Run()
				if err != nil {
					return simRun{}, err
				}
				return simRun{
					model:    modelValues(res.All, res.Elapsed, res.FellBack, res.TimedOut, []*engine.Engine{res.Engine}),
					events:   res.Engine.K.Processed(),
					requests: sourceRequests(spec.Sources),
				}, nil
			}
		},
	}
}

func newFleet(seed int64) *simWorkload {
	simSeed := rand.New(rand.NewSource(seed)).Int63n(1<<31) + 1
	svcs := services.SocialNetwork()
	cfg := config.Default()
	pol := engine.AccelFlow()
	return &simWorkload{
		name:   "fleet",
		shards: runtime.GOMAXPROCS(0),
		prepare: func(checked bool, shards int) func() (simRun, error) {
			spec := &workload.FleetSpec{
				Config:   cfg,
				Policy:   pol,
				Sources:  workload.Mix(svcs, fleetLoad, fleetRequests),
				Seed:     simSeed,
				Replicas: fleetReplicas,
				Shards:   shards,
				Balance:  "least",
				Check:    checked,
			}
			return func() (simRun, error) {
				res, err := spec.Run()
				if err != nil {
					return simRun{}, err
				}
				engines := make([]*engine.Engine, len(res.Replicas))
				for i, r := range res.Replicas {
					engines[i] = r.Engine
				}
				m := res.Merged
				return simRun{
					model:    modelValues(m.All, m.Elapsed, m.FellBack, m.TimedOut, engines),
					events:   res.Events,
					requests: sourceRequests(spec.Sources),
					epochs:   res.Epochs,
					mail:     res.Mail,
				}, nil
			}
		},
	}
}

func sourceRequests(srcs []workload.Source) uint64 {
	var n uint64
	for _, s := range srcs {
		n += uint64(s.Requests)
	}
	return n
}

// modelValues reads the simulated-time statistics of a finished run.
// Utilizations are busy time over capacity (elapsed x servers), summed
// across engines for a fleet.
func modelValues(all *metrics.Recorder, elapsed sim.Time, fellBack, timedOut uint64, engines []*engine.Engine) map[string]float64 {
	var cores, coresCap, mgr, mgrCap, dma, dmaCap, noc, nocCap, dram, dramCap float64
	var peBusy, peCap [config.NumAccelKinds]float64
	var peWait sim.Time
	var peTasks uint64
	span := float64(elapsed)
	for _, e := range engines {
		cores += float64(e.Cores.BusyTime)
		coresCap += span * float64(e.Cores.Servers)
		mgr += float64(e.Manager.BusyTime)
		mgrCap += span * float64(e.Manager.Servers)
		dma += float64(e.DMA.Busy())
		dmaCap += span * float64(e.DMA.Engines())
		noc += float64(e.Net.LinkBusy())
		nocCap += span * float64(e.Net.LinkCount())
		dram += float64(e.Mem.BusyTime())
		dramCap += span * float64(e.Mem.CtrlCount())
		for _, kd := range config.AllAccelKinds() {
			pe := e.Accels[kd].PEs
			peBusy[kd] += float64(pe.BusyTime)
			peCap[kd] += span * float64(pe.Servers)
			peWait += pe.WaitTime
			peTasks += pe.TaskCount
		}
	}
	peMax := 0.0
	for kd := range peBusy {
		if u := share(peBusy[kd], peCap[kd]); u > peMax {
			peMax = u
		}
	}
	peWaitUs := 0.0
	if peTasks > 0 {
		peWaitUs = peWait.Micros() / float64(peTasks)
	}
	return map[string]float64{
		"model.workload.p50_us":     all.P50().Micros(),
		"model.workload.p99_us":     all.P99().Micros(),
		"model.sim.elapsed_us":      elapsed.Micros(),
		"model.engine.cores_util":   share(cores, coresCap),
		"model.engine.manager_util": share(mgr, mgrCap),
		"model.engine.fallbacks":    float64(fellBack),
		"model.engine.timeouts":     float64(timedOut),
		"model.accel.pe_util_max":   peMax,
		"model.accel.pe_wait_us":    peWaitUs,
		"model.accel.dma_util":      share(dma, dmaCap),
		"model.noc.link_util":       share(noc, nocCap),
		"model.mem.dram_util":       share(dram, dramCap),
	}
}

func share(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func (w *simWorkload) setup() error {
	ref, err := w.prepare(true, w.shards)()
	if err != nil {
		return fmt.Errorf("%s: verification op: %w", w.name, err)
	}
	w.ref = ref
	warm, err := w.prepare(false, w.shards)()
	if err != nil {
		return fmt.Errorf("%s: warm-up op: %w", w.name, err)
	}
	if !warm.equal(ref) {
		return fmt.Errorf("%s: warm-up op differs from the checked verification op", w.name)
	}
	return nil
}

// op runs one timed op and checks it against the verification op.
func (w *simWorkload) op(p *phase, tr *tracer, shards int) time.Duration {
	id := tr.newOp()
	opSpan := tr.begin(id, 0, "op")
	t0 := time.Now()
	build := tr.begin(id, opSpan.id, "build")
	run := w.prepare(false, shards)
	build.end()
	sp := tr.begin(id, opSpan.id, "run")
	r, err := run()
	sp.end()
	d := time.Since(t0)
	opSpan.end()
	p.durs = append(p.durs, d)
	p.attempted++
	if err != nil || !r.equal(w.ref) {
		p.failed++
	}
	p.events += r.events
	p.requests += r.requests
	return d
}

func (w *simWorkload) loop(deadline time.Time, minOps int, tr *tracer) *phase {
	p := &phase{}
	for time.Now().Before(deadline) || p.attempted < minOps {
		w.op(p, tr, w.shards)
		if p.attempted == minOps {
			p.rss = peakRSSMiB()
		}
	}
	return p
}

// layers fills the per-layer metrics that only a simulation op can
// give: exact counts and model statistics from the verification op,
// rates from the untraced phase, and for the fleet the barrier counts
// and the measured speed-up of nproc workers over one.
func (w *simWorkload) layers(untraced, _, extra *phase, m map[string]float64, rep *report) {
	for k, v := range w.ref.model {
		m[k] = v
	}
	req := float64(w.ref.requests)
	m["sim.events_per_request"] = float64(w.ref.events) / req
	m["sim.events_per_s"] = float64(untraced.events) / untraced.wall.Seconds()
	perOp := float64(untraced.events) / float64(untraced.attempted)
	rep.add("sim.ns_per_event", "ns", median(ms(untraced.durs))*1e6/perOp, fmt.Sprintf("op_ms_p50 / %.0f events per op", perOp))
	m["gc.allocs_per_request"] = float64(untraced.mallocs) / float64(untraced.requests)
	m["gc.bytes_per_request"] = float64(untraced.bytes) / float64(untraced.requests)
	if w.name != "fleet" {
		return
	}
	m["shard.epochs_per_op"] = float64(w.ref.epochs)
	m["shard.mail_per_op"] = float64(w.ref.mail)
	m["shard.events_per_epoch"] = float64(w.ref.events) / float64(w.ref.epochs)
	// Alternate the two worker counts so drift hits both sides alike.
	var one, many []time.Duration
	for i := 0; i < speedupPairs; i++ {
		one = append(one, w.op(extra, nil, 1))
		many = append(many, w.op(extra, nil, w.shards))
	}
	m["shard.speedup"] = median(ms(one)) / median(ms(many))
	rep.add("shard.speedup", "x", m["shard.speedup"], fmt.Sprintf(
		"median of %d ops at Shards=1 over median of %d at Shards=%d, alternated", len(one), len(many), w.shards))
}

// verify has nothing left to do: op compares each run as it finishes.
func (w *simWorkload) verify(...*phase) error { return nil }

// speedupPairs is how many (Shards=1, Shards=nproc) op pairs the traced
// fleet run times for shard.speedup.
const speedupPairs = 7

func (w *simWorkload) close() {}
