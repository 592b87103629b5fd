// Command perfbench is the repository benchmark. It runs one of three
// seeded workloads against the public API of internal/workload,
// internal/experiments and internal/serve, checks every op's outputs
// against a verification op run with the invariant checker attached,
// and prints its metrics, the last line being one JSON object:
//
//	perfbench --workload serial-run --seed 1 --seconds 25 --trace 0
//
// --trace 0 prints the end-to-end metrics of an untraced run. --trace 1
// prints the per-layer metrics: it splits the time between an untraced
// and a traced phase, and the traced phase records spans and a CPU
// profile folded by package. See README.md for the workloads, the
// metrics and what each should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

const (
	// setupReps is how many times a run sets up; setup_s is the median.
	setupReps = 5
	// minOps is the fewest timed ops of a measured run, so that at
	// least ten samples lie beyond op_ms_p90; a run keeps going past
	// --seconds until it has them.
	minOps = 100
	// traceMinOps is the fewest ops of each phase of a traced run.
	traceMinOps = 20
)

// metricDef is one metric of the benchmark's contract.
type metricDef struct {
	Name, Unit, Better string
}

// endToEnd are the metrics a --trace 0 run puts in its JSON line, the
// ones BENCHMARK.json bounds, in order.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"op_ms_p50", "ms", "lower"},
	{"cpu_ms_per_op", "ms", "lower"},
	{"peak_rss_mb", "MiB", "lower"},
}

// printedEndToEnd are the end-to-end metrics a --trace 0 run prints.
// op_ms_p90 and ops_per_s stay out of the JSON line: on a shared 2-vCPU
// host their run-to-run spread reached the largest bound a metric may
// have (README.md, "Seeds and spread").
var printedEndToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"op_ms_p50", "ms", "lower"},
	{"op_ms_p90", "ms", "lower"},
	{"ops_per_s", "1/s", "higher"},
	{"cpu_ms_per_op", "ms", "lower"},
	{"peak_rss_mb", "MiB", "lower"},
}

// perLayer are the metrics a --trace 1 run reports, in order. A metric
// whose layer a workload never reaches reads 0 there.
var perLayer = func() []metricDef {
	var ds []metricDef
	for _, l := range cpuLayers {
		ds = append(ds, metricDef{l, "share", "lower"})
	}
	return append(ds, []metricDef{
		{"cpu.samples", "count", "higher"},
		{"sim.events_per_request", "count", "lower"},
		{"sim.events_per_s", "events/s", "higher"},
		{"gc.allocs_per_op", "count", "lower"},
		{"gc.bytes_per_op", "B", "lower"},
		{"gc.allocs_per_request", "count", "lower"},
		{"gc.bytes_per_request", "B", "lower"},
		{"gc.cycles_per_op", "count", "lower"},
		{"gc.pause_ms_per_op", "ms", "lower"},
		{"shard.epochs_per_op", "count", "lower"},
		{"shard.mail_per_op", "count", "lower"},
		{"shard.events_per_epoch", "count", "higher"},
		{"shard.speedup", "x", "higher"},
		{"shard.cpu_per_wall", "ratio", "lower"},
		{"serve.cache_hit_ratio", "ratio", "higher"},
		{"serve.coalesced", "count", "higher"},
		{"serve.refused", "count", "lower"},
		{"experiments.cells_per_job", "count", "lower"},
		{"obs.trace_bytes_per_request", "B", "lower"},
		{"model.workload.p50_us", "sim_us", "lower"},
		{"model.workload.p99_us", "sim_us", "lower"},
		{"model.sim.elapsed_us", "sim_us", "lower"},
		{"model.engine.cores_util", "ratio", "lower"},
		{"model.engine.manager_util", "ratio", "lower"},
		{"model.engine.fallbacks", "count", "lower"},
		{"model.engine.timeouts", "count", "lower"},
		{"model.accel.pe_util_max", "ratio", "lower"},
		{"model.accel.pe_wait_us", "sim_us", "lower"},
		{"model.accel.dma_util", "ratio", "lower"},
		{"model.noc.link_util", "ratio", "lower"},
		{"model.mem.dram_util", "ratio", "lower"},
		{"bench.trace_overhead", "ratio", "lower"},
	}...)
}()

// workloadNames lists the workloads in BENCHMARK.json order.
var workloadNames = []string{"serial-run", "fleet", "daemon-mix"}

// opLoop is one workload of the benchmark: set-up, timed op loop,
// output check and per-layer metrics.
type opLoop interface {
	// setup runs the checked verification op and the warm-up, and
	// fails if the warm-up's outputs differ from the verification op's.
	setup() error
	// loop runs ops until deadline has passed and at least minOps ops have
	// finished; a non-nil tracer records spans.
	loop(deadline time.Time, minOps int, tr *tracer) *phase
	// verify completes the output check of the given phases where it
	// is not made op by op.
	verify(phases ...*phase) error
	// layers adds the workload's own per-layer metrics to m and notes
	// to rep; ops it runs for them count in extra.
	layers(untraced, traced, extra *phase, m map[string]float64, rep *report)
	close()
}

func newWorkload(name string, seed int64) (opLoop, error) {
	switch name {
	case "serial-run":
		return newSerialRun(seed), nil
	case "fleet":
		return newFleet(seed), nil
	case "daemon-mix":
		w, err := newDaemonMix(seed)
		if err != nil {
			return nil, err
		}
		return w, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want serial-run, fleet or daemon-mix)", name)
}

// phase is one timed stretch of ops.
type phase struct {
	durs              []time.Duration
	attempted, failed int
	wall, cpu         time.Duration
	// rss is the peak resident set when the minOps-th op finished.
	rss            float64
	mallocs, bytes uint64
	gcs            uint32
	pauseNs        uint64
	// events and requests are simulated kernel events and requests
	// (sim workloads).
	events, requests uint64
	// ops, cache counters and errs belong to daemon-mix.
	ops                      []*outcome
	hits, lookups, coalesced int
	errs                     []error
}

// measure runs one phase and records its wall, CPU and allocator
// totals around the loop.
func measure(w opLoop, d time.Duration, minOps int, tr *tracer) *phase {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	c0 := cpuTime()
	t0 := time.Now()
	p := w.loop(t0.Add(d), minOps, tr)
	p.wall = time.Since(t0)
	p.cpu = cpuTime() - c0
	runtime.ReadMemStats(&m1)
	p.mallocs = m1.Mallocs - m0.Mallocs
	p.bytes = m1.TotalAlloc - m0.TotalAlloc
	p.gcs = m1.NumGC - m0.NumGC
	p.pauseNs = m1.PauseTotalNs - m0.PauseTotalNs
	return p
}

// report collects metric lines for the human-readable output.
type report struct {
	lines []string
}

func (r *report) add(name, unit string, v float64, note string) {
	r.lines = append(r.lines, fmt.Sprintf("%-32s %14.6g %-8s %s", name, v, unit, note))
}

// result is the last line of output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	start := time.Now()
	os.Exit(run(start, os.Args[1:], os.Stdout, os.Stderr))
}

func run(start time.Time, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "serial-run", "workload: serial-run, fleet or daemon-mix")
	seed := fs.Int64("seed", 1, "workload generator seed")
	seconds := fs.Int("seconds", 25, "measured seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics of an untraced run; 1: per-layer metrics of a traced run")
	out := fs.String("out", filepath.Join(".bench_build", "trace"), "directory for CPU profiles and span files of traced runs")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be at least 1 and --trace 0 or 1")
		return 2
	}

	var (
		w      opLoop
		setups []float64
		err    error
	)
	for i := 0; i < setupReps; i++ {
		t := time.Now()
		if i == 0 {
			t = start
		}
		if w != nil {
			w.close()
		}
		if w, err = newWorkload(*name, *seed); err == nil {
			err = w.setup()
		}
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			if w != nil {
				w.close()
			}
			return 1
		}
		setups = append(setups, time.Since(t).Seconds())
	}
	defer w.close()
	fmt.Fprintf(stdout, "# perfbench workload=%s seed=%d seconds=%d trace=%d GOMAXPROCS=%d %s\n",
		*name, *seed, *seconds, *trace, runtime.GOMAXPROCS(0), runtime.Version())

	var res result
	if *trace == 0 {
		res, err = measured(w, time.Duration(*seconds)*time.Second, setups, stdout)
	} else {
		res, err = traced(w, *name, *seed, time.Duration(*seconds)*time.Second, *out, stdout)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(b))
	return 0
}

// measured is a --trace 0 run: one untraced phase.
func measured(w opLoop, d time.Duration, setups []float64, stdout io.Writer) (result, error) {
	p := measure(w, d, minOps, nil)
	if err := w.verify(p); err != nil {
		return result{}, err
	}
	durs := ms(p.durs)
	n := len(durs)
	p50, _ := percentile(durs, 50)
	p90, beyond := percentile(durs, 90)
	vals := map[string]float64{
		"setup_s":       median(setups),
		"op_ms_p50":     p50,
		"op_ms_p90":     p90,
		"ops_per_s":     float64(n) / p.wall.Seconds(),
		"cpu_ms_per_op": float64(p.cpu) / float64(time.Millisecond) / float64(n),
		"peak_rss_mb":   p.rss,
	}
	notes := map[string]string{
		"setup_s":       fmt.Sprintf("median of %d set-ups %.3f", len(setups), setups),
		"op_ms_p50":     fmt.Sprintf("n=%d", n),
		"op_ms_p90":     fmt.Sprintf("n=%d, %d beyond", n, beyond),
		"ops_per_s":     fmt.Sprintf("%d ops in %.3fs", n, p.wall.Seconds()),
		"cpu_ms_per_op": fmt.Sprintf("user+sys %.3fs over %d ops", p.cpu.Seconds(), n),
		"peak_rss_mb":   fmt.Sprintf("getrusage maxrss when timed op %d finished; %.1f MiB after the last", minOps, peakRSSMiB()),
	}
	rep := &report{}
	res := result{Attempted: p.attempted, Failed: p.failed, Metrics: map[string]metricValue{}}
	for _, d := range printedEndToEnd {
		rep.add(d.Name, d.Unit, vals[d.Name], notes[d.Name])
	}
	for _, d := range endToEnd {
		res.Metrics[d.Name] = metricValue{vals[d.Name], d.Unit}
	}
	if p.events > 0 {
		rep.add("events_per_s", "events/s", float64(p.events)/p.wall.Seconds(), fmt.Sprintf("%d kernel events", p.events))
	}
	ff := failedFrac(p.failed, p.attempted)
	rep.add("failed_frac", "ratio", ff.Value(), ff.String()+" ops failed, were refused or failed the output check")
	res.Correct = p.failed == 0 && len(p.errs) == 0
	for _, err := range p.errs {
		rep.lines = append(rep.lines, "error: "+err.Error())
	}
	for _, l := range rep.lines {
		fmt.Fprintln(stdout, l)
	}
	return res, nil
}

// traced is a --trace 1 run: an untraced phase and a traced phase of
// half the time each, then the workload's extra layer ops.
func traced(w opLoop, name string, seed int64, d time.Duration, dir string, stdout io.Writer) (result, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return result{}, err
	}
	base := filepath.Join(dir, fmt.Sprintf("%s-seed%d", name, seed))
	untraced := measure(w, d/2, traceMinOps, nil)
	tr := newTracer()
	prof, err := startProfile(base + ".cpu.pprof")
	if err != nil {
		return result{}, err
	}
	tp := measure(w, d/2, traceMinOps, tr)
	shares, samples, err := prof.stop()
	if err != nil {
		return result{}, err
	}
	if err := w.verify(untraced, tp); err != nil {
		return result{}, err
	}

	m := map[string]float64{}
	rep := &report{}
	for l, v := range shares {
		m[l] = v
	}
	m["cpu.samples"] = float64(samples)
	ops := float64(untraced.attempted)
	m["gc.allocs_per_op"] = float64(untraced.mallocs) / ops
	m["gc.bytes_per_op"] = float64(untraced.bytes) / ops
	m["gc.cycles_per_op"] = float64(untraced.gcs) / ops
	m["gc.pause_ms_per_op"] = float64(untraced.pauseNs) / 1e6 / ops
	m["shard.cpu_per_wall"] = untraced.cpu.Seconds() / untraced.wall.Seconds()
	m["bench.trace_overhead"] = median(ms(tp.durs)) / median(ms(untraced.durs))
	extra := &phase{}
	w.layers(untraced, tp, extra, m, rep)
	if err := tr.write(base + ".spans.json"); err != nil {
		return result{}, err
	}

	res := result{
		Attempted: untraced.attempted + tp.attempted + extra.attempted,
		Failed:    untraced.failed + tp.failed + extra.failed,
		Metrics:   map[string]metricValue{},
	}
	res.Correct = res.Failed == 0 && len(untraced.errs)+len(tp.errs) == 0
	fmt.Fprintf(stdout, "# untraced phase: %d ops in %.3fs; traced phase: %d ops in %.3fs; profile %s.cpu.pprof\n",
		untraced.attempted, untraced.wall.Seconds(), tp.attempted, tp.wall.Seconds(), base)
	for _, d := range perLayer {
		res.Metrics[d.Name] = metricValue{m[d.Name], d.Unit}
		fmt.Fprintf(stdout, "%-32s %14.6g %s\n", d.Name, m[d.Name], d.Unit)
	}
	fmt.Fprintf(stdout, "# cpu.other is the unattributed remainder of %d samples\n", samples)
	for _, l := range rep.lines {
		fmt.Fprintln(stdout, l)
	}
	for _, s := range tr.summarize() {
		fmt.Fprintf(stdout, "span %-10s n=%-6d total_ms=%-12.3f self_ms=%.3f\n", s.Name, s.Count, s.TotalMs, s.SelfMs)
	}
	for _, err := range append(untraced.errs, tp.errs...) {
		fmt.Fprintln(stdout, "error:", err)
	}
	return res, nil
}
