package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// span is one timed interval at a boundary the benchmark's own code
// crosses: an op, or a call it makes into a layer. Spans of one op
// share Op; Parent is the ID of the span that caused it (0 for none).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer
// records nothing and costs one nil check per call, which is how
// untraced phases run.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	next  int64
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// openSpan is a span that has begun; end records it.
type openSpan struct {
	tr     *tracer
	id     int64
	parent int64
	op     int64
	name   string
	start  time.Time
}

func (t *tracer) newID() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	return t.next
}

// newOp returns an identifier for a new op.
func (t *tracer) newOp() int64 { return t.newID() }

// begin opens a span of op under parent.
func (t *tracer) begin(op, parent int64, name string) openSpan {
	if t == nil {
		return openSpan{}
	}
	return openSpan{tr: t, id: t.newID(), parent: parent, op: op, name: name, start: time.Now()}
}

func (s openSpan) end() {
	if s.tr == nil {
		return
	}
	s.tr.add(span{ID: s.id, Parent: s.parent, Op: s.op, Name: s.name,
		Start: s.start.Sub(s.tr.t0).Nanoseconds(), End: time.Since(s.tr.t0).Nanoseconds()})
}

// mark records an instant (zero-length span), such as an NDJSON cell
// event arriving.
func (t *tracer) mark(op, parent int64, name string) {
	if t == nil {
		return
	}
	at := time.Since(t.t0).Nanoseconds()
	t.add(span{ID: t.newID(), Parent: parent, Op: op, Name: name, Start: at, End: at})
}

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// spanSummary is the count, total and self time of the spans of one
// name. Self time is duration minus the part covered by child spans.
type spanSummary struct {
	Name            string
	Count           int
	TotalMs, SelfMs float64
}

// summarize folds the recorded spans by name.
func (t *tracer) summarize() []spanSummary {
	child := map[int64]int64{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	by := map[string]*spanSummary{}
	for _, s := range t.spans {
		sum := by[s.Name]
		if sum == nil {
			sum = &spanSummary{Name: s.Name}
			by[s.Name] = sum
		}
		d := s.End - s.Start
		sum.Count++
		sum.TotalMs += float64(d) / 1e6
		sum.SelfMs += float64(d-child[s.ID]) / 1e6
	}
	out := make([]spanSummary, 0, len(by))
	for _, s := range by {
		out = append(out, *s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// write stores the spans as JSON in path.
func (t *tracer) write(path string) error {
	b, err := json.Marshal(map[string]any{"spans": t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// cpuLayers are the per-layer CPU shares the fold reports, in output
// order. Every profile sample lands in exactly one of them.
var cpuLayers = []string{
	"cpu.sim", "cpu.engine", "cpu.accel", "cpu.atm", "cpu.noc", "cpu.mem",
	"cpu.workload", "cpu.metrics", "cpu.obs", "cpu.control", "cpu.fault",
	"cpu.experiments", "cpu.serve", "cpu.trace", "cpu.config", "cpu.check",
	"cpu.http", "cpu.rand", "cpu.gc", "cpu.sched", "cpu.runtime", "cpu.stdlib",
	"cpu.bench", "cpu.other",
}

// repoLayers are the accelflow/internal packages that are layers of
// their own; the remaining ones (services, tune, energy) fold into
// cpu.other.
var repoLayers = map[string]bool{
	"sim": true, "engine": true, "accel": true, "atm": true, "noc": true,
	"mem": true, "workload": true, "metrics": true, "obs": true,
	"control": true, "fault": true, "experiments": true, "serve": true,
	"trace": true, "config": true, "check": true,
}

// Runtime functions by layer, matched as prefixes of the name after
// "runtime.".
var (
	gcFuncs = []string{
		"mallocgc", "newobject", "newarray", "makeslice", "makemap", "growslice",
		"(*mcache)", "(*mcentral)", "(*mheap)", "(*mspan)", "(*gcWork)", "(*gcBits)",
		"(*pageAlloc)", "(*fixalloc)", "(*sweepLocked)", "(*mSpanList)", "(*gcControllerState)",
		"gc", "scanobject", "scanblock", "scanstack", "scanframe", "greyobject",
		"findObject", "markroot", "markBits", "heapBits", "heapSetType", "memclr",
		"sweepone", "bgsweep", "bgscavenge", "(*scavenger)", "wbBuf", "bulkBarrier",
		"typePointers", "spanOf", "nextFree", "deductAssistCredit", "largeAlloc",
		"(*heapBits)", "(*consistentHeapStats)",
	}
	schedFuncs = []string{
		"schedule", "findRunnable", "park_m", "gopark", "goready", "ready", "wakep",
		"startm", "stopm", "handoffp", "mstart", "mcall", "gosched", "goschedImpl",
		"runq", "stealWork", "checkTimers", "(*timers)", "netpoll", "futex", "note",
		"usleep", "osyield", "procyield", "lock2", "unlock2", "lock", "unlock",
		"semacquire", "semrelease", "(*semaRoot)", "sysmon", "retake", "selectgo",
		"chansend", "chanrecv", "closechan", "newproc", "goexit", "execute",
		"casgstatus", "resetspinning", "acquirep", "releasep", "entersyscall",
		"exitsyscall", "reentersyscall", "goroutineReady", "notifyList",
	}
)

// foldSymbol maps one profile function name to its cpu.* layer.
func foldSymbol(fn string) string {
	fn = strings.TrimSuffix(strings.TrimSpace(fn), " (inline)")
	if rest, ok := strings.CutPrefix(fn, "accelflow/internal/"); ok {
		pkg, _, _ := strings.Cut(rest, ".")
		if repoLayers[pkg] {
			return "cpu." + pkg
		}
		return "cpu.other"
	}
	if rest, ok := strings.CutPrefix(fn, "runtime."); ok {
		for _, p := range gcFuncs {
			if strings.HasPrefix(rest, p) {
				return "cpu.gc"
			}
		}
		for _, p := range schedFuncs {
			if strings.HasPrefix(rest, p) {
				return "cpu.sched"
			}
		}
		return "cpu.runtime"
	}
	prefixes := []struct{ prefix, layer string }{
		{"math/rand.", "cpu.rand"},
		{"sync.", "cpu.sched"},
		{"sync/atomic.", "cpu.sched"},
		{"internal/runtime/", "cpu.runtime"},
		{"internal/abi.", "cpu.runtime"},
		{"internal/bytealg.", "cpu.runtime"},
		{"net/http.", "cpu.http"},
		{"net/textproto.", "cpu.http"},
		{"net.", "cpu.http"},
		{"net/url.", "cpu.http"},
		{"encoding/json.", "cpu.http"},
		{"internal/poll.", "cpu.http"},
		{"syscall.", "cpu.http"},
		{"bufio.", "cpu.http"},
		{"sort.", "cpu.stdlib"},
		{"slices.", "cpu.stdlib"},
		{"reflect.", "cpu.stdlib"},
		{"internal/reflectlite.", "cpu.stdlib"},
		{"strconv.", "cpu.stdlib"},
		{"bytes.", "cpu.stdlib"},
		{"strings.", "cpu.stdlib"},
		{"math.", "cpu.stdlib"},
		{"fmt.", "cpu.stdlib"},
		{"unicode/", "cpu.stdlib"},
		{"main.", "cpu.bench"},
		{"runtime/pprof.", "cpu.bench"},
		{"compress/", "cpu.bench"},
		{"crypto/", "cpu.bench"},
	}
	for _, p := range prefixes {
		if strings.HasPrefix(fn, p.prefix) {
			return p.layer
		}
	}
	// Assembly routines of the runtime carry no package prefix.
	if strings.HasPrefix(fn, "gcWriteBarrier") {
		return "cpu.gc"
	}
	if !strings.ContainsAny(fn, "./") {
		return "cpu.runtime"
	}
	return "cpu.other"
}

// parseTop folds the text of `go tool pprof -top -sample_index=samples`
// by layer. It returns the sample count per layer and the profile's
// total sample count.
func parseTop(text string) (map[string]int, int, error) {
	layers := map[string]int{}
	total := -1
	rows := false
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "Showing nodes accounting for") {
			// "... for N, P% of T total"
			f := strings.Fields(line)
			for i := range f {
				if f[i] == "of" && i+1 < len(f) {
					t, err := strconv.Atoi(f[i+1])
					if err != nil {
						return nil, 0, fmt.Errorf("pprof total %q: %w", f[i+1], err)
					}
					total = t
				}
			}
			continue
		}
		if strings.Contains(line, "flat%") {
			rows = true
			continue
		}
		if !rows {
			continue
		}
		f := strings.Fields(line)
		if len(f) < 6 {
			continue
		}
		n, err := strconv.Atoi(f[0])
		if err != nil {
			return nil, 0, fmt.Errorf("pprof row %q: %w", line, err)
		}
		layers[foldSymbol(strings.Join(f[5:], " "))] += n
	}
	if total < 0 {
		return nil, 0, fmt.Errorf("pprof output has no total line")
	}
	sum := 0
	for _, n := range layers {
		sum += n
	}
	if sum != total {
		return nil, 0, fmt.Errorf("pprof rows sum to %d samples, total is %d", sum, total)
	}
	return layers, total, nil
}

// profile is a CPU profile of the benchmark process being written.
type profile struct {
	path string
	f    *os.File
}

func startProfile(path string) (*profile, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return &profile{path: path, f: f}, nil
}

// stop ends the profile and folds it by layer into shares of all
// samples, via the offline pprof tool's text output.
func (p *profile) stop() (map[string]float64, int, error) {
	pprof.StopCPUProfile()
	if err := p.f.Close(); err != nil {
		return nil, 0, err
	}
	cmd := exec.Command("go", "tool", "pprof", "-top", "-nodecount=0", "-nodefraction=0",
		"-sample_index=samples", "-symbolize=none", p.path)
	cmd.Dir = filepath.Dir(p.path)
	out, err := cmd.Output()
	if err != nil {
		return nil, 0, fmt.Errorf("go tool pprof: %w", err)
	}
	if err := os.WriteFile(p.path+".top.txt", out, 0o644); err != nil {
		return nil, 0, err
	}
	counts, total, err := parseTop(string(out))
	if err != nil {
		return nil, 0, err
	}
	shares := make(map[string]float64, len(cpuLayers))
	for _, l := range cpuLayers {
		if total > 0 {
			shares[l] = float64(counts[l]) / float64(total)
		} else {
			shares[l] = 0
		}
	}
	return shares, total, nil
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMiB is the process's peak resident set so far, in MiB.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
