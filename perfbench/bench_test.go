package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
)

func TestPercentileSelection(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1, unsorted
	}
	for _, c := range []struct {
		p          float64
		want       float64
		wantBeyond int
	}{
		{50, 50, 50},
		{90, 90, 10},
		{99, 99, 1},
		{100, 100, 0},
		{0.5, 1, 99},
	} {
		v, beyond := percentile(xs, c.p)
		if v != c.want || beyond != c.wantBeyond {
			t.Errorf("p%v = %v with %d beyond, want %v with %d", c.p, v, beyond, c.want, c.wantBeyond)
		}
	}
	if xs[0] != 100 {
		t.Errorf("percentile sorted its input in place")
	}
	// Fewer than 100 samples leave fewer than ten beyond p90, which is
	// why a measured run takes at least minOps.
	if _, beyond := percentile(xs[:minOps-1], 90); beyond >= 10 {
		t.Errorf("99 samples leave %d beyond p90, want fewer than 10", beyond)
	}
	if _, beyond := percentile(xs[:minOps], 90); beyond != 10 {
		t.Errorf("minOps samples leave %d beyond p90, want 10", beyond)
	}
	if v, beyond := percentile(nil, 50); v != 0 || beyond != 0 {
		t.Errorf("empty input gave %v, %d", v, beyond)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median = %v, want 2", got)
	}
}

func TestPrintedSampleCount(t *testing.T) {
	w := &simWorkload{prepare: fakeRuns(simRun{events: 7, requests: 1}), ref: simRun{events: 7, requests: 1}}
	var out strings.Builder
	res, err := measured(w, 0, []float64{1, 2, 3}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if res.Attempted != minOps || res.Failed != 0 || !res.Correct {
		t.Fatalf("result %+v, want %d attempted and none failed", res, minOps)
	}
	for _, want := range []string{"op_ms_p90", "n=100, 10 beyond", "median of 3 set-ups", "0.0000 (0/100)"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output lacks %q:\n%s", want, out.String())
		}
	}
	if got := res.Metrics["setup_s"].Value; got != 2 {
		t.Errorf("setup_s = %v, want the median 2", got)
	}
	if len(res.Metrics) != len(endToEnd) {
		t.Errorf("%d metrics, want the %d end-to-end ones", len(res.Metrics), len(endToEnd))
	}
}

func TestFailedFracBase(t *testing.T) {
	r := failedFrac(3, 200)
	if r.Value() != 0.015 || r.String() != "0.0150 (3/200)" {
		t.Errorf("failedFrac(3, 200) = %v %q", r.Value(), r.String())
	}
	if r := failedFrac(0, 0); r.Value() != 0 {
		t.Errorf("empty base gave %v", r.Value())
	}
}

// fakeRuns stands in for a simulation: every run returns r.
func fakeRuns(r simRun) func(bool, int) func() (simRun, error) {
	return func(bool, int) func() (simRun, error) {
		return func() (simRun, error) { return r, nil }
	}
}

func TestSimMismatchCounted(t *testing.T) {
	ref := simRun{model: map[string]float64{"model.sim.elapsed_us": 10}, events: 5, requests: 2}
	bad := simRun{model: map[string]float64{"model.sim.elapsed_us": 11}, events: 5, requests: 2}
	w := &simWorkload{prepare: fakeRuns(bad), ref: ref}
	p := &phase{}
	w.op(p, nil, 1)
	if p.attempted != 1 || p.failed != 1 {
		t.Errorf("mismatched run: %d attempted, %d failed; want 1, 1", p.attempted, p.failed)
	}
	w.prepare = fakeRuns(ref)
	w.op(p, nil, 1)
	if p.attempted != 2 || p.failed != 1 {
		t.Errorf("matching run counted as failed: %d attempted, %d failed", p.attempted, p.failed)
	}
	if f := failedFrac(p.failed, p.attempted); f.Value() != 0.5 {
		t.Errorf("failed_frac = %v, want 0.5", f.Value())
	}
}

func TestDaemonRefusedAndMismatchCounted(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "1")
		http.Error(w, `{"error":"queue full"}`, http.StatusTooManyRequests)
	}))
	defer srv.Close()
	plan, err := genPlan(1, 2, 20)
	if err != nil {
		t.Fatal(err)
	}
	c := newClient()
	defer c.close()
	refused := c.do(srv.URL, plan, plan.seq[0], nil)
	if !refused.refused || refused.err == nil {
		t.Fatalf("429 submission: refused=%v err=%v", refused.refused, refused.err)
	}
	good := fingerprint{values: [32]byte{1}, artifact: [32]byte{2}}
	refs := map[int]fingerprint{0: good, 1: good, 2: good}
	ops := []*outcome{
		{body: 0, values: good.values, artifact: good.artifact},
		{body: 1, values: good.values, artifact: [32]byte{9}}, // artifact bytes differ
		{body: 2, err: refused.err, refused: true},
		{body: 3, values: good.values, artifact: good.artifact}, // its checked run failed
	}
	if got := countFailed(ops, refs); got != 3 {
		t.Errorf("countFailed = %d, want 3 (mismatch, refusal, failed checked run)", got)
	}
}

func TestGenPlan(t *testing.T) {
	a, err := genPlan(5, 2, 1400)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := genPlan(5, 2, 1400)
	for i := range a.seq {
		if string(a.raw[a.seq[i]]) != string(b.raw[b.seq[i]]) {
			t.Fatalf("op %d differs between two plans of one seed", i)
		}
	}
	c, _ := genPlan(6, 2, 1400)
	if string(a.raw[a.seq[0]]) == string(c.raw[c.seq[0]]) {
		t.Errorf("seeds 5 and 6 start with the same body")
	}
	repeats, observed := 0, 0
	firstUse := map[int]int{}
	for i, body := range a.seq {
		if a.repeat[i] {
			repeats++
			if first, ok := firstUse[body]; !ok || first >= i {
				t.Fatalf("op %d repeats body %d that was not submitted before", i, body)
			}
		} else if _, ok := firstUse[body]; ok {
			t.Fatalf("op %d is fresh but body %d was submitted before", i, body)
		}
		if _, ok := firstUse[body]; !ok {
			firstUse[body] = i
		}
		if a.bodies[body].Type == "observed" {
			observed++
		}
	}
	share := float64(repeats) / float64(len(a.seq))
	if share < 0.25 || share > 1.0/3 {
		t.Errorf("repeat share %.3f (%d/%d), want between 1/4 and 1/3", share, repeats, len(a.seq))
	}
	if observed == 0 {
		t.Errorf("no observed jobs")
	}
	for _, w := range a.warm {
		if _, ok := firstUse[w]; ok {
			t.Errorf("warm-up body %d is also a timed op", w)
		}
	}
}

func TestFoldSymbol(t *testing.T) {
	for fn, want := range map[string]string{
		"accelflow/internal/sim.(*Kernel).RunCtx":             "cpu.sim",
		"accelflow/internal/sim.heapDownEv":                   "cpu.sim",
		"accelflow/internal/sim.(*Resource).advance (inline)": "cpu.sim",
		"accelflow/internal/engine.(*gluePass).run":           "cpu.engine",
		"accelflow/internal/accel.(*peTask).done":             "cpu.accel",
		"accelflow/internal/serve.(*Scheduler).worker":        "cpu.serve",
		"accelflow/internal/services.SocialNetwork":           "cpu.other",
		"runtime.mallocgc":                                    "cpu.gc",
		"runtime.mallocgcSmallScanNoHeader":                   "cpu.gc",
		"runtime.(*mspan).writeHeapBitsSmall":                 "cpu.gc",
		"runtime.memclrNoHeapPointers":                        "cpu.gc",
		"runtime.scanobject":                                  "cpu.gc",
		"gcWriteBarrier":                                      "cpu.gc",
		"runtime.findRunnable":                                "cpu.sched",
		"runtime.futex":                                       "cpu.sched",
		"runtime.memmove":                                     "cpu.runtime",
		"aeshashbody":                                         "cpu.runtime",
		"internal/runtime/maps.(*Iter).Next":                  "cpu.runtime",
		"math/rand.(*rngSource).Int63":                        "cpu.rand",
		"net/http.(*conn).serve":                              "cpu.http",
		"encoding/json.(*decodeState).object":                 "cpu.http",
		"strconv.ryuFtoaShortest":                             "cpu.stdlib",
		"sort.symMerge_func":                                  "cpu.stdlib",
		"main.(*simWorkload).op":                              "cpu.bench",
		"crypto/sha256.block":                                 "cpu.bench",
		"github.com/x/y.F":                                    "cpu.other",
	} {
		if got := foldSymbol(fn); got != want {
			t.Errorf("foldSymbol(%q) = %s, want %s", fn, got, want)
		}
	}
	layers := map[string]bool{}
	for _, l := range cpuLayers {
		layers[l] = true
	}
	for l := range repoLayers {
		if !layers["cpu."+l] {
			t.Errorf("repo layer %s has no cpu.%s metric", l, l)
		}
	}
}

const sampleTop = `File: perfbench
Type: samples
Duration: 2.11s, Total samples = 10
Showing nodes accounting for 10, 100% of 10 total
      flat  flat%   sum%        cum   cum%
         4 40.00% 40.00%          5 50.00%  accelflow/internal/sim.heapDownEv
         3 30.00% 70.00%          3 30.00%  runtime.mallocgc
         2 20.00% 90.00%          9 90.00%  accelflow/internal/sim.(*Kernel).RunCtx (inline)
         1 10.00%   100%          1 10.00%  math/rand.(*Rand).Int63
`

func TestParseTop(t *testing.T) {
	got, total, err := parseTop(sampleTop)
	if err != nil {
		t.Fatal(err)
	}
	if total != 10 || got["cpu.sim"] != 6 || got["cpu.gc"] != 3 || got["cpu.rand"] != 1 {
		t.Errorf("parseTop = %v of %d", got, total)
	}
	if _, _, err := parseTop(strings.Replace(sampleTop, "of 10 total", "of 11 total", 1)); err == nil {
		t.Errorf("rows that do not sum to the total were accepted")
	}
	if _, _, err := parseTop("no header"); err == nil {
		t.Errorf("text without a total line was accepted")
	}
}

func TestMetricNames(t *testing.T) {
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), printedEndToEnd...), perLayer...) {
		if !validName(d.Name) || !validUnit(d.Unit) || (d.Better != "lower" && d.Better != "higher") {
			t.Errorf("bad metric %+v", d)
		}
		if seen[d.Name] {
			t.Errorf("metric %s listed twice", d.Name)
		}
		seen[d.Name] = true
	}
	for _, w := range workloadNames {
		if !validName(w) {
			t.Errorf("bad workload name %q", w)
		}
	}
	for _, bad := range []string{"", "_x", "a b", "cpu:sim", strings.Repeat("a", 65)} {
		if validName(bad) {
			t.Errorf("validName(%q) = true", bad)
		}
	}
	for _, bad := range []string{"", "m s", strings.Repeat("u", 17)} {
		if validUnit(bad) {
			t.Errorf("validUnit(%q) = true", bad)
		}
	}
}

// TestBenchmarkJSON keeps the repository's BENCHMARK.json in step with
// the metrics and workloads the benchmark emits.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloadNames, ",") {
		t.Errorf("BENCHMARK.json workloads %v, benchmark runs %v", names, workloadNames)
	}
	same := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, benchmark emits %d", kind, len(got), len(want))
			return
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, benchmark %+v", kind, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
}
