package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"accelflow/internal/control"
	"accelflow/internal/serve"
)

// daemonIDs is the sweep-heavy experiment set daemon-mix draws from.
// fig14 and fig15 are left out: their throughput-search probe caps, not
// the request budget, set their cost.
var daemonIDs = []string{"fig11", "fig12", "fig13", "fig18", "fig19", "fig20", "sens2", "sens5", "resilience"}

const (
	// daemonExpRequests is the request budget of experiment jobs.
	daemonExpRequests = 50
	// daemonObsRequests is the observed jobs' budget (the quick cap).
	daemonObsRequests = 100
	// daemonSeqLen bounds the generated op sequence; a run stops early
	// (and says so) if it ever uses it all up.
	daemonSeqLen = 8000
	// repeatWindow is how many of the latest fresh bodies a repeat
	// draws from.
	repeatWindow = 8
)

// daemonBlock is the composition of every block of generated ops, in
// a per-block shuffled order: 6 fresh experiment jobs, 2 plain observed
// jobs, one observed job with a fault spec, one with a control spec,
// and 4 exact resubmissions (4/14, about 29%).
var daemonBlock = []string{"exp", "exp", "exp", "exp", "exp", "exp", "obs", "obs", "obs-fault", "obs-control", "repeat", "repeat", "repeat", "repeat"}

// jobPlan is the generated input of daemon-mix: the distinct job bodies
// and the sequence of body indices the clients submit.
type jobPlan struct {
	bodies []serve.JobRequest
	raw    [][]byte
	seq    []int
	repeat []bool
	// warm are bodies only the set-up submits, one per client.
	warm []int
}

func genPlan(seed int64, clients, n int) (*jobPlan, error) {
	rng := rand.New(rand.NewSource(seed))
	p := &jobPlan{}
	order := rng.Perm(len(daemonIDs))
	nexp := 0
	fresh := func(kind string) (int, error) {
		req := serve.JobRequest{Seed: rng.Int63n(1<<31) + 1, Quick: true}
		switch kind {
		case "exp":
			req.Type = serve.JobExperiment
			req.Experiment = daemonIDs[order[nexp%len(order)]]
			req.Requests = daemonExpRequests
			nexp++
		case "obs", "obs-fault", "obs-control":
			req.Type = serve.JobObserved
			req.Requests = daemonObsRequests
			if kind == "obs-fault" {
				// Remote-response loss only: fault windows are drawn over
				// a one-second simulated horizon, which would stretch a
				// run of a few simulated milliseconds, and its trace,
				// several hundred-fold.
				req.FaultLoss = 0.01
			}
			if kind == "obs-control" {
				req.Control = &control.Spec{Autoscale: &control.AutoscaleSpec{
					Target: control.TargetPE, UpUtil: 0.75, DownUtil: 0.25, MaxAdd: 2, MaxRemove: 1}}
			}
		}
		b, err := json.Marshal(req)
		if err != nil {
			return 0, err
		}
		p.bodies = append(p.bodies, req)
		p.raw = append(p.raw, b)
		return len(p.bodies) - 1, nil
	}
	for c := 0; c < clients; c++ {
		kind := "exp"
		if c%2 == 1 {
			kind = "obs"
		}
		i, err := fresh(kind)
		if err != nil {
			return nil, err
		}
		p.warm = append(p.warm, i)
	}
	var recent []int
	block := append([]string(nil), daemonBlock...)
	for len(p.seq) < n {
		rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		for _, kind := range block {
			if kind == "repeat" && len(recent) > 0 {
				p.seq = append(p.seq, recent[rng.Intn(len(recent))])
				p.repeat = append(p.repeat, true)
				continue
			}
			if kind == "repeat" {
				kind = "exp" // nothing to repeat yet
			}
			i, err := fresh(kind)
			if err != nil {
				return nil, err
			}
			p.seq = append(p.seq, i)
			p.repeat = append(p.repeat, false)
			if recent = append(recent, i); len(recent) > repeatWindow {
				recent = recent[1:]
			}
		}
	}
	p.seq, p.repeat = p.seq[:n], p.repeat[:n]
	return p, nil
}

// daemon is one in-process accelsimd: scheduler and HTTP handler
// behind an httptest server.
type daemon struct {
	sched *serve.Scheduler
	srv   *httptest.Server
}

func startDaemon(check bool) *daemon {
	cfg := serve.Config{Workers: 2, QueueDepth: 8, CacheEntries: 512}
	if check {
		// The checked daemon only ever sees distinct bodies, so a cache
		// would hold artifacts for nothing.
		cfg = serve.Config{Workers: 2, QueueDepth: 8, Check: true}
	}
	sched := serve.NewScheduler(cfg)
	api := serve.NewServer(sched)
	api.SetHeartbeat(15 * time.Second)
	return &daemon{sched: sched, srv: httptest.NewServer(api.Handler())}
}

func (d *daemon) close() {
	d.srv.Close()
	d.sched.Close()
}

// outcome is one daemon-mix op as the client saw it.
type outcome struct {
	body     int
	repeat   bool
	dur      time.Duration
	err      error
	refused  bool
	cached   bool
	observed bool
	id       string
	// values and artifact fingerprint the job's values/lines and its
	// trace artifact bytes.
	values, artifact [sha256.Size]byte
	artifactBytes    int
	submit, artT     time.Duration
	// cells counts NDJSON cell events; lastCell is when the last one
	// arrived, from the start of the op.
	cells    int
	start    time.Time
	lastCell time.Duration
	// queueWait and runT are StartedAt-SubmittedAt and
	// FinishedAt-StartedAt, fetched by traced runs for executed jobs.
	queueWait, runT time.Duration
}

// client submits jobs the way the accelsim CLI and tuner do: post, read
// the progress stream to EOF, fetch values, fetch the artifact.
type client struct {
	http *http.Client
}

func newClient() *client {
	// A job takes well under a second; the timeout turns a hung request
	// into a failed op instead of a run that never ends.
	return &client{http: &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: 8},
		Timeout:   60 * time.Second,
	}}
}

func (c *client) close() { c.http.CloseIdleConnections() }

func (c *client) do(base string, plan *jobPlan, body int, tr *tracer) outcome {
	o := outcome{body: body, observed: plan.bodies[body].Type == serve.JobObserved}
	op := tr.newOp()
	opSpan := tr.begin(op, 0, "op")
	o.start = time.Now()
	o.err = c.run(base, plan.raw[body], &o, tr, op, opSpan.id)
	o.dur = time.Since(o.start)
	opSpan.end()
	if o.err == nil && tr != nil && !o.cached {
		o.err = c.jobTimes(base, &o)
	}
	return o
}

func (c *client) run(base string, raw []byte, o *outcome, tr *tracer, op, parent int64) error {
	t := time.Now()
	sp := tr.begin(op, parent, "submit")
	resp, err := c.http.Post(base+"/v1/jobs", "application/json", bytes.NewReader(raw))
	if err != nil {
		sp.end()
		return err
	}
	var view serve.JobView
	err = json.NewDecoder(resp.Body).Decode(&view)
	resp.Body.Close()
	sp.end()
	o.submit = time.Since(t)
	switch {
	case resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode >= 500:
		// Turned away by admission control (429, 503) or failed (5xx).
		o.refused = true
		return fmt.Errorf("submission refused: status %d", resp.StatusCode)
	case resp.StatusCode != http.StatusAccepted:
		return fmt.Errorf("submit: status %d", resp.StatusCode)
	case err != nil:
		return fmt.Errorf("submit: %w", err)
	}
	o.id, o.cached = view.ID, view.Cached

	sp = tr.begin(op, parent, "progress")
	err = c.progress(base, o, tr, op, sp.id)
	sp.end()
	if err != nil {
		return err
	}

	sp = tr.begin(op, parent, "values")
	err = c.values(base, o)
	sp.end()
	if err != nil || !o.observed {
		return err
	}

	t = time.Now()
	sp = tr.begin(op, parent, "artifact")
	err = c.artifact(base, o)
	sp.end()
	o.artT = time.Since(t)
	return err
}

// progress reads the NDJSON stream to EOF, counting cell events and
// noting when the last arrived, and requires the final event to report
// state "done".
func (c *client) progress(base string, o *outcome, tr *tracer, op, parent int64) error {
	resp, err := c.http.Get(base + "/v1/jobs/" + o.id + "/progress")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("progress: status %d", resp.StatusCode)
	}
	var last serve.Event
	rd := bufio.NewReader(resp.Body)
	for {
		line, err := rd.ReadBytes('\n')
		if len(bytes.TrimSpace(line)) > 0 {
			var ev struct {
				serve.Event
				Type string `json:"type"`
			}
			if err := json.Unmarshal(line, &ev); err != nil {
				return fmt.Errorf("progress line %q: %w", line, err)
			}
			if ev.Type == "" { // heartbeats carry a type and no job state
				if ev.Event.Event == "cell" {
					o.cells++
					o.lastCell = time.Since(o.start)
					tr.mark(op, parent, "cell")
				}
				last = ev.Event
			}
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			return fmt.Errorf("progress: %w", err)
		}
	}
	if last.Event != "done" || last.State != serve.StateDone {
		return fmt.Errorf("job %s ended with event %q state %q: %s", o.id, last.Event, last.State, last.Error)
	}
	return nil
}

func (c *client) values(base string, o *outcome) error {
	resp, err := c.http.Get(base + "/v1/jobs/" + o.id + "/values")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("values: status %d", resp.StatusCode)
	}
	var v struct {
		Values map[string]float64 `json:"values"`
		Lines  []string           `json:"lines"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		return fmt.Errorf("values: %w", err)
	}
	// Re-encoding drops the per-submission job ID and orders map keys,
	// so equal results fingerprint equally.
	b, err := json.Marshal(struct {
		Values map[string]float64
		Lines  []string
	}{v.Values, v.Lines})
	if err != nil {
		return err
	}
	o.values = sha256.Sum256(b)
	return nil
}

func (c *client) artifact(base string, o *outcome) error {
	resp, err := c.http.Get(base + "/v1/jobs/" + o.id + "/artifacts/trace")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("artifact: status %d", resp.StatusCode)
	}
	h := sha256.New()
	n, err := io.Copy(h, resp.Body)
	if err != nil {
		return fmt.Errorf("artifact: %w", err)
	}
	o.artifactBytes = int(n)
	copy(o.artifact[:], h.Sum(nil))
	return nil
}

// jobTimes fetches the job's status for its queue wait and run time.
func (c *client) jobTimes(base string, o *outcome) error {
	resp, err := c.http.Get(base + "/v1/jobs/" + o.id)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status: status %d", resp.StatusCode)
	}
	var v serve.JobView
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		return fmt.Errorf("status: %w", err)
	}
	if !v.StartedAt.IsZero() && !v.FinishedAt.IsZero() {
		o.queueWait = v.StartedAt.Sub(v.SubmittedAt)
		o.runT = v.FinishedAt.Sub(v.StartedAt)
	}
	return nil
}

func (c *client) cacheStats(base string) (serve.CacheStats, error) {
	resp, err := c.http.Get(base + "/v1/cache")
	if err != nil {
		return serve.CacheStats{}, err
	}
	defer resp.Body.Close()
	var v struct {
		Stats serve.CacheStats `json:"stats"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		return serve.CacheStats{}, fmt.Errorf("cache stats: %w", err)
	}
	return v.Stats, nil
}

// fingerprint is what every submission of one body must return.
type fingerprint struct {
	values, artifact [sha256.Size]byte
}

// daemonWorkload is daemon-mix: nproc closed-loop clients against an
// in-process daemon with the accelsimd defaults, checked against a
// second daemon that runs with the invariant checker on.
type daemonWorkload struct {
	plan    *jobPlan
	clients int
	timed   *daemon
	checked *daemon
	c       *client
	next    atomic.Int64
	// ops collects every op of every phase for the output check.
	ops []*outcome
}

func newDaemonMix(seed int64) (*daemonWorkload, error) {
	clients := runtime.GOMAXPROCS(0)
	plan, err := genPlan(seed, clients, daemonSeqLen)
	if err != nil {
		return nil, err
	}
	return &daemonWorkload{plan: plan, clients: clients, c: newClient()}, nil
}

// setup starts both daemons, runs the warm-up bodies on the checked
// daemon (the verification op) and then, one per client concurrently,
// on the timed daemon, and requires equal outputs.
func (w *daemonWorkload) setup() error {
	w.checked = startDaemon(true)
	w.timed = startDaemon(false)
	refs := w.reference(w.plan.warm)
	outs := make([]outcome, len(w.plan.warm))
	var wg sync.WaitGroup
	for i, b := range w.plan.warm {
		wg.Add(1)
		go func(i, b int) {
			defer wg.Done()
			outs[i] = w.c.do(w.timed.srv.URL, w.plan, b, nil)
		}(i, b)
	}
	wg.Wait()
	for _, o := range outs {
		if o.err != nil {
			return fmt.Errorf("daemon-mix: warm-up op: %w", o.err)
		}
		if ref, ok := refs[o.body]; !ok || (fingerprint{o.values, o.artifact}) != ref {
			return fmt.Errorf("daemon-mix: warm-up op differs from the checked verification op")
		}
	}
	return nil
}

// reference runs each body once with the invariant checker on, nproc
// at a time. A body whose checked run fails has no entry. The checked
// daemon is replaced every refChunk bodies: a daemon keeps every job it
// ran, traces included, so one daemon for a whole run's bodies would
// hold them all at once.
func (w *daemonWorkload) reference(bodies []int) map[int]fingerprint {
	refs := make(map[int]fingerprint, len(bodies))
	for len(bodies) > 0 {
		n := min(refChunk, len(bodies))
		w.referenceOn(bodies[:n], refs)
		bodies = bodies[n:]
		if len(bodies) > 0 {
			w.checked.close()
			w.checked = startDaemon(true)
		}
	}
	return refs
}

// refChunk is how many bodies one checked daemon runs.
const refChunk = 16

func (w *daemonWorkload) referenceOn(bodies []int, refs map[int]fingerprint) {
	var (
		mu   sync.Mutex
		next atomic.Int64
		wg   sync.WaitGroup
	)
	for c := 0; c < w.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(bodies) {
					return
				}
				o := w.c.do(w.checked.srv.URL, w.plan, bodies[i], nil)
				if o.err != nil {
					continue
				}
				mu.Lock()
				refs[bodies[i]] = fingerprint{o.values, o.artifact}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
}

func (w *daemonWorkload) loop(deadline time.Time, minOps int, tr *tracer) *phase {
	p := &phase{}
	c0, err := w.c.cacheStats(w.timed.srv.URL)
	if err != nil {
		p.errs = append(p.errs, err)
	}
	var (
		mu   sync.Mutex
		done atomic.Int64
		wg   sync.WaitGroup
	)
	for c := 0; c < w.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) || int(done.Load()) < minOps {
				i := int(w.next.Add(1) - 1)
				if i >= len(w.plan.seq) {
					return
				}
				o := w.c.do(w.timed.srv.URL, w.plan, w.plan.seq[i], tr)
				o.repeat = w.plan.repeat[i]
				mu.Lock()
				p.ops = append(p.ops, &o)
				if len(p.ops) == minOps {
					p.rss = peakRSSMiB()
				}
				mu.Unlock()
				done.Add(1)
			}
		}()
	}
	wg.Wait()
	c1, err := w.c.cacheStats(w.timed.srv.URL)
	if err != nil {
		p.errs = append(p.errs, err)
	}
	if int(w.next.Load()) >= len(w.plan.seq) {
		p.errs = append(p.errs, fmt.Errorf("daemon-mix: used up all %d generated ops", len(w.plan.seq)))
	}
	for _, o := range p.ops {
		p.durs = append(p.durs, o.dur)
		p.attempted++
	}
	p.hits = int(c1.Hits - c0.Hits)
	p.lookups = p.hits + int(c1.Misses-c0.Misses)
	p.coalesced = int(c1.Coalesced - c0.Coalesced)
	w.ops = append(w.ops, p.ops...)
	return p
}

// verify runs every distinct body the phases used on the checked
// daemon and counts, in each phase, the ops that errored, were refused
// or returned other values or artifact bytes than the checked run.
func (w *daemonWorkload) verify(phases ...*phase) error {
	seen := map[int]bool{}
	var bodies []int
	for _, o := range w.ops {
		if !seen[o.body] {
			seen[o.body] = true
			bodies = append(bodies, o.body)
		}
	}
	refs := w.reference(bodies)
	for _, p := range phases {
		p.failed = countFailed(p.ops, refs)
	}
	return nil
}

// countFailed counts ops that errored, were refused, or whose outputs
// differ from the checked run of their body or whose body's checked run
// failed.
func countFailed(ops []*outcome, refs map[int]fingerprint) int {
	n := 0
	for _, o := range ops {
		ref, ok := refs[o.body]
		if o.err != nil || !ok || (fingerprint{o.values, o.artifact}) != ref {
			n++
		}
	}
	return n
}

func (w *daemonWorkload) layers(untraced, traced, _ *phase, m map[string]float64, rep *report) {
	var cachedDurs, submit, artT, cells, queue, runT []time.Duration
	var refused, repeats, cached, expRan, cellEvents, obsOps, artBytes int
	for _, o := range untraced.ops {
		submit = append(submit, o.submit)
		if o.refused {
			refused++
		}
		if o.repeat {
			repeats++
		}
		if o.cached {
			cached++
			cachedDurs = append(cachedDurs, o.dur)
		} else if !o.observed && o.err == nil {
			expRan++
			cellEvents += o.cells
			if o.cells > 0 {
				cells = append(cells, o.lastCell/time.Duration(o.cells))
			}
		}
		if o.observed && o.err == nil {
			obsOps++
			artBytes += o.artifactBytes
			artT = append(artT, o.artT)
		}
	}
	for _, o := range traced.ops {
		if o.err == nil && !o.cached && o.runT > 0 {
			queue = append(queue, o.queueWait)
			runT = append(runT, o.runT)
		}
	}
	hit := ratio{untraced.hits, untraced.lookups}
	m["serve.cache_hit_ratio"] = hit.Value()
	m["serve.coalesced"] = float64(untraced.coalesced)
	m["serve.refused"] = float64(refused)
	m["experiments.cells_per_job"] = share(float64(cellEvents), float64(expRan))
	m["obs.trace_bytes_per_request"] = share(float64(artBytes), float64(obsOps*daemonObsRequests))

	n := len(untraced.ops)
	rep.add("daemon.repeat_share", "ratio", ratio{repeats, n}.Value(), ratio{repeats, n}.String()+" ops were exact resubmissions")
	rep.add("daemon.cached_share", "ratio", ratio{cached, n}.Value(), ratio{cached, n}.String()+" ops came back cached:true")
	rep.add("serve.cache_hit_ratio", "ratio", hit.Value(), hit.String()+" cache lookups hit (GET /v1/cache)")
	medianMs := func(name string, ds []time.Duration, note string) {
		rep.add(name, "ms", median(ms(ds)), fmt.Sprintf("n=%d; %s", len(ds), note))
	}
	medianMs("serve.submit_ms_p50", submit, "POST /v1/jobs")
	medianMs("serve.cached_op_ms_p50", cachedDurs, "ops that came back cached:true")
	medianMs("serve.artifact_ms_p50", artT, "GET trace artifact of observed jobs")
	medianMs("experiments.cell_ms_p50", cells, "per executed experiment job: time from POST to its last NDJSON cell event, over its cell count")
	medianMs("serve.queue_wait_ms_p50", queue, "StartedAt-SubmittedAt of executed jobs, traced phase")
	medianMs("serve.run_ms_p50", runT, "FinishedAt-StartedAt of executed jobs, traced phase")
}

func (w *daemonWorkload) close() {
	w.c.close()
	if w.timed != nil {
		w.timed.close()
	}
	if w.checked != nil {
		w.checked.close()
	}
}
