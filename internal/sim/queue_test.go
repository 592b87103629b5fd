package sim

import (
	"container/heap"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// refHeap is an independent container/heap reference implementation of
// the (at, seq) priority queue, deliberately kept as the old kernel
// heap was written. The differential test below checks that eventQueue
// pops the exact same sequence through every representation switch.
type refHeap []event

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	return h[i].at < h[j].at || (h[i].at == h[j].at && h[i].seq < h[j].seq)
}
func (h refHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x interface{}) { *h = append(*h, x.(event)) }
func (h *refHeap) Pop() interface{} {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}

// queueRegime is one random stream shape. Delta draws the offset of a
// new event's timestamp from the current simulated time.
type queueRegime struct {
	name  string
	delta func(r *rand.Rand) Time
	// kernel replaces the random push/pop mix with the kernel's op
	// shape: every step pops one event and then pushes 0, 1 or 2
	// successors, so most pops leave a hole that a push fills and some
	// leave it pending for the next reader.
	kernel bool
}

// logUniformDelay draws a delay log-uniformly over [4ns, 2us): the
// range of successor delays measured on the serial SocialNetwork run.
func logUniformDelay(r *rand.Rand) Time {
	return Time(float64(4*Nanosecond) * math.Pow(500, r.Float64()))
}

// TestEventQueueDifferential drives eventQueue and the container/heap
// reference with identical seed-derived streams across regimes chosen
// to cross every internal boundary: staying in plain-heap mode,
// converting to the ladder and back (push bursts over ladderOn, drains
// under ladderOff), rung-window promotion, far-heap refills (offsets
// far beyond the 256-bucket near window), heavy (at, seq)
// tie-breaking, and the heap-mode hole a pop leaves for the next push
// (the kernel-shape regime). Pops must match exactly: (at, seq) is a
// unique total order, so any divergence is a queue bug, not a tie
// ambiguity.
func TestEventQueueDifferential(t *testing.T) {
	regimes := []queueRegime{
		// Sub-bucket offsets: everything lands in the active rung window
		// or the first buckets; exercises rung pushes and tie ordering.
		{"dense-ties", func(r *rand.Rand) Time {
			return Time(r.Intn(3)) * (bucketWidth / 4)
		}, false},
		// Service-time scale offsets: spreads events across the near
		// window, exercising bucket appends and rung promotion.
		{"near-window", func(r *rand.Rand) Time {
			return Time(r.Int63n(int64(numBuckets) * int64(bucketWidth) / 2))
		}, false},
		// Mostly near, occasionally far beyond the horizon: exercises
		// the far heap and the near-window refill path.
		{"far-refill", func(r *rand.Rand) Time {
			if r.Intn(8) == 0 {
				return Time(r.Int63n(int64(bucketWidth) * numBuckets * 50))
			}
			return Time(r.Int63n(int64(bucketWidth) * 4))
		}, false},
		// Pre-scheduled-arrival shape: a huge spread, so almost all
		// events start in the far heap and refills repeat.
		{"arrivals", func(r *rand.Rand) Time {
			return Time(r.Int63n(int64(Millisecond)))
		}, false},
		// Kernel-shape: pop-then-schedule steps at heap-mode occupancy,
		// probing Len and minAt while the popped root's hole is pending.
		{"kernel-shape", logUniformDelay, true},
	}
	for _, reg := range regimes {
		for seed := int64(1); seed <= 4; seed++ {
			t.Run(reg.name, func(t *testing.T) {
				r := rand.New(rand.NewSource(seed * 7919))
				var q eventQueue
				ref := refHeap{}
				var now Time // kernel invariant: pushes are never in the past
				var seq uint64
				push := func() {
					seq++
					e := event{at: now + reg.delta(r), seq: seq}
					q.push(e)
					heap.Push(&ref, e)
				}
				pop := func() bool {
					if ref.Len() == 0 {
						return false
					}
					want := heap.Pop(&ref).(event)
					got := q.pop()
					if got.at != want.at || got.seq != want.seq {
						t.Fatalf("seed %d: pop mismatch: got (at=%d seq=%d), want (at=%d seq=%d)",
							seed, got.at, got.seq, want.at, want.seq)
					}
					now = got.at
					return true
				}

				checkLen := func() {
					if q.Len() != ref.Len() {
						t.Fatalf("seed %d: len mismatch: queue %d, ref %d", seed, q.Len(), ref.Len())
					}
				}
				// minAt must agree with the reference's head and must
				// not perturb subsequent pops (it may promote a rung or
				// settle a hole).
				checkMin := func() {
					if got, want := q.minAt(), ref[0].at; got != want {
						t.Fatalf("seed %d: minAt = %d, want %d", seed, got, want)
					}
				}

				if reg.kernel {
					for i := 0; i < 64; i++ {
						push()
					}
					for i := 0; i < 20000; i++ {
						if !pop() {
							push()
							continue
						}
						checkLen()
						if q.Len() > 0 && r.Intn(4) == 0 {
							checkMin()
						}
						for n := r.Intn(3); n > 0; n-- {
							push()
						}
					}
				} else {
					// Burst high above ladderOn to force ladder mode, then
					// interleave pushes and pops with a drain bias,
					// crossing ladderOff (back to heap mode) and climbing
					// again.
					for i := 0; i < 3*ladderOn; i++ {
						push()
					}
					for i := 0; i < 20000; i++ {
						checkLen()
						if r.Intn(5) < 2 && q.Len() < 4*ladderOn {
							push()
						} else if !pop() {
							push()
						}
						if q.Len() > 0 && r.Intn(16) == 0 {
							checkMin()
						}
					}
				}
				// Full drain: every remaining event must still match.
				for pop() {
				}
				if q.Len() != 0 {
					t.Fatalf("seed %d: queue reports %d events after drain", seed, q.Len())
				}
			})
		}
	}
}

// TestEventQueueSameInstantOrder pins the determinism contract at its
// sharpest point: many events at the identical timestamp must pop in
// scheduling order, across heap mode, a ladder conversion, and a drain.
func TestEventQueueSameInstantOrder(t *testing.T) {
	var q eventQueue
	const n = 2 * ladderOn // crosses the ladder conversion mid-burst
	for i := 0; i < n; i++ {
		q.push(event{at: 42 * Microsecond, seq: uint64(i + 1)})
	}
	for i := 0; i < n; i++ {
		e := q.pop()
		if e.seq != uint64(i+1) {
			t.Fatalf("pop %d: seq %d, want %d", i, e.seq, i+1)
		}
	}
}

// queueRef pairs an eventQueue with the container/heap reference for
// the scripted tests below.
type queueRef struct {
	t   *testing.T
	q   eventQueue
	ref refHeap
	seq uint64
}

func (p *queueRef) push(at Time) {
	p.seq++
	e := event{at: at, seq: p.seq, fn: func() {}}
	p.q.push(e)
	heap.Push(&p.ref, e)
}

func (p *queueRef) pop() event {
	p.t.Helper()
	want := heap.Pop(&p.ref).(event)
	got := p.q.pop()
	if got.at != want.at || got.seq != want.seq {
		p.t.Fatalf("pop mismatch: got (at=%d seq=%d), want (at=%d seq=%d)", got.at, got.seq, want.at, want.seq)
	}
	if p.q.Len() != p.ref.Len() {
		p.t.Fatalf("len mismatch after pop: queue %d, ref %d", p.q.Len(), p.ref.Len())
	}
	return got
}

func (p *queueRef) drain() {
	p.t.Helper()
	for p.ref.Len() > 0 {
		p.pop()
	}
	if p.q.Len() != 0 {
		p.t.Fatalf("queue reports %d events after drain", p.q.Len())
	}
}

// TestEventQueueHoleEdges covers the two hole states the differential
// streams reach only by chance: a push burst that crosses ladderOn
// while a hole is pending, and the hole left by popping the last event.
func TestEventQueueHoleEdges(t *testing.T) {
	t.Run("burst-over-ladderOn", func(t *testing.T) {
		p := &queueRef{t: t}
		r := rand.New(rand.NewSource(3))
		for i := 0; i < ladderOn-1; i++ {
			p.push(logUniformDelay(r))
		}
		now := p.pop().at
		if p.q.ladder || !p.q.hole {
			t.Fatalf("after pop: ladder=%v hole=%v, want a pending heap-mode hole", p.q.ladder, p.q.hole)
		}
		// The first push fills the hole; the burst then crosses ladderOn.
		for i := 0; i < ladderOn; i++ {
			p.push(now + logUniformDelay(r))
		}
		if !p.q.ladder || p.q.hole {
			t.Fatalf("after burst: ladder=%v hole=%v, want ladder mode and no hole", p.q.ladder, p.q.hole)
		}
		p.drain()
	})
	t.Run("empty-hole", func(t *testing.T) {
		p := &queueRef{t: t}
		p.push(10)
		p.pop()
		if p.q.Len() != 0 || !p.q.hole {
			t.Fatalf("after popping the last event: Len=%d hole=%v, want 0 and a pending hole", p.q.Len(), p.q.hole)
		}
		if p.q.heap[0].fn != nil {
			t.Fatalf("the hole still references the popped callback")
		}
		p.push(30)
		if got := p.q.minAt(); got != 30 {
			t.Fatalf("minAt = %d, want 30", got)
		}
		p.pop()
		// Empty hole again; refill it with a burst and drain in order.
		p.push(50)
		p.push(40)
		p.push(40)
		p.drain()
		if !p.q.hole {
			t.Fatalf("drained queue has no pending hole")
		}
	})
}

// BenchmarkEventQueueHold is the classic hold model: each op pops the
// minimum and pushes one successor a log-uniform 4ns-2us later.
// Occupancy 64 keeps the queue in heap mode, where each pop fuses with
// the push that follows it; 1024 keeps it in ladder mode.
func BenchmarkEventQueueHold(b *testing.B) {
	for _, occ := range []int{64, 1024} {
		b.Run(fmt.Sprintf("occupancy=%d", occ), func(b *testing.B) {
			r := rand.New(rand.NewSource(1))
			delays := make([]Time, 4096)
			for i := range delays {
				delays[i] = logUniformDelay(r)
			}
			var q eventQueue
			var seq uint64
			for i := 0; i < occ; i++ {
				seq++
				q.push(event{at: delays[i], seq: seq})
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e := q.pop()
				seq++
				q.push(event{at: e.at + delays[i%len(delays)], seq: seq})
			}
		})
	}
}
