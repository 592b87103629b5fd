package sim

// eventQueue is the kernel's pending-event store. Events pop in strict
// (at, seq) order — the total order that makes runs deterministic —
// through one of two representations chosen by occupancy:
//
//   - heap: a concrete binary min-heap. Unlike container/heap there is
//     no interface boxing (the old heap allocated one interface{} per
//     Push and per Pop — ~27% of all run allocations) and no dynamic
//     dispatch on Less/Swap. Best at low occupancy, where a bucketed
//     structure would scan mostly-empty buckets per pop.
//
//   - ladder: a calendar/ladder queue for high-rate runs. A near
//     window of numBuckets fixed-width buckets starting at bucketStart
//     takes O(1) appends; the bucket being drained (the "rung") is a
//     small concrete heap; everything beyond the near horizon sits in
//     a far heap (far timeouts, the next arrival of a slow source,
//     stimulus a harness schedules up front). Scheduling a
//     near-future event — the overwhelmingly common case in a busy
//     run — costs O(1) or O(log rung) instead of O(log total), and
//     the rung heap stays small because it only ever holds one bucket
//     width of events, not every far-future event in the queue.
//
// In heap mode, pop and the push that follows it are fused. Nearly
// every event pops the root and then schedules exactly one successor,
// usually a few ns to a few us out, i.e. near the top of the heap. So
// pop returns heap[0] and leaves the root as a hole (the stale slot
// stays in place, callback cleared, count already decremented). If the
// callback's first push arrives while the hole is pending, the new
// event drops into the root and sifts down, typically stopping after a
// level or two — one short sift per event instead of a full-height
// sift-down of the last element plus a sift-up of the new one. Every
// other reader (pop, minAt, toLadder) first settles the hole the
// classic way: the last element moves into the root and sifts down.
// The queue is therefore a valid (at, seq) heap whenever it is read,
// and Len is exact throughout. All sifts move a hole and write the
// element once instead of swapping at every level.
//
// The representations order identically (the comparison key (at, seq)
// is unique, so any correct priority queue pops the same sequence),
// which TestEventQueueDifferential proves against a container/heap
// reference; the occupancy thresholds are therefore performance
// tuning, never a correctness knob. Conversion happens with hysteresis
// (ladderOn >> ladderOff) so an oscillating queue cannot thrash.
const (
	// ladderOn converts heap -> ladder when occupancy reaches it;
	// ladderOff converts back when occupancy falls to it. The gap
	// amortizes the O(n) conversions over >= ladderOn-ladderOff ops.
	ladderOn  = 512
	ladderOff = 128

	// bucketShift fixes the bucket width at 2^20 ps ~= 1.05us: around
	// the accelerator service-time scale, so one bucket holds a burst
	// of near-future events while far ones (timeouts, arrivals
	// microseconds to milliseconds out) stay in the far heap.
	bucketShift = 20
	bucketWidth = Time(1) << bucketShift
	numBuckets  = 256
)

type eventQueue struct {
	count  int
	ladder bool

	// heap mode. While hole is set, heap[0] is a stale slot left by
	// pop (count excludes it) and heap[1:] holds the live events.
	heap []event
	hole bool

	// ladder mode.
	rung        []event // concrete min-heap of the bucket being drained
	activeEnd   Time    // exclusive end of the rung's window
	bucketStart Time    // start of buckets[0]'s window
	cur         int     // index of the bucket last promoted to the rung
	buckets     [numBuckets][]event
	far         []event // concrete min-heap beyond the near horizon
}

// evLess is the total event order: time, then scheduling sequence.
func evLess(a, b *event) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// heapPushEv appends e and sifts it up, moving each larger parent
// down into the hole and writing e once where it lands.
func heapPushEv(h *[]event, e event) {
	s := append(*h, e)
	i := len(s) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !evLess(&e, &s[p]) {
			break
		}
		s[i] = s[p]
		i = p
	}
	s[i] = e
	*h = s
}

func heapPopEv(h *[]event) event {
	s := *h
	top := s[0]
	n := len(s) - 1
	last := s[n]
	s[n] = event{} // drop the callback reference for GC
	s = s[:n]
	*h = s
	if n > 0 {
		heapDownEv(s, 0, last)
	}
	return top
}

// heapDownEv places e at the hole i of s, whose subtrees below i are
// heaps: each smaller child moves up into the hole, and e is written
// once where it lands.
func heapDownEv(s []event, i int, e event) {
	n := len(s)
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		m := l
		if r := l + 1; r < n && evLess(&s[r], &s[l]) {
			m = r
		}
		if !evLess(&s[m], &e) {
			break
		}
		s[i] = s[m]
		i = m
	}
	s[i] = e
}

func heapInitEv(s []event) {
	for i := len(s)/2 - 1; i >= 0; i-- {
		heapDownEv(s, i, s[i])
	}
}

// Len reports queued events.
func (q *eventQueue) Len() int { return q.count }

// settle removes a pending heap-mode hole: the last element moves into
// the root and sifts down, exactly the removal pop deferred.
func (q *eventQueue) settle() {
	if q.hole {
		q.hole = false
		heapPopEv(&q.heap)
	}
}

// push inserts an event, converting to ladder form at high occupancy.
func (q *eventQueue) push(e event) {
	q.count++
	if !q.ladder {
		if q.hole {
			// Fused with the preceding pop: the new event takes the
			// vacated root and sifts down.
			q.hole = false
			heapDownEv(q.heap, 0, e)
		} else {
			heapPushEv(&q.heap, e)
		}
		if q.count >= ladderOn {
			q.toLadder()
		}
		return
	}
	if e.at < q.activeEnd {
		// Active window (or, right after a conversion/refill, before
		// it): events here may precede everything bucketed, so they
		// join the rung heap, which pops in exact (at, seq) order.
		heapPushEv(&q.rung, e)
	} else if idx := (e.at - q.bucketStart) >> bucketShift; idx < numBuckets {
		q.buckets[idx] = append(q.buckets[idx], e)
	} else {
		heapPushEv(&q.far, e)
	}
}

// pop removes and returns the minimum event. count must be > 0. In
// heap mode the root's removal is deferred as a hole (see the file
// comment); the next push, or any other reader, completes it.
func (q *eventQueue) pop() event {
	if !q.ladder {
		q.settle()
		q.count--
		q.hole = true
		e := q.heap[0]
		q.heap[0].fn = nil // drop the callback reference for GC
		return e
	}
	if len(q.rung) == 0 {
		q.advanceRung()
	}
	e := heapPopEv(&q.rung)
	q.count--
	if q.count <= ladderOff {
		q.toHeap()
	}
	return e
}

// minAt returns the timestamp of the minimum event without removing
// it. count must be > 0. It may settle a heap-mode hole or, in ladder
// mode, promote a bucket: mutations that never change pop order.
func (q *eventQueue) minAt() Time {
	if !q.ladder {
		q.settle()
		return q.heap[0].at
	}
	if len(q.rung) == 0 {
		q.advanceRung()
	}
	return q.rung[0].at
}

// advanceRung promotes the next non-empty bucket into the (empty)
// rung, refilling the near window from the far heap when the whole
// window has drained. count must be > 0 (so an event exists to find).
func (q *eventQueue) advanceRung() {
	for {
		for i := q.cur + 1; i < numBuckets; i++ {
			if len(q.buckets[i]) > 0 {
				q.cur = i
				// Swap slices so the drained rung's storage becomes the
				// bucket's next backing array: zero steady-state allocs.
				q.rung, q.buckets[i] = q.buckets[i], q.rung[:0]
				heapInitEv(q.rung)
				q.activeEnd = q.bucketStart + Time(i+1)<<bucketShift
				return
			}
		}
		// Near window exhausted: re-anchor it at the earliest far event
		// and pull everything inside the new horizon into buckets.
		q.bucketStart = q.far[0].at >> bucketShift << bucketShift
		q.cur = -1
		q.activeEnd = q.bucketStart
		horizon := q.bucketStart + numBuckets*bucketWidth
		for len(q.far) > 0 && q.far[0].at < horizon {
			e := heapPopEv(&q.far)
			idx := (e.at - q.bucketStart) >> bucketShift
			q.buckets[idx] = append(q.buckets[idx], e)
		}
	}
}

// toLadder distributes the heap's events into ladder form.
func (q *eventQueue) toLadder() {
	q.settle()
	q.ladder = true
	q.bucketStart = q.heap[0].at >> bucketShift << bucketShift
	q.cur = -1
	q.activeEnd = q.bucketStart
	horizon := q.bucketStart + numBuckets*bucketWidth
	for _, e := range q.heap {
		if e.at < horizon {
			idx := (e.at - q.bucketStart) >> bucketShift
			q.buckets[idx] = append(q.buckets[idx], e)
		} else {
			q.far = append(q.far, e)
		}
	}
	heapInitEv(q.far)
	clear(q.heap)
	q.heap = q.heap[:0]
}

// toHeap collapses the ladder back into one heap (low occupancy, where
// per-pop bucket scans would dominate).
func (q *eventQueue) toHeap() {
	q.ladder = false
	h := append(q.heap[:0], q.rung...)
	clear(q.rung)
	q.rung = q.rung[:0]
	for i := range q.buckets {
		if len(q.buckets[i]) == 0 {
			continue
		}
		h = append(h, q.buckets[i]...)
		clear(q.buckets[i])
		q.buckets[i] = q.buckets[i][:0]
	}
	h = append(h, q.far...)
	clear(q.far)
	q.far = q.far[:0]
	heapInitEv(h)
	q.heap = h
}
