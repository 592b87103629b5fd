package sim

import (
	"fmt"
	"math/rand"
	"testing"
)

// scheduleStream queues one source's events at the given absolute
// times (non-decreasing). Eagerly, every event is queued with At up
// front. Lazily, the source reserves one sequence number per event and
// only the next event is ever queued: each one queues its successor
// under the next reserved number before running fire.
func scheduleStream(k *Kernel, lazy bool, times []Time, fire func(i int)) {
	if !lazy {
		for i, t := range times {
			i := i
			k.At(t, func() { fire(i) })
		}
		return
	}
	first := k.Reserve(len(times))
	i := 0
	var step func()
	step = func() {
		j := i
		if i++; i < len(times) {
			k.AtSeq(times[i], first+uint64(i), step)
		}
		fire(j)
	}
	k.AtSeq(times[0], first, step)
}

// streamTimes draws n non-decreasing arrival times starting at start,
// with gaps from sub-bucket ties (including zero) up to far beyond the
// ladder queue's near window.
func streamTimes(r *rand.Rand, start Time, n int) []Time {
	times := make([]Time, n)
	t := start
	for i := range times {
		switch r.Intn(6) {
		case 0:
			// zero gap: a same-instant tie within the source
		case 1:
			t += Time(r.Intn(4)) * (bucketWidth / 4)
		case 2:
			t += Time(r.Int63n(int64(numBuckets) * int64(bucketWidth) * 4))
		default:
			t += Time(r.Int63n(int64(bucketWidth) * 8))
		}
		times[i] = t
	}
	return times
}

// reserveScenario runs one seed's schedule — several arrival sources,
// one of them started mid-run, each arrival spawning random runtime
// At/After events — and returns the execution log.
func reserveScenario(seed int64, lazy bool) []string {
	gen := rand.New(rand.NewSource(seed))
	sources := make([][]Time, 4)
	for s := range sources {
		sources[s] = streamTimes(gen, 0, 150+gen.Intn(300))
	}
	late := streamTimes(gen, 0, 100)
	lateAt := Time(gen.Int63n(int64(bucketWidth) * 64))
	for i := range late {
		late[i] += lateAt
	}

	k := NewKernel()
	// The runtime stream is drawn in execution order, so it stays in
	// step between the two runs exactly as long as their pop order does.
	rt := rand.New(rand.NewSource(seed ^ 0x7a5e))
	var log []string
	spawned := 0
	var spawn func(depth int)
	spawn = func(depth int) {
		for c := rt.Intn(3); c > 0; c-- {
			id := spawned
			spawned++
			var d Time
			switch rt.Intn(4) {
			case 0: // same instant
			case 1:
				d = Time(rt.Intn(3)) * (bucketWidth / 4)
			case 2:
				d = Time(rt.Int63n(int64(numBuckets) * int64(bucketWidth) * 2))
			default:
				d = Time(rt.Int63n(int64(bucketWidth) * 4))
			}
			fn := func() {
				log = append(log, fmt.Sprintf("rt%d@%d", id, k.Now()))
				if depth < 3 {
					spawn(depth + 1)
				}
			}
			if rt.Intn(2) == 0 {
				k.At(k.Now()+d, fn)
			} else {
				k.After(d, fn)
			}
		}
	}
	arrival := func(name string) func(i int) {
		return func(i int) {
			log = append(log, fmt.Sprintf("%s#%d@%d", name, i, k.Now()))
			spawn(0)
		}
	}
	// Stimulus queued before the sources shares the sequence space.
	k.At(lateAt/2, func() { log = append(log, "pre"); spawn(0) })
	for s, times := range sources {
		scheduleStream(k, lazy, times, arrival(fmt.Sprintf("s%d", s)))
	}
	k.At(lateAt, func() {
		log = append(log, fmt.Sprintf("start-late@%d", k.Now()))
		scheduleStream(k, lazy, late, arrival("late"))
	})
	k.Run()
	return log
}

// TestReserveMatchesEagerSchedule is the differential guarantee behind
// lazy arrival scheduling: sources queued one event at a time under
// Reserve/AtSeq, mixed with random runtime At/After events, pop in
// exactly the order of the same schedule queued eagerly with At. The
// eager side crosses the ladder queue's conversion threshold; the
// lazy side mostly stays in heap form.
func TestReserveMatchesEagerSchedule(t *testing.T) {
	for seed := int64(1); seed <= 25; seed++ {
		eager := reserveScenario(seed, false)
		lazy := reserveScenario(seed, true)
		if len(eager) != len(lazy) {
			t.Fatalf("seed %d: eager ran %d events, lazy %d", seed, len(eager), len(lazy))
		}
		for i := range eager {
			if eager[i] != lazy[i] {
				t.Fatalf("seed %d: event %d: eager %s, lazy %s", seed, i, eager[i], lazy[i])
			}
		}
	}
}

func TestAtSeqPastSchedulingPanics(t *testing.T) {
	k := NewKernel()
	seq := k.Reserve(1)
	k.At(10*Nanosecond, func() {
		defer func() {
			if recover() == nil {
				t.Error("AtSeq in the past did not panic")
			}
		}()
		k.AtSeq(5*Nanosecond, seq, func() {})
	})
	k.Run()
}

func TestAtSeqUnreservedPanics(t *testing.T) {
	k := NewKernel()
	k.Reserve(2)
	defer func() {
		if recover() == nil {
			t.Error("AtSeq with a never-reserved sequence number did not panic")
		}
	}()
	k.AtSeq(0, 3, func() {})
}

// everyOverStream runs a 30ns ticker over ten arrivals 100ns apart and
// reports the tick count, the final clock and the events left queued.
func everyOverStream(lazy bool) (ticks int, end Time, pending int) {
	k := NewKernel()
	times := make([]Time, 10)
	for i := range times {
		times[i] = Time(i+1) * 100 * Nanosecond
	}
	scheduleStream(k, lazy, times, func(int) {})
	k.Every(30*Nanosecond, func() { ticks++ })
	k.SetHooks(Hooks{MaxEvents: 1000}) // a livelock panics instead of hanging
	k.Run()
	return ticks, k.Now(), k.Pending()
}

// TestEveryLivesAcrossLazyGaps: between two lazily scheduled arrivals
// the only queued non-tick event is the next arrival, and that is
// enough to keep a ticker alive — it ticks through every gap exactly
// as over the eager schedule.
func TestEveryLivesAcrossLazyGaps(t *testing.T) {
	lazyTicks, _, _ := everyOverStream(true)
	eagerTicks, _, _ := everyOverStream(false)
	// Ticks at 30, 60, ..., 990ns cover the arrivals up to 1000ns.
	if lazyTicks < 33 {
		t.Errorf("lazy: ticker died after %d ticks, before the last arrival", lazyTicks)
	}
	if lazyTicks != eagerTicks {
		t.Errorf("lazy ticks %d, eager ticks %d", lazyTicks, eagerTicks)
	}
}

// TestEveryStopsAfterLastLazyArrival: once the last arrival has run,
// the ticker fires once more (at 1020ns, observing the final state)
// and stops, leaving nothing queued.
func TestEveryStopsAfterLastLazyArrival(t *testing.T) {
	ticks, end, pending := everyOverStream(true)
	if ticks != 34 || end != 1020*Nanosecond || pending != 0 {
		t.Errorf("ticks=%d end=%v pending=%d, want 34 ticks ending at 1.020us with nothing pending",
			ticks, end, pending)
	}
}
