package sim

import (
	"container/heap"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestTimeString(t *testing.T) {
	cases := []struct {
		t    Time
		want string
	}{
		{500 * Picosecond, "500ps"},
		{1500 * Nanosecond, "1.500us"},
		{2 * Millisecond, "2.000ms"},
		{3 * Second, "3.000s"},
		{12 * Nanosecond, "12.000ns"},
	}
	for _, c := range cases {
		if got := c.t.String(); got != c.want {
			t.Errorf("Time(%d).String() = %q, want %q", int64(c.t), got, c.want)
		}
	}
}

func TestTimeConversions(t *testing.T) {
	if FromMicros(1.5) != 1500*Nanosecond {
		t.Errorf("FromMicros(1.5) = %v", FromMicros(1.5))
	}
	if FromNanos(2.5) != 2500*Picosecond {
		t.Errorf("FromNanos(2.5) = %v", FromNanos(2.5))
	}
	if (3 * Microsecond).Micros() != 3.0 {
		t.Errorf("Micros() = %v", (3 * Microsecond).Micros())
	}
	if (2 * Second).Seconds() != 2.0 {
		t.Errorf("Seconds() = %v", (2 * Second).Seconds())
	}
	if (5 * Nanosecond).Nanos() != 5.0 {
		t.Errorf("Nanos() = %v", (5 * Nanosecond).Nanos())
	}
}

func TestKernelOrdering(t *testing.T) {
	k := NewKernel()
	var order []int
	k.At(30*Nanosecond, func() { order = append(order, 3) })
	k.At(10*Nanosecond, func() { order = append(order, 1) })
	k.At(20*Nanosecond, func() { order = append(order, 2) })
	k.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("events ran out of order: %v", order)
	}
	if k.Now() != 30*Nanosecond {
		t.Errorf("clock = %v, want 30ns", k.Now())
	}
}

func TestKernelTieBreakBySchedulingOrder(t *testing.T) {
	k := NewKernel()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		k.At(5*Nanosecond, func() { order = append(order, i) })
	}
	k.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("tie-break violated at index %d: %v", i, order)
		}
	}
}

func TestKernelAfterAndNesting(t *testing.T) {
	k := NewKernel()
	var hit Time
	k.After(10*Nanosecond, func() {
		k.After(5*Nanosecond, func() { hit = k.Now() })
	})
	k.Run()
	if hit != 15*Nanosecond {
		t.Errorf("nested event at %v, want 15ns", hit)
	}
}

func TestKernelRunUntil(t *testing.T) {
	k := NewKernel()
	ran := 0
	k.At(10*Nanosecond, func() { ran++ })
	k.At(20*Nanosecond, func() { ran++ })
	k.At(30*Nanosecond, func() { ran++ })
	k.RunUntil(20 * Nanosecond)
	if ran != 2 {
		t.Errorf("ran %d events, want 2", ran)
	}
	if k.Pending() != 1 {
		t.Errorf("pending = %d, want 1", k.Pending())
	}
	k.Run()
	if ran != 3 {
		t.Errorf("ran %d events after Run, want 3", ran)
	}
}

// refKernel is the kernel's RunUntil loop written over the
// container/heap reference: the same (at, seq) scheduling with an
// eager pop and no deferred root removal.
type refKernel struct {
	now Time
	seq uint64
	q   refHeap
}

func (k *refKernel) Now() Time { return k.now }

func (k *refKernel) At(t Time, fn func()) {
	k.seq++
	heap.Push(&k.q, event{at: t, seq: k.seq, fn: fn})
}

func (k *refKernel) RunUntil(deadline Time) {
	for len(k.q) > 0 && k.q[0].at <= deadline {
		e := heap.Pop(&k.q).(event)
		k.now = e.at
		e.fn()
	}
}

// eventScheduler is the scheduling surface kernelShapeModel drives:
// a *Kernel or a *refKernel.
type eventScheduler interface {
	At(Time, func())
	Now() Time
}

// kernelShapeModel schedules a kernel-shaped population on s: roots
// initial events, each of which logs itself and schedules 0, 1 or 2
// successors 4ns-2us out until budget successors have been scheduled.
// Choices draw from one stream in execution order, so two schedulers
// produce the same log exactly as long as they pop in the same order.
func kernelShapeModel(s eventScheduler, seed int64, roots, budget int) *[]string {
	r := rand.New(rand.NewSource(seed))
	log := &[]string{}
	id := 0
	var spawn func()
	spawn = func() {
		for n := r.Intn(3); n > 0 && budget > 0; n-- {
			budget--
			me := id
			id++
			s.At(s.Now()+logUniformDelay(r), func() {
				*log = append(*log, fmt.Sprintf("e%d@%d", me, s.Now()))
				spawn()
			})
		}
	}
	for i := 0; i < roots; i++ {
		me := id
		id++
		s.At(logUniformDelay(r), func() {
			*log = append(*log, fmt.Sprintf("e%d@%d", me, s.Now()))
			spawn()
		})
	}
	return log
}

// TestKernelRunUntilHolePending stops RunUntil right after callbacks
// that scheduled nothing, so the popped root's removal is still
// deferred when the loop decides to stop: Pending must be exact there,
// and Run must resume in reference order.
func TestKernelRunUntilHolePending(t *testing.T) {
	t.Run("scripted", func(t *testing.T) {
		k := NewKernel()
		var order []Time
		note := func() { order = append(order, k.Now()) }
		k.At(10, note)
		k.At(20, note) // last event before the deadline; schedules nothing
		k.At(30, note)
		k.RunUntil(20)
		if k.Pending() != 1 || k.Now() != 20 {
			t.Fatalf("after RunUntil(20): pending %d now %v, want 1 and 20ps", k.Pending(), k.Now())
		}
		k.RunUntil(35) // drains the queue: the last pop leaves an empty hole
		if k.Pending() != 0 || !k.events.hole {
			t.Fatalf("after RunUntil(35): pending %d hole %v, want 0 and a pending hole", k.Pending(), k.events.hole)
		}
		k.At(40, note) // fills the empty hole
		k.At(36, note)
		k.Run()
		if want := []Time{10, 20, 30, 36, 40}; !reflect.DeepEqual(order, want) {
			t.Fatalf("order = %v, want %v", order, want)
		}
	})
	t.Run("kernel-shape", func(t *testing.T) {
		for seed := int64(1); seed <= 4; seed++ {
			k, ref := NewKernel(), &refKernel{}
			got := kernelShapeModel(k, seed, 48, 4000)
			want := kernelShapeModel(ref, seed, 48, 4000)
			for deadline := Time(0); len(ref.q) > 0; deadline += 37 * Nanosecond {
				k.RunUntil(deadline)
				ref.RunUntil(deadline)
				if k.Pending() != len(ref.q) {
					t.Fatalf("seed %d: Pending() = %d at deadline %v, reference holds %d",
						seed, k.Pending(), deadline, len(ref.q))
				}
				if deadline > 20*Microsecond {
					break // resume the rest with Run
				}
			}
			k.Run()
			ref.RunUntil(math.MaxInt64)
			if k.Pending() != 0 || !reflect.DeepEqual(*got, *want) {
				t.Fatalf("seed %d: kernel ran %d events (pending %d), reference %d; logs differ",
					seed, len(*got), k.Pending(), len(*want))
			}
		}
	})
}

// TestKernelEveryAfterEmptyCallback runs a ticker right after a
// callback that scheduled nothing: the tick's own pop leaves a hole,
// and Every's liveness check must see only the events truly pending —
// counting the popped event would keep the ticker alive forever.
func TestKernelEveryAfterEmptyCallback(t *testing.T) {
	for _, tc := range []struct {
		name string
		real []Time
		want []string
	}{
		{"last-event", []Time{10}, []string{"real@10000", "tick@10000"}},
		{"gap", []Time{10, 25}, []string{"real@10000", "tick@10000", "tick@20000", "real@25000", "tick@30000"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			k := NewKernel()
			var log []string
			for _, at := range tc.real {
				k.At(at*Nanosecond, func() { log = append(log, fmt.Sprintf("real@%d", k.Now())) })
			}
			k.Every(10*Nanosecond, func() { log = append(log, fmt.Sprintf("tick@%d", k.Now())) })
			k.SetHooks(Hooks{MaxEvents: 100}) // tripwire: a livelock panics instead of hanging
			k.Run()
			if !reflect.DeepEqual(log, tc.want) {
				t.Fatalf("log = %v, want %v", log, tc.want)
			}
			if k.Pending() != 0 {
				t.Fatalf("pending = %d after Run, want 0", k.Pending())
			}
		})
	}
}

// TestKernelEverySelfTerminates pins Every's liveness rule: a single
// ticker outlives the last real event by exactly one final tick, and
// two tickers must not count each other's queued ticks as pending
// work — before the queuedTicks exclusion, any two periodic samplers
// on one kernel (e.g. the observability sampler plus the controller
// tick) sustained each other forever.
func TestKernelEverySelfTerminates(t *testing.T) {
	k := NewKernel()
	ticksA, ticksB := 0, 0
	k.Every(10*Nanosecond, func() { ticksA++ })
	k.Every(15*Nanosecond, func() { ticksB++ })
	k.At(100*Nanosecond, func() {})
	k.SetHooks(Hooks{MaxEvents: 100}) // tripwire: a livelock panics instead of hanging
	k.Run()
	// A's tick at 100ns runs after the real event there (same
	// timestamp, later scheduling order), observes the final state,
	// and stops: 10 ticks. B ticks at 15..90ns plus one final
	// observation at 105ns: 7.
	if ticksA != 10 || ticksB != 7 {
		t.Errorf("ticks = %d/%d, want 10/7", ticksA, ticksB)
	}
	if k.Pending() != 0 {
		t.Errorf("pending = %d after Run, want 0", k.Pending())
	}
}

func TestKernelPastSchedulingPanics(t *testing.T) {
	k := NewKernel()
	k.At(10*Nanosecond, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		k.At(5*Nanosecond, func() {})
	})
	k.Run()
}

func TestKernelNegativeDelayPanics(t *testing.T) {
	k := NewKernel()
	defer func() {
		if recover() == nil {
			t.Error("negative delay did not panic")
		}
	}()
	k.After(-1, func() {})
}

func TestKernelMaxEvents(t *testing.T) {
	k := NewKernel()
	k.SetHooks(Hooks{MaxEvents: 10})
	var loop func()
	loop = func() { k.After(Nanosecond, loop) }
	k.After(Nanosecond, loop)
	defer func() {
		if recover() == nil {
			t.Error("runaway loop did not trip MaxEvents")
		}
	}()
	k.Run()
}

// Property: for any set of non-negative delays, Run executes all events
// and the clock ends at the max delay.
func TestKernelPropertyAllEventsRun(t *testing.T) {
	f := func(delays []uint16) bool {
		k := NewKernel()
		ran := 0
		var max Time
		for _, d := range delays {
			dt := Time(d) * Nanosecond
			if dt > max {
				max = dt
			}
			k.After(dt, func() { ran++ })
		}
		k.Run()
		return ran == len(delays) && (len(delays) == 0 || k.Now() == max)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
