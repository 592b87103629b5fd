package sim

import (
	"context"
	"fmt"
	"reflect"
	"testing"
)

// buildRing schedules a deterministic multi-domain model on s: each
// domain starts tokens that do local work (several same-instant and
// near-instant events, exercising seq tiebreaks) and then hop to the
// next domain at now+hop. logs[d] is appended to only by domain d's
// events, mirroring the domain-confinement rule real models follow.
func buildRing(s *Sharded, hop Time, hops int) [][]string {
	nd := s.Domains()
	logs := make([][]string, nd)
	var bounce func(d, token, left int)
	bounce = func(d, token, left int) {
		k := s.Domain(d)
		now := k.Now()
		logs[d] = append(logs[d], fmt.Sprintf("d%d t%d arrive@%d left=%d", d, token, now, left))
		// Same-instant local events: order must come from seq alone.
		for i := 0; i < 3; i++ {
			i := i
			k.At(now+Nanosecond, func() {
				logs[d] = append(logs[d], fmt.Sprintf("d%d t%d work%d@%d", d, token, i, k.Now()))
			})
		}
		if left > 0 {
			next := (d + 1) % nd
			k.Send(next, now+hop, func() { bounce(next, token, left-1) })
		}
	}
	for d := 0; d < nd; d++ {
		d := d
		for tok := 0; tok < 2; tok++ {
			tok := tok
			s.Domain(d).At(Time(tok+1)*Microsecond, func() {
				bounce(d, d*10+tok, hops)
			})
		}
	}
	return logs
}

// TestShardedWorkerCountInvariance is the core determinism property:
// the same model executed with 1, 2, 4, and 8 workers produces
// byte-identical per-domain execution logs, clocks, and event counts.
func TestShardedWorkerCountInvariance(t *testing.T) {
	const domains, hops = 4, 6
	hop := 10 * Microsecond
	run := func(workers int) ([][]string, Time, uint64, ShardStats) {
		s := NewSharded(domains, hop, workers)
		logs := buildRing(s, hop, hops)
		if err := s.RunCtx(context.Background()); err != nil {
			t.Fatalf("workers=%d: RunCtx: %v", workers, err)
		}
		return logs, s.Now(), s.Processed(), s.Stats
	}
	refLogs, refNow, refN, refStats := run(1)
	if refN == 0 || refStats.Delivered == 0 {
		t.Fatalf("reference run did no work: processed=%d stats=%+v", refN, refStats)
	}
	for _, w := range []int{2, 4, 8} {
		logs, now, n, stats := run(w)
		if !reflect.DeepEqual(logs, refLogs) {
			t.Errorf("workers=%d: execution logs diverge from workers=1", w)
		}
		if now != refNow || n != refN {
			t.Errorf("workers=%d: now/processed = %v/%d, want %v/%d", w, now, n, refNow, refN)
		}
		if stats != refStats {
			t.Errorf("workers=%d: stats %+v, want %+v (epoch schedule must not depend on workers)", w, stats, refStats)
		}
	}
}

// TestShardedSingleDomainIsSerial: a one-domain Sharded runs the
// epoch loop over a single kernel, and its execution order, clock and
// event count match a standalone Kernel exactly.
func TestShardedSingleDomainIsSerial(t *testing.T) {
	program := func(k *Kernel) []string {
		var log []string
		for i := 0; i < 5; i++ {
			i := i
			k.At(Time(5-i)*Nanosecond, func() {
				log = append(log, fmt.Sprintf("e%d@%d", i, k.Now()))
				if i == 0 {
					// Self-sends on a single domain are plain local
					// scheduling — exercised here to pin that rule.
					k.Send(0, k.Now()+Nanosecond, func() {
						log = append(log, fmt.Sprintf("self@%d", k.Now()))
					})
				}
			})
		}
		return log
	}
	plain := NewKernel()
	plainLog := program(plain)
	plain.Run()

	s := NewSharded(1, Nanosecond, 4)
	shardLog := program(s.Domain(0))
	if err := s.RunCtx(context.Background()); err != nil {
		t.Fatalf("RunCtx: %v", err)
	}
	if !reflect.DeepEqual(plainLog, shardLog) {
		t.Fatalf("single-domain sharded order = %v, want %v", shardLog, plainLog)
	}
	if plain.Processed() != s.Processed() || plain.Now() != s.Now() {
		t.Fatalf("single-domain sharded diverged: processed %d/%d now %v/%v",
			plain.Processed(), s.Processed(), plain.Now(), s.Now())
	}
}

// TestShardedMailIntoPendingHole delivers mail to domains whose last
// event in the epoch scheduled nothing locally. Domain 0 is then empty
// with its popped root's removal still deferred, so the barrier's push
// fills that hole; domain 1 keeps a later local event, so its hole is
// settled before the epoch ends. Both must run in the eager order.
func TestShardedMailIntoPendingHole(t *testing.T) {
	hop := 10 * Nanosecond
	for _, workers := range []int{1, 2} {
		s := NewSharded(2, hop, workers)
		var logs [2][]string
		var bounce func(d, left int)
		bounce = func(d, left int) {
			k := s.Domain(d)
			logs[d] = append(logs[d], fmt.Sprintf("mail@%d left=%d", k.Now(), left))
			if left > 0 {
				k.Send(1-d, k.Now()+hop, func() { bounce(1-d, left-1) })
			}
			if d == 0 && (k.Pending() != 0 || !k.events.hole) {
				t.Errorf("workers=%d: domain 0 at %v: pending %d hole %v, want an empty pending hole",
					workers, k.Now(), k.Pending(), k.events.hole)
			}
		}
		s.Domain(0).At(0, func() {
			logs[0] = append(logs[0], "start@0")
			s.Domain(0).Send(1, hop, func() { bounce(1, 3) })
		})
		s.Domain(1).At(0, func() { logs[1] = append(logs[1], "idle@0") })
		s.Domain(1).At(35*Nanosecond, func() { logs[1] = append(logs[1], "late@35000") })
		if err := s.RunCtx(context.Background()); err != nil {
			t.Fatalf("workers=%d: RunCtx: %v", workers, err)
		}
		want := [2][]string{
			{"start@0", "mail@20000 left=2", "mail@40000 left=0"},
			{"idle@0", "mail@10000 left=3", "mail@30000 left=1", "late@35000"},
		}
		if !reflect.DeepEqual(logs, want) {
			t.Fatalf("workers=%d: logs = %v, want %v", workers, logs, want)
		}
		if s.Pending() != 0 || s.Stats.Delivered != 4 {
			t.Fatalf("workers=%d: pending %d delivered %d, want 0 and 4", workers, s.Pending(), s.Stats.Delivered)
		}
	}
}

// TestShardedConservativeSendPanics pins the lookahead guard: a
// cross-domain send landing inside the current epoch is a modeling
// bug (the declared lookahead exceeds the true cross-domain latency)
// and must fail loudly rather than silently lose determinism.
func TestShardedConservativeSendPanics(t *testing.T) {
	s := NewSharded(2, 10*Microsecond, 1)
	s.Domain(0).At(Microsecond, func() {
		// Horizon is first-event + lookahead = 11us; sending at now+1us
		// = 2us violates the conservative rule.
		s.Domain(0).Send(1, s.Domain(0).Now()+Microsecond, func() {})
	})
	defer func() {
		if recover() == nil {
			t.Error("conservative send violation did not panic")
		}
	}()
	_ = s.RunCtx(context.Background())
}

// TestShardedMailMergeOrder pins the barrier merge key: same-instant
// mail from different domains is delivered in source-domain order,
// then send order, so destination seq assignment is deterministic.
func TestShardedMailMergeOrder(t *testing.T) {
	hop := 10 * Microsecond
	s := NewSharded(3, hop, 1)
	var got []string
	at := 20 * Microsecond
	// Domains 2 and 1 both send two messages to domain 0 for the same
	// instant; delivery must come out (from=1 idx=0), (1,1), (2,0), (2,1)
	// regardless of the order the sends were scheduled in.
	for _, from := range []int{2, 1} {
		from := from
		s.Domain(from).At(Microsecond, func() {
			for i := 0; i < 2; i++ {
				msg := fmt.Sprintf("from%d.%d", from, i)
				s.Domain(from).Send(0, at, func() { got = append(got, msg) })
			}
		})
	}
	if err := s.RunCtx(context.Background()); err != nil {
		t.Fatalf("RunCtx: %v", err)
	}
	want := []string{"from1.0", "from1.1", "from2.0", "from2.1"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("merge order = %v, want %v", got, want)
	}
	if s.Stats.Delivered != 4 {
		t.Fatalf("Delivered = %d, want 4", s.Stats.Delivered)
	}
}

// TestShardedCancellation: cancelling mid-run stops at a barrier or
// batch boundary and surfaces ctx.Err.
func TestShardedCancellation(t *testing.T) {
	s := NewSharded(2, Microsecond, 2)
	ctx, cancel := context.WithCancel(context.Background())
	var chain func(d int)
	chain = func(d int) {
		k := s.Domain(d)
		k.After(Nanosecond, func() {
			if k.Processed() > 10_000 {
				cancel()
			}
			chain(d)
		})
	}
	for d := 0; d < 2; d++ {
		d := d
		s.Domain(d).At(0, func() { chain(d) })
	}
	if err := s.RunCtx(ctx); err == nil {
		t.Fatal("cancelled sharded run returned nil error")
	}
}

// TestShardedPerDomainHooks: per-domain OnEvent observes exactly that
// domain's events in monotone time order (the checker contract).
func TestShardedPerDomainHooks(t *testing.T) {
	hop := 10 * Microsecond
	s := NewSharded(2, hop, 2)
	var times [2][]Time
	for d := 0; d < 2; d++ {
		d := d
		s.Domain(d).SetHooks(Hooks{OnEvent: func(at Time) { times[d] = append(times[d], at) }})
	}
	logs := buildRing(s, hop, 4)
	if err := s.RunCtx(context.Background()); err != nil {
		t.Fatalf("RunCtx: %v", err)
	}
	for d := 0; d < 2; d++ {
		if uint64(len(times[d])) != s.Domain(d).Processed() {
			t.Errorf("domain %d hook saw %d events, processed %d", d, len(times[d]), s.Domain(d).Processed())
		}
		for i := 1; i < len(times[d]); i++ {
			if times[d][i] < times[d][i-1] {
				t.Fatalf("domain %d time went backwards: %v after %v", d, times[d][i], times[d][i-1])
			}
		}
	}
	_ = logs
}

// TestStandaloneSendPanics: Send to a nonzero domain without a
// coordinator is a bug.
func TestStandaloneSendPanics(t *testing.T) {
	k := NewKernel()
	defer func() {
		if recover() == nil {
			t.Error("standalone Send(1, ...) did not panic")
		}
	}()
	k.Send(1, Nanosecond, func() {})
}

// TestNewShardedNeedsLookahead: a zero lookahead is rejected at every
// domain count, one domain included — there is no degenerate path
// that skips the epoch loop.
func TestNewShardedNeedsLookahead(t *testing.T) {
	for _, domains := range []int{1, 3} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewSharded(%d, 0, 1) did not panic", domains)
				}
			}()
			NewSharded(domains, 0, 1)
		}()
	}
}
