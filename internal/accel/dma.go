package accel

import (
	"accelflow/internal/config"
	"accelflow/internal/mem"
	"accelflow/internal/noc"
	"accelflow/internal/obs"
	"accelflow/internal/sim"
)

// DMAPool models the shared A-DMA engines (Table III: 10 engines).
// Output dispatchers and cores acquire an engine to move queue entries
// between accelerators, or between an accelerator and memory.
type DMAPool struct {
	k    *sim.Kernel
	cfg  *config.Config
	net  *noc.Network
	mem  *mem.Memory
	pool *sim.Resource

	// freeDone recycles transfer completion records, so a transfer
	// allocates nothing whether or not it spills.
	freeDone *dmaDone

	Transfers  uint64
	BytesMoved uint64
}

// dmaDone is one pooled transfer completion: it joins the inline leg
// (engine wait plus NoC) and, for a spilling transfer, the spill leg
// through memory, then runs the caller's continuation. Both leg
// callbacks are bound once per record.
type dmaDone struct {
	d        *DMAPool
	sp       *obs.Span
	t0       sim.Time
	hold     sim.Time
	legs     int // legs still in flight
	done     func()
	next     *dmaDone
	inlineFn func() // n.inline
	spillFn  func() // n.spill
}

// inline ends the engine-held leg: record its wait and NoC segments.
func (n *dmaDone) inline() {
	now := n.d.k.Now()
	n.sp.Seg(obs.SegQueue, "adma", n.t0, now-n.hold)
	n.sp.Seg(obs.SegNoC, "noc", now-n.hold, now)
	n.legDone()
}

// spill ends the payload leg streamed through memory.
func (n *dmaDone) spill() {
	n.sp.Seg(obs.SegDMA, "dram", n.t0, n.d.k.Now())
	n.legDone()
}

// legDone joins the legs. The last one recycles the record before the
// continuation runs (done may start another transfer and reuse it —
// nothing below touches n again).
func (n *dmaDone) legDone() {
	if n.legs--; n.legs > 0 {
		return
	}
	d, done := n.d, n.done
	n.sp, n.done = nil, nil
	n.next = d.freeDone
	d.freeDone = n
	if done != nil {
		done()
	}
}

// NewDMAPool builds the engine pool.
func NewDMAPool(k *sim.Kernel, cfg *config.Config, net *noc.Network, memory *mem.Memory) *DMAPool {
	return &DMAPool{
		k: k, cfg: cfg, net: net, mem: memory,
		pool: sim.NewResource(k, "adma", cfg.ADMAEngines, sim.FIFO),
	}
}

// Transfer moves a queue entry (trace + inline data up to 2KB) from src
// to dst, spilling payload beyond the inline limit through memory via
// the entry's Memory Pointer (§IV-A). done fires when both the inline
// and spill parts have arrived. sp, when non-nil, receives the
// engine-wait, NoC-occupancy, and spill-DMA segments.
func (d *DMAPool) Transfer(src, dst noc.Node, bytes int, traceBytes int, sp *obs.Span, done func()) {
	d.Transfers++
	d.BytesMoved += uint64(bytes + traceBytes)
	inline := bytes
	if inline > d.cfg.InlineDataBytes {
		inline = d.cfg.InlineDataBytes
	}
	spill := bytes - inline
	n := d.freeDone
	if n == nil {
		n = &dmaDone{d: d}
		n.inlineFn, n.spillFn = n.inline, n.spill
	} else {
		d.freeDone = n.next
	}
	n.sp, n.done = sp, done
	n.t0 = d.k.Now()
	// Inline part: the engine holds for the on-package route time.
	n.hold = d.net.TransferTime(src, dst, inline+traceBytes)
	n.legs = 1
	if spill > 0 {
		n.legs = 2
	}
	d.pool.Do(n.hold, n.inlineFn)
	if spill > 0 {
		// Spill part: moved through the cache-coherent LLC/memory path.
		d.mem.Transfer(spill, n.spillFn)
	}
}

// ToMemory deposits result data at a memory location (end of trace):
// a Transfer to the memory node with no trace bytes. The engine
// carries only the inline part; payload beyond the 2KB queue entry
// streams through the memory controllers.
func (d *DMAPool) ToMemory(src noc.Node, memNode noc.Node, bytes int, sp *obs.Span, done func()) {
	d.Transfer(src, memNode, bytes, 0, sp, done)
}

// Utilization reports engine-pool utilization.
func (d *DMAPool) Utilization(elapsed sim.Time) float64 { return d.pool.Utilization(elapsed) }

// QueueLen reports transfers waiting for an engine.
func (d *DMAPool) QueueLen() int { return d.pool.QueueLen() }

// Busy reports cumulative engine busy time (utilization sampling).
func (d *DMAPool) Busy() sim.Time { return d.pool.BusyTime }

// Engines reports the number of A-DMA engines in the pool.
func (d *DMAPool) Engines() int { return d.pool.Servers }

// SetEngines changes the live engine count (fault injection: removed
// engines). Floored at one; in-flight transfers finish normally.
func (d *DMAPool) SetEngines(n int) { d.pool.SetServers(n) }

// Resource exposes the underlying engine pool for read-only inspection
// (the invariant checker's per-resource suite). Callers must not
// submit work through it.
func (d *DMAPool) Resource() *sim.Resource { return d.pool }
