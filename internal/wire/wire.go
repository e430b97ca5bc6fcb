// Package wire models the physical network media: a shared 10 Mb/s Ethernet
// segment and a switched, full-duplex 100 Mb/s AN1 segment. A segment
// serializes transmissions (globally for the shared Ethernet, per source
// port for the switched AN1), charges transmission and propagation delay,
// and optionally injects faults (loss, duplication, corruption, reordering)
// for protocol robustness testing.
//
// Stations are identified by link.Addr; attached devices receive delivery
// callbacks in event context at frame-arrival time.
package wire

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"ulp/internal/link"
	"ulp/internal/pkt"
	"ulp/internal/sim"
	"ulp/internal/trace"
)

// Config describes a segment's physical characteristics.
type Config struct {
	Name string

	// BitsPerSec is the raw signalling rate.
	BitsPerSec int64

	// Propagation is the one-way propagation delay.
	Propagation time.Duration

	// FrameOverhead is per-frame non-payload wire time in bytes (preamble,
	// FCS, inter-frame gap). 24 for Ethernet (8 preamble + 4 FCS + 12 IFG).
	FrameOverhead int

	// Shared serializes all transmissions on one medium (CSMA-style shared
	// Ethernet). When false the segment is switched: each source port has
	// its own transmit serialization and flows do not contend.
	Shared bool
}

// EthernetConfig returns the 10 Mb/s shared Ethernet used in the paper.
func EthernetConfig() Config {
	return Config{
		Name:          "ethernet",
		BitsPerSec:    10_000_000,
		Propagation:   10 * time.Microsecond,
		FrameOverhead: 24,
		Shared:        true,
	}
}

// AN1Config returns the switchless private 100 Mb/s AN1 segment used in the
// paper.
func AN1Config() Config {
	return Config{
		Name:          "an1",
		BitsPerSec:    100_000_000,
		Propagation:   5 * time.Microsecond,
		FrameOverhead: 16,
		Shared:        false,
	}
}

// Faults configures seeded fault injection. Zero value = perfect network.
type Faults struct {
	Seed uint64

	// LossProb drops a frame with this probability.
	LossProb float64

	// DupProb delivers a frame twice.
	DupProb float64

	// CorruptProb flips a bit in the frame payload (after link CRC would
	// have passed, to exercise transport checksums).
	CorruptProb float64

	// ReorderProb delays a frame by ReorderDelay, letting later frames
	// overtake it.
	ReorderProb  float64
	ReorderDelay time.Duration

	// DropFrames and CorruptFrames schedule faults at exact frames,
	// identified by 0-based transmit order on the segment (the order of
	// Transmit calls, which is deterministic under the simulator). They
	// need no seed, draw nothing from the RNG, and compose with the
	// probabilistic faults: the fault-schedule explorer uses them to
	// place a loss at precisely the retransmission or handshake step it
	// wants to test.
	DropFrames    []int
	CorruptFrames []int
}

func (f Faults) active() bool {
	return f.LossProb > 0 || f.DupProb > 0 || f.CorruptProb > 0 || f.ReorderProb > 0
}

func (f Faults) scheduled() bool {
	return len(f.DropFrames) > 0 || len(f.CorruptFrames) > 0
}

func containsInt(xs []int, x int) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

// Station is a device attached to a segment.
type Station interface {
	// Deliver is invoked in event context when a frame arrives at the
	// station. The buffer belongs to the station afterwards.
	Deliver(b *pkt.Buf)

	// Addr returns the station address.
	Addr() link.Addr
}

// Segment is one network medium instance.
type Segment struct {
	s        *sim.Sim
	cfg      Config
	stations map[link.Addr]Station
	order    []Station // broadcast delivery order (attach order, deterministic)
	shared   *sim.Resource
	perPort  map[link.Addr]*sim.Resource
	faults   Faults
	rng      *rand.Rand
	cond     *condState // link-condition layer (nil unless SetConditions)

	// Learning-switch state (nil/unused unless built with NewSwitched).
	sw      *SwitchConfig
	macPort map[link.Addr]macEntry
	egress  map[link.Addr]*sim.Resource

	// Trace, when non-nil, observes every transmission at queue time (for
	// diagnostics and protocol traces).
	Trace func(src, dst link.Addr, frameLen int, at sim.Time)

	// TraceFrame, when non-nil, additionally receives the frame itself at
	// queue time. Observers must treat the buffer as read-only.
	TraceFrame func(b *pkt.Buf, at sim.Time)

	// Bus, when set, receives FrameTx/FrameRx/FrameDrop/FrameCorrupt/
	// FrameDup events. Nil-safe; see the trace package invariants.
	Bus *trace.Bus

	stats                         Stats
	framesSwitched, framesFlooded int
}

// Stats is a segment's cumulative frame counters: frames transmitted, and of
// those the ones the fault and condition layers dropped, corrupted,
// duplicated or reordered, plus the bytes transmitted.
type Stats struct {
	Sent, Dropped, Corrupted, Duplicated, Reordered int
	Bytes                                           int64
}

// New creates a segment.
func New(s *sim.Sim, cfg Config) *Segment {
	g := &Segment{
		s:        s,
		cfg:      cfg,
		stations: make(map[link.Addr]Station),
		perPort:  make(map[link.Addr]*sim.Resource),
	}
	if cfg.Shared {
		g.shared = s.NewResource(cfg.Name + ".medium")
	}
	return g
}

// SetFaults installs a fault plan (seeded; deterministic).
func (g *Segment) SetFaults(f Faults) {
	g.faults = f
	g.rng = rand.New(rand.NewSource(int64(f.Seed)))
}

// Attach registers a station. Attaching two stations with one address is a
// configuration error and panics.
func (g *Segment) Attach(st Station) {
	a := st.Addr()
	if _, dup := g.stations[a]; dup {
		panic(fmt.Sprintf("wire: duplicate station address %s on %s", a, g.cfg.Name))
	}
	g.stations[a] = st
	g.order = append(g.order, st)
	if !g.cfg.Shared {
		g.perPort[a] = g.s.NewResource(g.cfg.Name + "." + a.String() + ".tx")
	}
	if g.sw != nil {
		g.egress[a] = g.s.NewResource(g.cfg.Name + "." + a.String() + ".egress")
	}
}

// TxTime returns the wire occupancy time for a frame of n bytes.
func (g *Segment) TxTime(n int) time.Duration {
	bits := int64(n+g.cfg.FrameOverhead) * 8
	return time.Duration(bits * int64(time.Second) / g.cfg.BitsPerSec)
}

// Transmit sends frame b from src to dst. The frame is serialized onto the
// medium (queueing behind in-flight frames), then delivered after
// propagation. dst == link.Broadcast delivers to every station except the
// sender. Transmit may be called from any simulation context; it does not
// block the caller (devices model any blocking themselves).
func (g *Segment) Transmit(src, dst link.Addr, b *pkt.Buf) {
	res := g.shared
	if res == nil {
		res = g.perPort[src]
		if res == nil {
			panic(fmt.Sprintf("wire: transmit from unattached station %s", src))
		}
	}
	g.stats.Sent++
	g.stats.Bytes += int64(b.Len())
	if g.Trace != nil {
		g.Trace(src, dst, b.Len(), g.s.Now())
	}
	if g.TraceFrame != nil {
		g.TraceFrame(b, g.s.Now())
	}
	if g.Bus.Enabled() {
		g.Bus.Emit(trace.Event{Kind: trace.FrameTx, Node: g.cfg.Name,
			A: int64(b.Len()), Frame: b.Bytes()})
	}
	tx := g.TxTime(b.Len())
	f := inflightPool.Get().(*inflight)
	*f = inflight{g: g, src: src, dst: dst, b: b, idx: g.stats.Sent - 1}
	res.UseAsyncArg(tx, propagateCB, f)
}

// inflight carries one frame through the transmit -> propagate -> deliver
// pipeline. Records are pooled and the stage callbacks are static functions,
// so a frame crossing the wire costs no closure allocations.
type inflight struct {
	g        *Segment
	src, dst link.Addr
	b        *pkt.Buf
	idx      int     // 0-based transmit-order index (for scheduled faults)
	st       Station // resolved egress station (switched fabric only)
}

var inflightPool = sync.Pool{New: func() any { return new(inflight) }}

func (f *inflight) put() {
	*f = inflight{}
	inflightPool.Put(f)
}

func propagateCB(a any) {
	f := a.(*inflight)
	f.g.propagate(f)
}

func deliverCB(a any) {
	f := a.(*inflight)
	g, src, dst, b := f.g, f.src, f.dst, f.b
	f.put()
	g.deliver(src, dst, b)
}

// propagate handles fault injection and schedules final delivery. It takes
// over ownership of f (and the frame it carries).
func (g *Segment) propagate(f *inflight) {
	b := f.b
	delay := g.cfg.Propagation
	// Scheduled (per-frame-index) faults never touch the RNG, and a
	// scheduled drop is applied *after* the probabilistic block (which
	// consumes this frame's usual draws), so adding a schedule to a seeded
	// plan leaves every other frame's probabilistic fate intact — crucial
	// for the explorer, whose shrinking loop adds and removes schedule
	// entries against a fixed chaos seed.
	schedDrop := false
	if g.faults.scheduled() {
		schedDrop = containsInt(g.faults.DropFrames, f.idx)
		if !schedDrop && containsInt(g.faults.CorruptFrames, f.idx) && b.Len() > 0 {
			g.stats.Corrupted++
			off := b.Len() / 2 // deterministic: flip the low bit mid-frame
			b.Bytes()[off] ^= 1
			b.Meta.Corrupt = true
			if g.Bus.Enabled() {
				g.Bus.Emit(trace.Event{Kind: trace.FrameCorrupt, Node: g.cfg.Name,
					A: int64(off), B: int64(f.idx), Text: "sched-corrupt", Frame: b.Bytes()})
			}
		}
	}
	if g.faults.active() {
		if g.rng.Float64() < g.faults.LossProb {
			g.stats.Dropped++
			if g.Bus.Enabled() {
				g.Bus.Emit(trace.Event{Kind: trace.FrameDrop, Node: g.cfg.Name,
					A: int64(b.Len()), Text: "loss", Frame: b.Bytes()})
			}
			f.put()
			b.Release()
			return
		}
		if g.rng.Float64() < g.faults.CorruptProb && b.Len() > 0 {
			g.stats.Corrupted++
			bit := g.rng.Intn(b.Len() * 8)
			b.Bytes()[bit/8] ^= 1 << (bit % 8)
			b.Meta.Corrupt = true
			if g.Bus.Enabled() {
				g.Bus.Emit(trace.Event{Kind: trace.FrameCorrupt, Node: g.cfg.Name,
					A: int64(bit / 8), Frame: b.Bytes()})
			}
		}
		if g.rng.Float64() < g.faults.DupProb {
			g.stats.Duplicated++
			if g.Bus.Enabled() {
				g.Bus.Emit(trace.Event{Kind: trace.FrameDup, Node: g.cfg.Name,
					A: int64(b.Len()), Frame: b.Bytes()})
			}
			d := inflightPool.Get().(*inflight)
			*d = inflight{g: g, src: f.src, dst: f.dst, b: b.Clone()}
			g.s.AfterArg(delay, deliverCB, d)
		}
		if g.rng.Float64() < g.faults.ReorderProb {
			g.stats.Reordered++
			if g.Bus.Enabled() {
				g.Bus.Emit(trace.Event{Kind: trace.FrameReorder, Node: g.cfg.Name,
					A: int64(b.Len()), B: int64(g.faults.ReorderDelay), Frame: b.Bytes()})
			}
			delay += g.faults.ReorderDelay
		}
	}
	if schedDrop {
		g.stats.Dropped++
		if g.Bus.Enabled() {
			g.Bus.Emit(trace.Event{Kind: trace.FrameDrop, Node: g.cfg.Name,
				A: int64(b.Len()), B: int64(f.idx), Text: "sched-drop", Frame: b.Bytes()})
		}
		f.put()
		b.Release()
		return
	}
	if g.cond != nil {
		// Conditions run last, on frames that survived the Faults layer,
		// and draw only from their own RNG — see conditions.go for the
		// composition and determinism contract.
		kind, extra := g.cond.apply(g, f.src, f.dst, b.Len())
		if kind != condKeep {
			g.stats.Dropped++
			if g.Bus.Enabled() {
				g.Bus.Emit(trace.Event{Kind: trace.FrameDrop, Node: g.cfg.Name,
					A: int64(b.Len()), Text: string(kind), Frame: b.Bytes()})
			}
			f.put()
			b.Release()
			return
		}
		delay += extra
	}
	if g.sw != nil {
		// Switched fabric: the ingress hop ends at the switch, which
		// forwards (or floods) onto per-destination egress links. Faults
		// above model the ingress link, so the RNG draw order per frame is
		// identical to the point-to-point segment.
		g.s.AfterArg(delay+g.sw.Latency, switchCB, f)
		return
	}
	g.s.AfterArg(delay, deliverCB, f)
}

func (g *Segment) deliver(src, dst link.Addr, b *pkt.Buf) {
	b.Meta.RxDev = g.cfg.Name
	if g.Bus.Enabled() {
		g.Bus.Emit(trace.Event{Kind: trace.FrameRx, Node: g.cfg.Name,
			Conn: dst.String(), A: int64(b.Len()), Frame: b.Bytes()})
	}
	if dst.IsBroadcast() {
		// The final recipient takes ownership of the original frame, so a
		// broadcast to n stations costs n-1 clones rather than n. A frame
		// someone else still references (zero-copy lien, retransmission
		// hold) cannot be handed to a recipient at all — recipients strip
		// headers in place — so every copy is a clone and our reference is
		// dropped instead.
		last := -1
		for i, st := range g.order {
			if st.Addr() != src {
				last = i
			}
		}
		if last < 0 {
			b.Release()
			return
		}
		shared := b.Shared()
		for i, st := range g.order {
			if st.Addr() == src {
				continue
			}
			if i == last && !shared {
				st.Deliver(b)
			} else {
				st.Deliver(b.Clone())
			}
		}
		if shared {
			b.Release()
		}
		return
	}
	if st, ok := g.stations[dst]; ok {
		st.Deliver(b)
		return
	}
	// Frames to unknown stations vanish, as on a real wire.
	if g.Bus.Enabled() {
		g.Bus.Emit(trace.Event{Kind: trace.FrameDrop, Node: g.cfg.Name,
			A: int64(b.Len()), Text: "unknown-dst"})
	}
	b.Release()
}

// Stats reports cumulative counters.
func (g *Segment) Stats() Stats { return g.stats }
