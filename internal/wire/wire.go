// Package wire models the physical network media: a shared 10 Mb/s Ethernet
// segment and a switched, full-duplex 100 Mb/s AN1 segment. A segment
// serializes transmissions (globally for the shared Ethernet, per source
// port for the switched AN1), charges transmission and propagation delay,
// and runs every frame through the segment's impairment plan
// (LinkConditions: loss, duplication, corruption, reordering, flaps,
// partitions, bursts, a bottleneck queue) for protocol robustness testing.
//
// Stations are identified by link.Addr; attached devices receive delivery
// callbacks in event context at frame-arrival time.
package wire

import (
	"fmt"
	"time"

	"ulp/internal/freelist"
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
	cond     *condState // impairment plan (nil unless SetConditions)

	// Learning-switch state (nil/unused unless built with NewSwitched).
	sw      *SwitchConfig
	macPort map[link.Addr]macEntry
	egress  map[link.Addr]*sim.Resource

	// TraceFrame, when non-nil, receives every transmitted frame at queue
	// time. Observers must treat the buffer as read-only.
	TraceFrame func(b *pkt.Buf, at sim.Time)

	stats                         Stats
	framesSwitched, framesFlooded int

	// free holds the segment's spare in-flight frame records.
	free freelist.List[*inflight]
}

// Stats is a segment's cumulative frame counters. Sent and Bytes count
// transmissions. Dropped counts every frame the impairment plan discarded;
// the ...Drops fields break it down by stage, the rest being i.i.d. losses.
// Corrupted, Duplicated and Reordered count the frame-fault stage's other
// outcomes. QueuedFrames counts frames that waited behind another at the
// bottleneck, BadStateFrames frames that met the burst model in its Bad
// state.
type Stats struct {
	Sent, Dropped, Corrupted, Duplicated, Reordered int
	Bytes                                           int64

	FlapDrops, PartitionDrops, BurstDrops, PathDrops, QueueDrops int
	QueuedFrames, BadStateFrames                                 int
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
	if g.TraceFrame != nil {
		g.TraceFrame(b, g.s.Now())
	}
	if g.s.Bus.Enabled() {
		g.s.Bus.Emit(trace.Event{Kind: trace.FrameTx, Node: g.cfg.Name,
			A: int64(b.Len()), Frame: b.Bytes()})
	}
	tx := g.TxTime(b.Len())
	res.UseAsyncArg(tx, propagateCB, g.newInflight(inflight{src: src, dst: dst, b: b}))
}

// inflight carries one frame through the transmit -> propagate -> deliver
// pipeline. Records come from their segment's free list and the stage
// callbacks are static functions, so a frame crossing the wire costs no
// allocation.
type inflight struct {
	g        *Segment
	src, dst link.Addr
	b        *pkt.Buf
	st       Station // resolved egress station (switched fabric only)
}

// newInflight returns a record from the segment's list holding f.
func (g *Segment) newInflight(f inflight) *inflight {
	rec := g.free.Get()
	if rec == nil {
		rec = new(inflight)
	}
	*rec = f
	rec.g = g
	return rec
}

// Scrub drops the record's references.
func (f *inflight) Scrub() { *f = inflight{} }

// put gives the record back to its segment's list.
func (f *inflight) put() { f.g.free.Put(f) }

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

// propagate runs the frame through the impairment plan and schedules its
// delivery. It takes over ownership of f (and the frame it carries).
func (g *Segment) propagate(f *inflight) {
	delay := g.cfg.Propagation
	if g.cond != nil {
		kind, extra := g.cond.apply(g, f)
		if kind != condKeep {
			b := f.b
			g.stats.Dropped++
			if g.s.Bus.Enabled() {
				g.s.Bus.Emit(trace.Event{Kind: trace.FrameDrop, Node: g.cfg.Name,
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
		// forwards (or floods) onto per-destination egress links. The plan
		// above models the ingress link, so the draw order per frame is
		// identical to the point-to-point segment.
		g.s.AfterArg(delay+g.sw.Latency, switchCB, f)
		return
	}
	g.s.AfterArg(delay, deliverCB, f)
}

func (g *Segment) deliver(src, dst link.Addr, b *pkt.Buf) {
	if g.s.Bus.Enabled() {
		g.s.Bus.Emit(trace.Event{Kind: trace.FrameRx, Node: g.cfg.Name,
			Conn: dst.String(), A: int64(b.Len()), Frame: b.Bytes()})
	}
	if dst.IsBroadcast() {
		g.fanOut(src, b, Station.Deliver)
		return
	}
	if st, ok := g.stations[dst]; ok {
		st.Deliver(b)
		return
	}
	// Frames to unknown stations vanish, as on a real wire.
	if g.s.Bus.Enabled() {
		g.s.Bus.Emit(trace.Event{Kind: trace.FrameDrop, Node: g.cfg.Name,
			A: int64(b.Len()), Text: "unknown-dst"})
	}
	b.Release()
}

// fanOut sends frame b from src to every other station, in attach order:
// a broadcast, or a unicast the switch floods. The last recipient takes
// ownership of the original frame, so n recipients cost n-1 clones. A frame
// someone else still references (a receive channel's lien) cannot be
// handed to a recipient at all — recipients strip headers in
// place — so every copy is a clone and our reference is dropped instead.
func (g *Segment) fanOut(src link.Addr, b *pkt.Buf, send func(Station, *pkt.Buf)) {
	shared := b.Shared()
	var last Station
	for _, st := range g.order {
		if st.Addr() == src {
			continue
		}
		if last != nil {
			send(last, b.Clone())
		}
		last = st
	}
	switch {
	case last == nil:
		b.Release()
	case shared:
		send(last, b.Clone())
		b.Release()
	default:
		send(last, b)
	}
}

// Stats reports cumulative counters.
func (g *Segment) Stats() Stats { return g.stats }

// Describe emits the segment's frame counters under their stats names.
func (g *Segment) Describe(emit func(string, int64)) {
	emit("frames_sent", int64(g.stats.Sent))
	emit("frames_dropped", int64(g.stats.Dropped))
	emit("frames_corrupted", int64(g.stats.Corrupted))
	emit("frames_duplicated", int64(g.stats.Duplicated))
	emit("frames_reordered", int64(g.stats.Reordered))
	emit("bytes_sent", g.stats.Bytes)
}
