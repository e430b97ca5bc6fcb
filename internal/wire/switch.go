package wire

import (
	"time"

	"ulp/internal/link"
	"ulp/internal/pkt"
	"ulp/internal/sim"
	"ulp/internal/trace"
)

// SwitchConfig turns a non-shared segment into a store-and-forward
// learning switch: every station attaches to its own switch port, frames
// cross the ingress link, pay a fixed switching latency, and queue on the
// destination port's egress link. Two flows between disjoint host pairs
// no longer contend — the property that lets a many-host world scale past
// what one shared medium serializes.
//
// The switch learns source addresses as frames arrive. A unicast frame
// whose destination has not yet transmitted floods every port (the
// stations' MAC filters discard the copies they did not want), exactly
// once per miss; after the destination's first transmission its frames
// take the single learned port.
type SwitchConfig struct {
	// Latency is the per-frame store-and-forward plus lookup delay.
	Latency time.Duration

	// MacTTL ages learned MAC entries: an entry whose source has not
	// transmitted for MacTTL is treated as a miss (the frame floods and
	// the address re-learns). 0 uses DefaultMacTTL. Without aging, a
	// crashed host's entry steers frames to a dead port forever.
	MacTTL time.Duration
}

// DefaultMacTTL matches the classic bridge address-table timeout.
const DefaultMacTTL = 60 * time.Second

// macEntry is one learned address: the egress station and the virtual time
// of the last frame seen from it.
type macEntry struct {
	st   Station
	seen sim.Time
}

// NewSwitched creates a switched segment. The base configuration must be
// non-shared (each station already owns its ingress serialization).
func NewSwitched(s *sim.Sim, cfg Config, sw SwitchConfig) *Segment {
	if cfg.Shared {
		panic("wire: switched fabric requires a non-shared segment")
	}
	g := New(s, cfg)
	swc := sw
	if swc.MacTTL == 0 {
		swc.MacTTL = DefaultMacTTL
	}
	g.sw = &swc
	g.macPort = make(map[link.Addr]macEntry)
	g.egress = make(map[link.Addr]*sim.Resource)
	return g
}

// SwitchStats reports learned table size and forwarding counters:
// switched frames took a single learned port, flooded frames were unicast
// misses copied to every port.
func (g *Segment) SwitchStats() (learned, switched, flooded int) {
	return len(g.macPort), g.framesSwitched, g.framesFlooded
}

func switchCB(a any) {
	f := a.(*inflight)
	f.g.forward(f)
}

// forward runs at the switch after the ingress hop: learn (or refresh)
// the source, then unicast out the learned port or flood. Re-stamping on
// every frame keeps an active station's entry alive and re-points it when
// the address reappears behind a different port (host restart); a learned
// entry older than MacTTL is treated as a miss and lazily deleted, so the
// flood/re-learn path runs instead of steering into a dead port.
func (g *Segment) forward(f *inflight) {
	src, dst := f.src, f.dst
	now := g.s.Now()
	if st, here := g.stations[src]; here {
		g.macPort[src] = macEntry{st: st, seen: now}
	}
	if !dst.IsBroadcast() {
		if e, ok := g.macPort[dst]; ok {
			if now.Sub(e.seen) <= g.sw.MacTTL {
				g.framesSwitched++
				f.st = e.st
				g.egressSend(f)
				return
			}
			delete(g.macPort, dst) // aged out: fall through to flood
		}
		g.framesFlooded++
	}
	g.flood(f)
}

// flood copies the frame to every port except the ingress one (see fanOut).
func (g *Segment) flood(f *inflight) {
	src, dst, b := f.src, f.dst, f.b
	f.put()
	g.fanOut(src, b, func(st Station, fb *pkt.Buf) {
		g.egressSend(g.newInflight(inflight{src: src, dst: dst, b: fb, st: st}))
	})
}

// egressSend serializes the frame onto the destination port's egress link,
// which runs at the segment's rate (a non-blocking fabric with matched
// ports), and schedules final delivery after the port-to-station
// propagation.
func (g *Segment) egressSend(f *inflight) {
	g.egress[f.st.Addr()].UseAsyncArg(g.TxTime(f.b.Len()), egressCB, f)
}

func egressCB(a any) {
	f := a.(*inflight)
	f.g.s.AfterArg(f.g.cfg.Propagation, switchedDeliverCB, f)
}

func switchedDeliverCB(a any) {
	f := a.(*inflight)
	g, st, b := f.g, f.st, f.b
	f.put()
	if g.s.Bus.Enabled() {
		g.s.Bus.Emit(trace.Event{Kind: trace.FrameRx, Node: g.cfg.Name,
			Conn: st.Addr().String(), A: int64(b.Len()), Frame: b.Bytes()})
	}
	st.Deliver(b)
}
