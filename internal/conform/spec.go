// Package conform is an RFC 793 conformance checker for the TCP engine's
// trace stream. It encodes the legal state-transition relation — every
// (from, to) edge of the connection state machine together with the trigger
// classes (user call, segment arrival, reset, timer expiry) that may cause
// it — plus cross-event invariants the RFC and the 4.3BSD timer design
// imply: sequence-space monotonicity on the wire, no data after a FIN,
// TIME_WAIT lasting exactly the armed 2*MSL interval, and Karn-compliant
// RTT sampling (no sample may span a retransmission).
//
// The checker is a passive trace.Bus consumer: it never touches the engine,
// never consumes virtual time, and can be attached to any traced run — the
// chaos suites, the determinism replays, cmd/ultrace, or the fault-schedule
// explorer in internal/explore. Violations come out as structured reports
// (connection label, event index, offending edge) that the explorer shrinks
// into minimal reproducers.
package conform

import "ulp/internal/tcp"

// Edge is one transition of the state machine: from, to, and the trigger
// class that caused it. It doubles as the unit of transition coverage: the
// explorer steers fault schedules toward edges not yet hit.
type Edge struct {
	From tcp.State   `json:"from"`
	To   tcp.State   `json:"to"`
	Via  tcp.Trigger `json:"via"`
}

func (e Edge) String() string {
	return e.From.String() + "->" + e.To.String() + " via " + e.Via.String()
}

// numStates and numTriggers bound the relation tables.
const (
	numStates   = int(tcp.TimeWait) + 1
	numTriggers = int(tcp.TrigTimer) + 1
)

// legalMask[from][to] is a bitmask over trigger classes: bit t set means
// the edge from->to is legal when caused by trigger t.
var legalMask [numStates][numStates]uint8

// legalEdges enumerates the transition relation the engine can actually
// realize. It is deliberately tighter than a verbatim reading of the RFC 793
// diagram: edges the engine structurally cannot take (for example
// SYN_RCVD -> CLOSE_WAIT, which is dead because ACK processing always moves
// SYN_RCVD to ESTABLISHED or resets first, and the compound
// FIN_WAIT_1 -> TIME_WAIT shortcut, which this engine always takes as two
// observable steps) are omitted, so that hitting 100% edge coverage is
// possible and any edge outside the table is a real bug.
var legalEdges = func() []Edge {
	var edges []Edge
	add := func(from, to tcp.State, via tcp.Trigger) {
		edges = append(edges, Edge{from, to, via})
	}

	// --- User calls (open, close, abort) -------------------------------
	add(tcp.Closed, tcp.Listen, tcp.TrigUser)        // passive open
	add(tcp.Closed, tcp.SynSent, tcp.TrigUser)       // active open
	add(tcp.SynRcvd, tcp.FinWait1, tcp.TrigUser)     // close before handshake completes
	add(tcp.Established, tcp.FinWait1, tcp.TrigUser) // orderly close
	add(tcp.CloseWait, tcp.LastAck, tcp.TrigUser)    // close after peer's FIN
	// Close in LISTEN/SYN_SENT and Abort anywhere tear straight down.
	for s := tcp.Listen; s <= tcp.TimeWait; s++ {
		add(s, tcp.Closed, tcp.TrigUser)
	}

	// --- Segment arrivals ----------------------------------------------
	add(tcp.Listen, tcp.SynRcvd, tcp.TrigSegment)        // SYN received
	add(tcp.SynSent, tcp.Established, tcp.TrigSegment)   // SYN|ACK received
	add(tcp.SynSent, tcp.SynRcvd, tcp.TrigSegment)       // simultaneous open
	add(tcp.SynRcvd, tcp.Established, tcp.TrigSegment)   // handshake ACK
	add(tcp.Established, tcp.CloseWait, tcp.TrigSegment) // peer's FIN
	add(tcp.FinWait1, tcp.FinWait2, tcp.TrigSegment)     // our FIN acked
	add(tcp.FinWait1, tcp.Closing, tcp.TrigSegment)      // simultaneous close
	add(tcp.FinWait2, tcp.TimeWait, tcp.TrigSegment)     // peer's FIN
	add(tcp.Closing, tcp.TimeWait, tcp.TrigSegment)      // our FIN acked
	add(tcp.LastAck, tcp.Closed, tcp.TrigSegment)        // our FIN acked

	// --- Resets (received RST, or fatal in-window SYN) -----------------
	add(tcp.SynSent, tcp.Closed, tcp.TrigReset)
	for s := tcp.SynRcvd; s <= tcp.TimeWait; s++ {
		add(s, tcp.Closed, tcp.TrigReset)
	}

	// --- Timers --------------------------------------------------------
	// Retransmission give-up is possible wherever unacked sequence space
	// can be outstanding; keepalive failure only in ESTABLISHED (subsumed);
	// the 2*MSL timer releases TIME_WAIT. FIN_WAIT_2 never times out here:
	// by definition all our data and the FIN are acked, so no retransmit or
	// keepalive timer can be pending.
	for _, s := range []tcp.State{
		tcp.SynSent, tcp.SynRcvd, tcp.Established, tcp.FinWait1,
		tcp.CloseWait, tcp.Closing, tcp.LastAck, tcp.TimeWait,
	} {
		add(s, tcp.Closed, tcp.TrigTimer)
	}

	for _, e := range edges {
		legalMask[e.From][e.To] |= 1 << e.Via
	}
	return edges
}()

// Legal reports whether the edge from->to under the given trigger is in the
// relation.
func Legal(from, to tcp.State, via tcp.Trigger) bool {
	if int(from) >= numStates || int(to) >= numStates || int(via) >= numTriggers {
		return false
	}
	return legalMask[from][to]&(1<<via) != 0
}

// edgeKnown reports whether from->to is legal under any trigger (used to
// distinguish "illegal edge" from "legal edge, wrong trigger" in reports).
func edgeKnown(from, to tcp.State) bool {
	if int(from) >= numStates || int(to) >= numStates {
		return false
	}
	return legalMask[from][to] != 0
}

// States in which the engine may legitimately emit the non-state trace
// events. Retransmission timeouts require an armed retransmit timer; fast
// retransmits require duplicate-ACK processing in a synchronized state; RTT
// samples and persist probes require a synchronized state that can still
// carry data.
var (
	rexmitStates = stateSet(tcp.SynSent, tcp.SynRcvd, tcp.Established,
		tcp.FinWait1, tcp.CloseWait, tcp.Closing, tcp.LastAck)
	fastRexmitStates = stateSet(tcp.Established, tcp.FinWait1,
		tcp.CloseWait, tcp.Closing, tcp.LastAck)
	rtoStates = stateSet(tcp.Established, tcp.FinWait1,
		tcp.CloseWait, tcp.Closing, tcp.LastAck)
	persistStates = stateSet(tcp.Established, tcp.FinWait1,
		tcp.CloseWait, tcp.Closing, tcp.LastAck)
)

func stateSet(states ...tcp.State) uint16 {
	var m uint16
	for _, s := range states {
		m |= 1 << s
	}
	return m
}

func inSet(m uint16, s tcp.State) bool {
	return int(s) < numStates && m&(1<<s) != 0
}

// Coverage accumulates which legal edges a run has exercised.
type Coverage struct {
	hits map[Edge]int
}

// NewCoverage returns an empty coverage map.
func NewCoverage() *Coverage { return &Coverage{hits: make(map[Edge]int)} }

// Hit records one traversal of a legal edge.
func (c *Coverage) Hit(e Edge) { c.hits[e]++ }

// Count returns how many distinct legal edges have been exercised.
func (c *Coverage) Count() int { return len(c.hits) }

// Total returns the size of the legal relation.
func (c *Coverage) Total() int { return len(legalEdges) }

// Frac returns covered/total in [0,1].
func (c *Coverage) Frac() float64 {
	return float64(c.Count()) / float64(c.Total())
}

// Missing returns the legal edges not yet exercised, in relation order.
func (c *Coverage) Missing() []Edge {
	var m []Edge
	for _, e := range legalEdges {
		if c.hits[e] == 0 {
			m = append(m, e)
		}
	}
	return m
}

// Merge folds another coverage map into this one.
func (c *Coverage) Merge(o *Coverage) {
	for e, n := range o.hits {
		c.hits[e] += n
	}
}
