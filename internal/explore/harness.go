// Package explore is a coverage-guided fault-schedule explorer for the TCP
// engine. It drives pairs of engine instances, joined by a pipe, through
// scripted lifecycles while systematically placing faults — per-frame-index
// drops, injected resets, aborts and closes, link cuts, partitions and
// flaps — around the handshake, simultaneous open/close, retransmission,
// persist and TIME_WAIT paths. Every run streams its trace through the RFC 793
// conformance checker (internal/conform); the explorer steers schedule
// mutation toward legal (state, trigger) transition edges not yet covered,
// and when a run produces a violation it delta-debugs the schedule down to
// a minimal deterministic reproducer.
package explore

import (
	"time"

	"ulp/internal/conform"
	"ulp/internal/ipv4"
	"ulp/internal/pkt"
	"ulp/internal/tcp"
	"ulp/internal/trace"
)

// stepDur is the harness scheduling quantum: 100 ms of virtual time, the
// same base unit the engine's own tests use. The BSD fast timeout runs
// every 2 steps (200 ms) and the slow timeout every 5 (500 ms).
const stepDur = 100 * time.Millisecond

// Side identifies one of the two engine instances in a pipe scenario.
type Side int

// Sides. A performs active opens in the library scenarios; B is the
// passive/responding end.
const (
	A Side = iota
	B
)

// OpKind enumerates scripted operations.
type OpKind int

// Scripted operations (the deterministic part of a scenario).
const (
	OpOpenActive OpKind = iota // active open (deterministic ISS per side)
	OpOpenListen               // passive open
	OpClose                    // orderly close
	OpAbort                    // abortive close (sends RST)
	OpWrite                    // write Arg bytes of pattern data
	OpRead                     // drain readable data once
	OpCut                      // stop carrying frames; Arg = direction mask
	OpUncut                    // clear cut directions in Arg
	// OpReopen opens the side again on its tuple, with an ISS Arg past its
	// first one's, once it has closed; a fault schedule that holds it in
	// another state skips the reopen (OpOpenActive there is a scripting bug).
	OpReopen
)

// Direction masks for OpCut/OpUncut and FaultCut.
const (
	DirAB   = 1 << iota // frames from A toward B
	DirBA               // frames from B toward A
	DirBoth = DirAB | DirBA
)

// Op is one scripted operation at a fixed step.
type Op struct {
	Step int
	Side Side
	Kind OpKind
	Arg  int
}

// FaultKind enumerates schedulable faults — the part of a run the explorer
// mutates and shrinks.
type FaultKind string

// Fault kinds.
const (
	// FaultDrop drops the frame with transmit-order index At (counted
	// across both directions).
	FaultDrop FaultKind = "drop"
	// FaultRST injects an acceptable RST into Side at step At, as a
	// connection-killing attacker or a stale peer would.
	FaultRST FaultKind = "rst"
	// FaultAbort calls Abort on Side at step At.
	FaultAbort FaultKind = "abort"
	// FaultClose calls Close on Side at step At.
	FaultClose FaultKind = "close"
	// FaultCut severs directions (mask in Side's place is not needed; the
	// At step applies Arg-less DirBoth).
	FaultCut FaultKind = "cut"
	// FaultPartition severs both directions at step At and heals them Dur
	// steps later (default 25) — a partition with a scripted heal, letting
	// the explorer reach the resume-after-outage edges FaultCut (which
	// never heals) cannot.
	FaultPartition FaultKind = "partition"
	// FaultFlap runs flapCycles down/up link cycles of Dur steps per half
	// period (default 10) starting at step At.
	FaultFlap FaultKind = "flap"

	// faultUncut is the internal heal action partition/flap expand into.
	faultUncut FaultKind = "uncut"
)

// Defaults for the timed fault kinds.
const (
	defaultPartitionSteps = 25
	defaultFlapSteps      = 10
	flapCycles            = 3
)

// Fault is one schedulable fault point.
type Fault struct {
	Kind FaultKind `json:"kind"`
	At   int       `json:"at"`   // frame index for drop; step otherwise
	Side Side      `json:"side"` // target side (ignored for cut)
	// Dur is the duration in steps for the timed kinds (partition length,
	// flap half-period); 0 selects the kind's default.
	Dur int `json:"dur,omitempty"`
}

// Scenario is a deterministic script plus engine configuration. The same
// scenario run with the same fault list always produces the identical
// trace.
type Scenario struct {
	Name          string
	Ops           []Op
	Faults        []Fault // built-in fault placements (the script's own)
	MaxSteps      int
	TimeWaitTicks int  // 2*MSL override in slow ticks (0 = engine default)
	KeepAlive     int  // keepalive ticks (0 = off)
	NoAutoRead    bool // suppress the per-step drain (zero-window scenarios)
}

// Result is one run's outcome.
type Result struct {
	Violations []conform.Violation
	Coverage   *conform.Coverage
	Steps      int
	Frames     int
	Final      [2]tcp.State
	Stats      [2]tcp.Stats // each side's engine counters at the end
}

// inseg is one in-flight segment.
type inseg struct {
	at   int // delivery step
	h    tcp.Header
	data []byte
}

type harness struct {
	sc      Scenario
	conns   [2]*tcp.Conn
	eps     [2]tcp.Endpoint
	queue   [2][]inseg // inbound per side
	head    [2]int
	cut     int // direction mask currently severed
	step    int
	frames  int
	drops   map[int]bool // frame indices to drop
	checker *conform.Checker

	// lastAck[i] is the ACK field of side i's most recent transmission
	// (its rcv_nxt); seqEnd[i] is the end of its sent sequence space.
	// Together they let the harness forge an RST the target must accept.
	lastAck [2]tcp.Seq
	hasAck  [2]bool
	seqEnd  [2]tcp.Seq
}

// Run executes a scenario with the given fault schedule and returns the
// conformance results.
func Run(sc Scenario, faults []Fault) Result {
	h := &harness{
		sc:    sc,
		drops: make(map[int]bool),
		eps: [2]tcp.Endpoint{
			{IP: ipv4.Addr{10, 0, 0, 1}, Port: 1025},
			{IP: ipv4.Addr{10, 0, 0, 2}, Port: 80},
		},
	}
	bus := trace.NewBus(func() time.Duration {
		return time.Duration(h.step) * stepDur
	})
	h.checker = conform.New()
	h.checker.Attach(bus)

	cfg := tcp.Config{MSS: 512, NoDelayedAck: true}
	if sc.TimeWaitTicks > 0 {
		cfg.TimeWaitTicks = sc.TimeWaitTicks
	}
	if sc.KeepAlive > 0 {
		cfg.KeepAliveTicks = sc.KeepAlive
	}
	for i := 0; i < 2; i++ {
		i := i
		h.conns[i] = tcp.NewConn(cfg, h.eps[i], h.eps[1-i], tcp.Callbacks{
			Send: func(b *pkt.Buf, hdr tcp.Header, pl int) { h.send(Side(i), b, hdr, pl) },
		})
		// The label ends in the connection's four-tuple, as the shells'
		// do, so the checker can pair it with its frames.
		h.conns[i].SetTrace(bus, sideName(Side(i))+" "+h.eps[i].String()+">"+h.eps[1-i].String())
	}
	h.conns[B].SetISS(500_000)

	// Index faults by kind; the scenario's built-in placements run first.
	stepFaults := map[int][]Fault{}
	all := make([]Fault, 0, len(sc.Faults)+len(faults))
	all = append(all, sc.Faults...)
	all = append(all, faults...)
	addStep := func(at int, f Fault) {
		f.At = at
		stepFaults[at] = append(stepFaults[at], f)
	}
	for _, f := range all {
		switch f.Kind {
		case FaultDrop:
			h.drops[f.At] = true
		case FaultPartition:
			// Expand into a cut and a scripted heal.
			dur := f.Dur
			if dur <= 0 {
				dur = defaultPartitionSteps
			}
			addStep(f.At, Fault{Kind: FaultCut})
			addStep(f.At+dur, Fault{Kind: faultUncut})
		case FaultFlap:
			dur := f.Dur
			if dur <= 0 {
				dur = defaultFlapSteps
			}
			for k := 0; k < flapCycles; k++ {
				down := f.At + 2*k*dur
				addStep(down, Fault{Kind: FaultCut})
				addStep(down+dur, Fault{Kind: faultUncut})
			}
		default:
			stepFaults[f.At] = append(stepFaults[f.At], f)
		}
	}
	opIdx := 0
	ops := sc.Ops
	maxSteps := sc.MaxSteps
	if maxSteps == 0 {
		maxSteps = 8000
	}

	for h.step = 0; h.step < maxSteps; h.step++ {
		// Scripted operations, then scheduled faults, for this step.
		for opIdx < len(ops) && ops[opIdx].Step <= h.step {
			h.apply(ops[opIdx])
			opIdx++
		}
		for _, f := range stepFaults[h.step] {
			h.applyFault(f)
		}
		// Deliveries due this step (new sends are due next step).
		for i := 0; i < 2; i++ {
			q := &h.queue[i]
			for h.head[i] < len(*q) && (*q)[h.head[i]].at <= h.step {
				seg := (*q)[h.head[i]]
				h.head[i]++
				h.conns[i].Input(seg.h, seg.data)
			}
		}
		// BSD tick structure.
		if h.step%2 == 1 {
			h.conns[A].FastTick()
			h.conns[B].FastTick()
		}
		if h.step%5 == 4 {
			h.conns[A].SlowTick()
			h.conns[B].SlowTick()
		}
		if !sc.NoAutoRead {
			h.drain(A)
			h.drain(B)
		}
		// Early exit once nothing can ever happen again.
		if h.conns[A].State() == tcp.Closed && h.conns[B].State() == tcp.Closed &&
			h.head[0] == len(h.queue[0]) && h.head[1] == len(h.queue[1]) &&
			opIdx == len(ops) {
			h.step++
			break
		}
	}

	return Result{
		Violations: h.checker.Violations(),
		Coverage:   h.checker.Coverage(),
		Steps:      h.step,
		Frames:     h.frames,
		Final:      [2]tcp.State{h.conns[A].State(), h.conns[B].State()},
		Stats:      [2]tcp.Stats{h.conns[A].Stats(), h.conns[B].Stats()},
	}
}

func sideName(s Side) string {
	if s == A {
		return "A"
	}
	return "B"
}

func (h *harness) send(from Side, b *pkt.Buf, hdr tcp.Header, pl int) {
	idx := h.frames
	h.frames++
	to := 1 - from
	h.checker.Segment(time.Duration(h.step)*stepDur, h.eps[from], h.eps[to], hdr, pl)

	h.seqEnd[from] = segEnd(hdr, pl)
	if hdr.Flags&tcp.FlagACK != 0 {
		h.lastAck[from] = hdr.Ack
		h.hasAck[from] = true
	}

	dirBit := DirAB
	if from == B {
		dirBit = DirBA
	}
	if h.cut&dirBit != 0 || h.drops[idx] {
		return
	}
	var data []byte
	if pl > 0 {
		raw := b.Bytes()
		data = append([]byte(nil), raw[len(raw)-pl:]...)
	}
	h.queue[to] = append(h.queue[to], inseg{at: h.step + 1, h: hdr, data: data})
}

func segEnd(h tcp.Header, pl int) tcp.Seq {
	n := pl
	if h.Flags&tcp.FlagSYN != 0 {
		n++
	}
	if h.Flags&tcp.FlagFIN != 0 {
		n++
	}
	return h.Seq.Add(n)
}

func (h *harness) apply(op Op) {
	c := h.conns[op.Side]
	switch op.Kind {
	case OpOpenActive, OpReopen:
		if op.Kind == OpReopen && c.State() != tcp.Closed {
			return
		}
		iss := tcp.Seq(1000)
		if op.Side == B {
			iss = 500_000
		}
		c.OpenActive(iss.Add(op.Arg))
	case OpOpenListen:
		c.OpenListen()
	case OpClose:
		c.Close()
	case OpAbort:
		c.Abort()
	case OpWrite:
		c.Write(patternBytes(op.Arg))
	case OpRead:
		h.drain(op.Side)
	case OpCut:
		h.cut |= op.Arg
	case OpUncut:
		h.cut &^= op.Arg
	}
}

func (h *harness) applyFault(f Fault) {
	switch f.Kind {
	case FaultAbort:
		h.conns[f.Side].Abort()
	case FaultClose:
		h.conns[f.Side].Close()
	case FaultCut:
		h.cut = DirBoth
	case faultUncut:
		h.cut = 0
	case FaultRST:
		// Forge an RST the target must accept: seq at the target's own
		// rcv_nxt (the ACK it last advertised), ack covering everything it
		// has sent (so a SYN_SENT target passes the ackOK test).
		hdr := tcp.Header{
			SrcPort: h.eps[1-f.Side].Port,
			DstPort: h.eps[f.Side].Port,
			Seq:     h.lastAck[f.Side],
			Ack:     h.seqEnd[f.Side],
			Flags:   tcp.FlagRST | tcp.FlagACK,
		}
		h.conns[f.Side].Input(hdr, nil)
	}
}

func (h *harness) drain(s Side) {
	var buf [2048]byte
	for {
		if h.conns[s].Read(buf[:]) == 0 {
			return
		}
	}
}

// patternBytes returns deterministic payload data.
func patternBytes(n int) []byte {
	p := make([]byte, n)
	for i := range p {
		p[i] = byte(i * 7)
	}
	return p
}
