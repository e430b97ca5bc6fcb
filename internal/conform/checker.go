package conform

import (
	"cmp"
	"fmt"
	"strings"
	"time"

	"ulp/internal/tcp"
	"ulp/internal/trace"
)

const (
	// tick is the slow-timer period all tick-counter intervals are
	// expressed in: the 4.3BSD slow timeout.
	tick = 500 * time.Millisecond
	// slack is the timing tolerance for tick-based checks: timers are
	// decremented at host tick boundaries, so an interval of N ticks armed
	// between ticks legitimately elapses in (N-1, N] tick periods. One
	// extra tick on each side absorbs the arming phase.
	slack = tick
	// fastTick is the fast-timeout period the tail loss probe counts in.
	fastTick = 200 * time.Millisecond
	// maxViolations caps the report list so a systematically broken run
	// cannot accumulate unbounded reports; Reported counts them all.
	maxViolations = 100
)

// backoff is the 4.3BSD retransmission backoff table, indexed by shift.
var backoff = [13]int{1, 2, 4, 8, 16, 32, 64, 64, 64, 64, 64, 64, 64}

// Violation is one conformance failure, with enough structure for the
// explorer to key, dedup, and shrink on it.
type Violation struct {
	Conn   string        `json:"conn"`           // connection or flow label
	Index  int           `json:"index"`          // ordinal of the offending event in the observed stream
	At     time.Duration `json:"at"`             // virtual time
	Rule   string        `json:"rule"`           // which invariant failed
	Detail string        `json:"detail"`         // human-readable specifics
	Edge   *Edge         `json:"edge,omitempty"` // offending transition, for edge rules
}

func (v Violation) String() string {
	return fmt.Sprintf("conform: %s at %v (event %d, conn %q): %s",
		v.Rule, v.At, v.Index, v.Conn, v.Detail)
}

// Rule names.
const (
	RuleIllegalEdge   = "illegal-edge"        // transition outside the legal relation
	RuleBadTrigger    = "bad-trigger"         // legal edge, impossible trigger class
	RuleDiscontinuity = "state-discontinuity" // event's old state != tracked state
	RuleTimeWait      = "timewait-duration"   // 2*MSL fired sooner/later than armed, or released before it fired
	RuleTimeWaitArm   = "timewait-arm-state"  // 2*MSL armed outside TIME_WAIT
	RuleRexmitState   = "rexmit-state"        // retransmission in an impossible state
	RuleRexmitRange   = "rexmit-range"        // backoff shift or RTO out of range
	RulePersistState  = "persist-state"       // window probe in an impossible state
	RulePersistRange  = "persist-range"       // persist shift or interval out of range
	RuleRTOState      = "rto-state"           // RTT sample in an impossible state
	RuleKarn          = "karn-sample"         // RTT sample spans a retransmission
	RuleRTOMismatch   = "rto-mismatch"        // RTO disagrees with the Jacobson estimator
	RuleAckRegress    = "ack-regress"         // ACK field moved backward on a flow
	RuleDataAfterFin  = "data-after-fin"      // payload beyond the flow's FIN
	RuleFinMoved      = "fin-moved"           // FIN retransmitted at a different sequence
	RuleProbeRepeat   = "probe-repeat"        // second tail loss probe with no new ACK between
	RuleProbeRecovery = "probe-in-recovery"   // tail loss probe during fast recovery
	RuleProbeEarly    = "probe-early"         // tail loss probe within a fast tick of new data or an RTT sample
	RuleFastEntry     = "fast-entry"          // fast recovery begun before an ACK covered the last recover
)

// connTrack is the checker's per-connection-label state.
type connTrack struct {
	seen  bool
	state tcp.State
	// flow names the connection's outbound flow as checkSegment keys it,
	// or is "" when its label names no four-tuple (flowOf).
	flow string
	// birth is set when the first observed event shows the connection in
	// Closed: only then do we know the engine's estimator state from the
	// start, so estimator-mirror and Karn checks apply. Connections first
	// observed mid-life (snapshot/restore handoffs) get edge and timing
	// checks only.
	birth bool

	// TIME_WAIT duration tracking.
	twArmed    bool
	twArmedAt  time.Duration
	twTicks    int64
	sawTWEntry bool

	// Karn rule: time of the most recent retransmission.
	sawRexmit    bool
	lastRexmitAt time.Duration

	// Jacobson estimator mirror (valid only when birth); sampled is set by
	// the first RTT sample, which may leave srtt at 0.
	srtt, rttvar         int
	sampled, baseUnknown bool
	// sampleAt is the time of the last RTT sample: a new ACK the engine is
	// known to have received.
	sampleAt time.Duration
}

// flowTrack is per-directed-flow sequence bookkeeping, and the tail loss
// probe state of the flow's sender, which the flow's sends and the ACKs
// sent back show. Frames are seen as they are sent, so an ACK counts from
// before its receiver has it (or if it is lost): the probe rules err
// toward silence.
type flowTrack struct {
	hasAck  bool
	maxAck  tcp.Seq
	finSeen bool
	finSeq  tcp.Seq // sequence number of the FIN flag itself

	// sndEnd ends the highest sequence space sent (valid once sent), and
	// newDataAt is when a segment last extended it.
	sent      bool
	sndEnd    tcp.Seq
	newDataAt time.Duration
	// recover is what the sender had sent at its last recovery entry or
	// time-out (once guarded): it begins recovery again only after an ACK
	// of recover is sent back. recovering: that entry began fast recovery,
	// which a time-out or an ACK of recover sent back ends.
	recovering, guarded bool
	recover             tcp.Seq
	// probed: the sender probed its tail with snd_una at probeUna; an ACK
	// above it sent back clears it.
	probed   bool
	probeUna tcp.Seq
}

// Checker consumes TCP trace events (and transmitted frames) and verifies
// them against the RFC 793 spec in spec.go. Attach it to a trace.Bus with
// Attach, or feed it directly with HandleEvent / Segment.
type Checker struct {
	conns map[string]*connTrack
	flows map[string]*flowTrack // keyed "src>dst"
	cov   *Coverage

	idx        int // events observed (all kinds), for violation indexing
	violations []Violation
	reported   int // violations found, kept or dropped past maxViolations
}

// New creates a checker.
func New() *Checker {
	return &Checker{
		conns: make(map[string]*connTrack),
		flows: make(map[string]*flowTrack),
		cov:   NewCoverage(),
	}
}

// Attach subscribes the checker to a bus.
func (k *Checker) Attach(bus *trace.Bus) { bus.Subscribe(k.HandleEvent) }

// Violations returns the accumulated reports.
func (k *Checker) Violations() []Violation { return k.violations }

// Reported counts every violation found: the first 100, which Violations
// keeps, and each dropped after them.
func (k *Checker) Reported() int { return k.reported }

// Coverage returns the legal-edge coverage accumulated so far.
func (k *Checker) Coverage() *Coverage { return k.cov }

func (k *Checker) report(conn string, at time.Duration, rule, detail string, edge *Edge) {
	if k.reported++; len(k.violations) >= maxViolations {
		return
	}
	k.violations = append(k.violations, Violation{
		Conn: conn, Index: k.idx, At: at, Rule: rule, Detail: detail, Edge: edge,
	})
}

func (k *Checker) conn(label string) *connTrack {
	ct := k.conns[label]
	if ct == nil {
		ct = &connTrack{flow: flowOf(label)}
		k.conns[label] = ct
	}
	return ct
}

// flowOf returns the outbound flow a connection's label names. Shells
// label a connection "<owner> local>peer", which ends in the flow's name
// as checkSegment keys it; a label without a four-tuple gives "".
func flowOf(label string) string {
	t := label[strings.LastIndexByte(label, ' ')+1:]
	if !strings.Contains(t, ">") {
		return ""
	}
	return t
}

// HandleEvent is the bus subscriber: it dispatches on the TCP event kinds
// and transmitted frames, ignoring everything else.
func (k *Checker) HandleEvent(e trace.Event) {
	k.idx++
	switch e.Kind {
	case trace.TCPState:
		k.onState(e)
	case trace.TCPTimeWait:
		k.onTimeWaitArm(e)
	case trace.TCPRexmit:
		k.onRexmit(e)
	case trace.TCPRTO:
		k.onRTO(e)
	case trace.TCPPersist:
		k.onPersist(e)
	case trace.FrameTx:
		// Transmit-time frames are pre-fault-injection, so flow invariants
		// hold regardless of chaos configuration.
		k.onFrame(e.At, e.Frame)
	}
}

func (k *Checker) onState(e trace.Event) {
	from, to := tcp.State(e.A), tcp.State(e.B)
	via := tcp.Trigger(e.C)
	ct := k.conn(e.Conn)

	if ct.seen && ct.state != from {
		k.report(e.Conn, e.At, RuleDiscontinuity,
			fmt.Sprintf("transition %s->%s but connection was tracked in %s",
				from, to, ct.state), nil)
		// Resynchronize on the event's own old state so one glitch does not
		// cascade into a report per subsequent event.
	}
	if !ct.seen {
		ct.seen = true
		ct.birth = from == tcp.Closed
	} else if from == tcp.Closed && ct.sampled {
		// The label is reopened, by the same pcb (which keeps its sample
		// count) or a new one: the back-off base is unknown until the
		// next sample.
		ct.sampled, ct.baseUnknown = false, true
	}

	edge := Edge{From: from, To: to, Via: via}
	switch {
	case Legal(from, to, via):
		k.cov.Hit(edge)
	case edgeKnown(from, to):
		k.report(e.Conn, e.At, RuleBadTrigger,
			fmt.Sprintf("edge %s->%s cannot be caused by %q", from, to, via), &edge)
	default:
		k.report(e.Conn, e.At, RuleIllegalEdge,
			fmt.Sprintf("no legal transition %s->%s (trigger %q)", from, to, via), &edge)
	}

	if to == tcp.TimeWait {
		ct.sawTWEntry = true
		ct.twArmed = false // the arm event follows the transition
	}
	if from == tcp.TimeWait && to == tcp.Closed && via == tcp.TrigTimer {
		k.checkTimeWaitRelease(e, ct)
	}
	ct.state = to
}

// checkTimeWaitRelease verifies the 2*MSL quiet period: the timer wheel
// must fire the release the armed number of ticks after the most recent
// arming, and the release may only follow the fire (it waits for the CPU and
// the connection). A timer armed between host ticks legitimately fires
// within (N-1, N] tick periods; slack widens both bounds. A release no wheel
// fired (Fired zero) is its own fire.
func (k *Checker) checkTimeWaitRelease(e trace.Event, ct *connTrack) {
	if !ct.twArmed {
		if ct.sawTWEntry {
			k.report(e.Conn, e.At, RuleTimeWait,
				"TIME_WAIT released by timer but no 2*MSL arming was observed", nil)
		}
		return
	}
	fired := cmp.Or(e.Fired, e.At)
	elapsed := fired - ct.twArmedAt
	lo := time.Duration(ct.twTicks-1)*tick - slack
	hi := time.Duration(ct.twTicks)*tick + slack
	switch {
	case e.At < fired:
		k.report(e.Conn, e.At, RuleTimeWait,
			fmt.Sprintf("TIME_WAIT released %v before the wheel fired it", fired-e.At), nil)
	case elapsed < lo || elapsed > hi:
		k.report(e.Conn, e.At, RuleTimeWait,
			fmt.Sprintf("2*MSL fired %v after its last arm; armed for %d ticks (want (%v, %v])",
				elapsed, ct.twTicks, lo, hi), nil)
	}
	ct.twArmed = false
}

func (k *Checker) onTimeWaitArm(e trace.Event) {
	ct := k.conn(e.Conn)
	if ct.seen && ct.state != tcp.TimeWait {
		k.report(e.Conn, e.At, RuleTimeWaitArm,
			fmt.Sprintf("2*MSL timer armed in %s", ct.state), nil)
	}
	if !ct.seen {
		ct.seen = true
		ct.state = tcp.TimeWait
	}
	ct.twArmed = true
	ct.twArmedAt = e.At
	ct.twTicks = e.A
}

func (k *Checker) onRexmit(e trace.Event) {
	ct := k.conn(e.Conn)
	ft := k.flows[ct.flow]
	fast := e.Text == "fast"
	switch {
	case e.Text == "probe":
		k.onProbe(e, ct, ft)
		return
	case ft == nil:
	case fast && e.C > 0:
		// Fast recovery begins (C counts the duplicates; a partial ACK's
		// retransmission carries 0), unless an ACK of all the sender has
		// sent is already on its way back to end it. Below the last
		// recover, duplicates may echo the resends of a time-out.
		rt := k.flows[reverse(ct.flow)]
		if ft.guarded && !rt.acks(ft.recover) {
			k.report(e.Conn, e.At, RuleFastEntry,
				fmt.Sprintf("fast recovery begun with no ACK of %d, sent up to at the last recovery or time-out", ft.recover), nil)
		}
		ft.recovering, ft.guarded, ft.recover = !rt.acks(ft.sndEnd), true, ft.sndEnd
	case !fast:
		ft.recovering, ft.guarded, ft.recover = false, true, ft.sndEnd
	}
	if ct.seen {
		if fast && !inSet(fastRexmitStates, ct.state) {
			k.report(e.Conn, e.At, RuleRexmitState,
				fmt.Sprintf("fast retransmit in %s", ct.state), nil)
		} else if !fast && !inSet(rexmitStates, ct.state) {
			k.report(e.Conn, e.At, RuleRexmitState,
				fmt.Sprintf("retransmission timeout in %s", ct.state), nil)
		}
	}
	shift, rto := e.A, e.B
	minShift := int64(1) // a timeout always backs off before re-sending
	if fast {
		minShift = 0
	}
	if shift < minShift || shift > 12 || rto < 1 || rto > 128 {
		k.report(e.Conn, e.At, RuleRexmitRange,
			fmt.Sprintf("shift %d, RTO %d ticks out of range", shift, rto), nil)
	} else if !fast && ct.birth && !ct.baseUnknown {
		// A time-out backs off from the estimator's RTO, or from 3 s
		// before the first sample.
		base := 6
		if ct.sampled {
			base = max((ct.srtt>>3)+ct.rttvar, 2)
		}
		if want := min(base*backoff[shift], 128); int(rto) != want {
			k.report(e.Conn, e.At, RuleRTOMismatch,
				fmt.Sprintf("time-out %d armed %d ticks; the estimator backs off to %d", shift, rto, want), nil)
		}
	}
	ct.sawRexmit = true
	ct.lastRexmitAt = e.At
}

// onProbe checks a tail loss probe: it comes in a state that can carry
// data and before any back-off, once per tail until a new ACK, never in
// fast recovery, and never within a fast tick of the last new-data send or
// RTT sample, both of which re-arm its time-out of at least two fast
// ticks. A probe is no retransmission for Karn's rule here: one that sends
// new data times it legitimately, and one that resends stops the
// measurement in the engine.
func (k *Checker) onProbe(e trace.Event, ct *connTrack, ft *flowTrack) {
	if ct.seen && !inSet(probeStates, ct.state) {
		k.report(e.Conn, e.At, RuleRexmitState,
			fmt.Sprintf("tail loss probe in %s", ct.state), nil)
	}
	if e.A != 0 || e.B < 1 || e.B > 128 {
		k.report(e.Conn, e.At, RuleRexmitRange,
			fmt.Sprintf("tail loss probe at shift %d, RTO %d ticks; a probe never follows a back-off", e.A, e.B), nil)
	}
	if ft == nil {
		return
	}
	if ft.recovering {
		k.report(e.Conn, e.At, RuleProbeRecovery,
			fmt.Sprintf("tail loss probe in fast recovery (until %d is acknowledged)", ft.recover), nil)
	}
	if ft.probed {
		k.report(e.Conn, e.At, RuleProbeRepeat,
			fmt.Sprintf("second tail loss probe with no ACK above %d since the first", ft.probeUna), nil)
	}
	if since := e.At - max(ft.newDataAt, ct.sampleAt); since < fastTick {
		k.report(e.Conn, e.At, RuleProbeEarly,
			fmt.Sprintf("tail loss probe %v after the last new-data send or RTT sample", since), nil)
	}
	// C is snd_una. An ACK above it already sent back may reach the sender
	// and let it probe again with no further ACK to show for it.
	una := tcp.Seq(uint32(e.C))
	ft.probed, ft.probeUna = !k.flows[reverse(ct.flow)].acks(una.Add(1)), una
}

// acks reports whether an ACK of s has been sent on flow ft (nil: none).
// Sent is not received: the rules that use it err toward silence.
func (ft *flowTrack) acks(s tcp.Seq) bool {
	return ft != nil && ft.hasAck && s.Leq(ft.maxAck)
}

// reverse names the flow opposite f ("src>dst" becomes "dst>src").
func reverse(f string) string {
	i := strings.IndexByte(f, '>')
	if i < 0 {
		return ""
	}
	return f[i+1:] + ">" + f[:i]
}

func (k *Checker) onRTO(e trace.Event) {
	ct := k.conn(e.Conn)
	ct.sampleAt = e.At
	sample, rto := int(e.A), int(e.B)
	if ct.seen && !inSet(rtoStates, ct.state) {
		k.report(e.Conn, e.At, RuleRTOState,
			fmt.Sprintf("RTT sample taken in %s", ct.state), nil)
	}

	// Karn's rule: a sample of N ticks means the timed octet was sent N-1
	// host ticks before the covering ACK — and timing only (re)starts on a
	// transmission of new data, which cannot predate the last
	// retransmission (retransmissions zero the measurement).
	if ct.sawRexmit {
		minElapsed := time.Duration(sample-1)*tick - slack
		if e.At-ct.lastRexmitAt < minElapsed {
			k.report(e.Conn, e.At, RuleKarn,
				fmt.Sprintf("RTT sample of %d ticks taken %v after a retransmission (sample spans it)",
					sample, e.At-ct.lastRexmitAt), nil)
		}
	}

	// Mirror the Jacobson estimator (only from birth, when our state
	// matches the engine's) and check the published RTO.
	if ct.birth {
		m := sample - 1
		if ct.srtt != 0 {
			delta := m - (ct.srtt >> 3)
			ct.srtt += delta
			if ct.srtt <= 0 {
				ct.srtt = 1
			}
			if delta < 0 {
				delta = -delta
			}
			delta -= ct.rttvar >> 2
			ct.rttvar += delta
			if ct.rttvar <= 0 {
				ct.rttvar = 1
			}
		} else {
			ct.srtt = m << 3
			ct.rttvar = m << 1
		}
		ct.sampled, ct.baseUnknown = true, false
		want := (ct.srtt >> 3) + ct.rttvar
		if want < 2 {
			want = 2
		}
		if want > 128 {
			want = 128
		}
		if rto != want {
			k.report(e.Conn, e.At, RuleRTOMismatch,
				fmt.Sprintf("RTO %d ticks after sample %d; Jacobson estimator says %d",
					rto, sample, want), nil)
		}
	}
}

func (k *Checker) onPersist(e trace.Event) {
	ct := k.conn(e.Conn)
	if ct.seen && !inSet(persistStates, ct.state) {
		k.report(e.Conn, e.At, RulePersistState,
			fmt.Sprintf("window probe in %s", ct.state), nil)
	}
	shift, ticks := e.A, e.B
	if shift < 1 || shift > 6 || ticks < 1 || ticks > 120 {
		k.report(e.Conn, e.At, RulePersistRange,
			fmt.Sprintf("persist shift %d, interval %d ticks out of range", shift, ticks), nil)
	}
}

// Segment feeds one transmitted TCP segment directly (already decoded), for
// harnesses that run the engine without a wire underneath. dataLen is the
// payload length in bytes.
func (k *Checker) Segment(at time.Duration, src, dst tcp.Endpoint, h tcp.Header, dataLen int) {
	k.idx++
	k.checkSegment(at, src, dst, h.Seq, h.Ack, h.Flags, dataLen)
}

// checkSegment applies the wire-level flow invariants to one segment.
func (k *Checker) checkSegment(at time.Duration, src, dst tcp.Endpoint, seq, ack tcp.Seq, flags uint8, dataLen int) {
	if flags&tcp.FlagRST != 0 {
		// Resets answering stray segments echo arbitrary sequence numbers
		// (RFC 793 p.36); they carry no data and terminate the flow, so no
		// monotonicity claims apply.
		return
	}
	label := src.String() + ">" + dst.String()
	ft := k.flows[label]
	if ft == nil || flags&tcp.FlagSYN != 0 {
		// First sighting, or a SYN starting a new incarnation of the
		// four-tuple: reset the flow bookkeeping.
		ft = &flowTrack{}
		k.flows[label] = ft
	}

	if flags&tcp.FlagACK != 0 {
		if ft.hasAck && ack.Less(ft.maxAck) {
			k.report(label, at, RuleAckRegress,
				fmt.Sprintf("ACK moved backward: %d after %d", ack, ft.maxAck), nil)
		}
		if !ft.hasAck || ft.maxAck.Less(ack) {
			ft.hasAck = true
			ft.maxAck = ack
			// A new ACK for the sender the other way: one above its
			// snd_una at the probe lets it probe again, and one of recover
			// ends its recovery.
			if rt := k.flows[reverse(label)]; rt != nil {
				if rt.probed && rt.probeUna.Less(ack) {
					rt.probed = false
				}
				if rt.recovering && rt.recover.Leq(ack) {
					rt.recovering = false
				}
			}
		}
	}

	end := seq.Add(dataLen)
	if flags&tcp.FlagSYN != 0 {
		end = end.Add(1)
	}
	if flags&tcp.FlagFIN != 0 {
		end = end.Add(1)
	}
	if !ft.sent || ft.sndEnd.Less(end) {
		if end != seq {
			ft.newDataAt = at
		}
		ft.sent, ft.sndEnd = true, end
	}

	if ft.finSeen {
		if dataLen > 0 && ft.finSeq.Less(seq.Add(dataLen)) {
			k.report(label, at, RuleDataAfterFin,
				fmt.Sprintf("payload [%d,%d) extends beyond FIN at %d",
					seq, seq.Add(dataLen), ft.finSeq), nil)
		}
		if flags&tcp.FlagFIN != 0 && seq.Add(dataLen) != ft.finSeq {
			k.report(label, at, RuleFinMoved,
				fmt.Sprintf("FIN re-sent at %d, first seen at %d",
					seq.Add(dataLen), ft.finSeq), nil)
		}
	} else if flags&tcp.FlagFIN != 0 {
		ft.finSeen = true
		ft.finSeq = seq.Add(dataLen)
	}
}
