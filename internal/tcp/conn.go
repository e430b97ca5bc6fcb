package tcp

import (
	"errors"
	"fmt"
	"time"

	"ulp/internal/pkt"
	"ulp/internal/trace"
)

// State is a TCP connection state (RFC 793).
type State int

// Connection states.
const (
	Closed State = iota
	Listen
	SynSent
	SynRcvd
	Established
	FinWait1
	FinWait2
	CloseWait
	Closing
	LastAck
	TimeWait
)

var stateNames = [...]string{
	"CLOSED", "LISTEN", "SYN_SENT", "SYN_RCVD", "ESTABLISHED",
	"FIN_WAIT_1", "FIN_WAIT_2", "CLOSE_WAIT", "CLOSING", "LAST_ACK", "TIME_WAIT",
}

func (s State) String() string {
	if int(s) < len(stateNames) {
		return stateNames[s]
	}
	return fmt.Sprintf("State(%d)", int(s))
}

// Trigger classifies what caused a state transition, for the conformance
// checker (internal/conform): every legal edge of the RFC 793 state machine
// is legal only for particular trigger classes, and the trace stream carries
// the class so a checker can verify e.g. that nothing but a timer or a reset
// ever takes a connection out of TIME_WAIT.
type Trigger uint8

// Trigger classes.
const (
	// TrigUser is an application or shell call: open, close, abort,
	// registry reclamation.
	TrigUser Trigger = iota
	// TrigSegment is an arriving segment processed by Input.
	TrigSegment
	// TrigReset is a received RST, or a fatal illegal segment (e.g. a SYN
	// inside the window) that resets the connection.
	TrigReset
	// TrigTimer is a slow-timer expiry: retransmission give-up, keepalive
	// failure, or the 2*MSL timer.
	TrigTimer
)

var triggerNames = [...]string{"user", "segment", "reset", "timer"}

func (tr Trigger) String() string {
	if int(tr) < len(triggerNames) {
		return triggerNames[tr]
	}
	return fmt.Sprintf("Trigger(%d)", int(tr))
}

// TestHookSkipTimeWait, when set, makes the engine skip TIME_WAIT and close
// immediately — a deliberately nonconformant variant used to validate that
// the conformance explorer (internal/explore) detects and shrinks real
// protocol bugs. Never set outside tests.
var TestHookSkipTimeWait bool

// Errors delivered through OnClosed.
var (
	ErrReset     = errors.New("tcp: connection reset by peer")
	ErrRefused   = errors.New("tcp: connection refused")
	ErrTimeout   = errors.New("tcp: retransmission timeout")
	ErrKeepalive = errors.New("tcp: keepalive timeout")
)

// Default configuration values (4.3BSD).
const (
	DefaultMSS     = 512
	DefaultBufSize = 8192
	MaxWindow      = 65535

	// Timer constants in slow-timeout ticks (500 ms each).
	minRexmtTicks = 2   // 1 s
	maxRexmtTicks = 128 // 64 s
	maxRexmtShift = 12  // give up after 12 backoffs
	mslTicks      = 60  // MSL = 30 s
	persistMin    = 10  // 5 s
	persistMax    = 120 // 60 s
	// maxPersistShift caps persist backoff growth: persistMin<<4 already
	// exceeds persistMax, so letting the shift run further only risks
	// overflow-style bugs without changing the probe cadence.
	maxPersistShift = 6
	keepIdleDflt    = 120 // probe after 60 s idle (shortened from BSD's 2h for simulation)
	keepMaxProbes   = 8

	// rexmtR1 is the RFC 1122 R1 threshold ("at least 3 retransmissions"
	// before the advisory fires), capped at the connection's R2.
	rexmtR1 = 3

	// probeTicks is the tail loss probe's time-out (PTO) in fast-timeout
	// ticks (200 ms each), one more with a single segment in flight: RFC
	// 8985's two round trips, with room for the peer's 200 ms delayed ACK.
	// A counter of k fires (k-1)*200 to k*200 ms after it is armed.
	probeTicks = 3
)

// Config parameterizes a connection. The zero value is completed with
// 4.3BSD defaults by NewConn. The application-specific variant flags
// (NoDelay, NoDelayedAck) realize the paper's §5 "canned options" idea.
type Config struct {
	// MSS is the maximum segment size to advertise and the ceiling on what
	// we accept from the peer's option.
	MSS int
	// SndBufSize and RcvBufSize are the socket buffer sizes (8192, the
	// era's tuned BSD default).
	SndBufSize, RcvBufSize int
	// Headroom is reserved below the TCP header in output buffers for the
	// IP and link headers.
	Headroom int
	// NoDelay disables the Nagle algorithm.
	NoDelay bool
	// NoDelayedAck acknowledges every in-order segment immediately.
	NoDelayedAck bool
	// KeepAliveTicks is the idle period before probing; 0 disables
	// keepalives.
	KeepAliveTicks int
	// RexmtR2 is the RFC 1122 §4.2.3.5 give-up threshold, counted in
	// consecutive retransmissions of the same data: exceeding it abandons
	// the connection with ErrTimeout. Zero selects 12, which is also the
	// cap, so give-up stays within the BSD backoff table. Reaching R1 =
	// min(3, R2) is advisory (Stats.R1Advisories; a full stack would ask IP
	// to re-route).
	RexmtR2 int
	// TimeWaitTicks overrides the 2*MSL wait (0 = standard 120 ticks).
	TimeWaitTicks int
}

func (c *Config) fill() {
	if c.MSS == 0 {
		c.MSS = DefaultMSS
	}
	if c.SndBufSize == 0 {
		c.SndBufSize = DefaultBufSize
	}
	if c.RcvBufSize == 0 {
		c.RcvBufSize = DefaultBufSize
	}
	if c.Headroom == 0 {
		c.Headroom = 40
	}
	if c.TimeWaitTicks == 0 {
		c.TimeWaitTicks = 2 * mslTicks
	}
	if c.RexmtR2 <= 0 || c.RexmtR2 > maxRexmtShift {
		c.RexmtR2 = maxRexmtShift
	}
}

// Callbacks deliver engine events to the organization shell. All callbacks
// are optional. They are invoked synchronously from within engine calls;
// shells must not re-enter the engine from them (they queue work instead).
type Callbacks struct {
	// Send transmits a fully encoded TCP segment (checksummed, with
	// Headroom bytes reserved below it). h describes the segment;
	// payloadLen is the number of stream bytes it carries.
	Send func(seg *pkt.Buf, h Header, payloadLen int)
	// OnEstablished fires on transition into Established.
	OnEstablished func()
	// OnReadable fires when new in-order data or EOF becomes available.
	OnReadable func()
	// OnWritable fires when send-buffer space is freed by an ACK.
	OnWritable func()
	// OnClosed fires when the connection reaches Closed; err is nil for an
	// orderly release.
	OnClosed func(err error)
}

// Stats counts per-connection protocol events.
type Stats struct {
	SegsSent, SegsRcvd    int
	BytesSent, BytesRcvd  int64
	Rexmits, FastRexmits  int
	DupAcksRcvd           int
	OutOfOrder            int
	DelayedAcks, AcksSent int
	WindowProbes          int
	KeepProbes            int
	TailProbes            int // tail loss probes sent (RFC 8985 §7)
	R1Advisories          int // retransmit runs that crossed the R1 threshold
	RexmtGiveUps          int // connections abandoned after exceeding R2
	BadChecksumOrTrim     int
	TimerOps              int // set/clear operations; counted only (stacks.SegCost charges a fixed 2 TimerOp)
	RTTSamples            int
	SndBufFullEvents      int
}

// Conn is one TCP connection ("protocol control block" plus socket
// buffers). It is pure: driven entirely by Input, user calls, and ticks.
type Conn struct {
	cfg   Config
	cb    Callbacks
	local Endpoint
	peer  Endpoint

	state State
	stats Stats

	// Send sequence space.
	iss                    Seq
	sndUna, sndNxt, sndMax Seq
	sndWnd                 int
	sndWl1, sndWl2         Seq
	maxSndWnd              int
	cwnd, ssthresh         int
	dupAcks                int

	// NewReno fast recovery (RFC 6582): recover is snd_max when recovery
	// last began (or a time-out fired); an ACK at or above it covers all
	// that was sent then, ends recovery and lets three duplicates start the
	// next. Pulled up to snd_una on every new ACK outside recovery, it stays
	// within 2^31. dupHeld is an ACK at snd_una that moved the window, held
	// until a true duplicate counts it (processAck).
	recover    Seq
	inRecovery bool
	dupHeld    bool
	// probed: this tail has had its loss probe; a new ACK clears it.
	probed bool

	// Receive sequence space.
	irs            Seq
	rcvNxt, rcvAdv Seq

	// Buffers, by value: a pcb that is reused (Init) keeps their arrays.
	snd sendBuf
	rcv recvBuf

	// Effective MSS for sending (min of ours and peer's option).
	sndMSS int

	// FIN bookkeeping.
	sndClosed  bool // application called Close: no more writes
	finSeq     Seq  // sequence of our FIN, valid once allocated
	finQueued  bool
	rcvFinSeq  Seq // sequence of peer's FIN, valid if rcvFinSeen
	rcvFinSeen bool
	rcvEOF     bool // FIN consumed into the stream

	// Timers, in slow-timeout ticks; 0 = off.
	tRexmt, tPersist, tKeep, t2MSL int
	rxtShift                       int
	persistShift                   int
	keepProbes                     int

	// tProbe is the tail loss probe, in fast-timeout ticks; 0 = off. It is
	// re-armed on every new ACK and send, so it stays out of
	// Stats.TimerOps, which counts the BSD timers.
	tProbe int

	// RTT estimation (fixed point: srtt<<3, rttvar<<2), in ticks.
	tRtt   int // running measurement; 0 = not timing
	tRtseq Seq
	srtt   int
	rttvar int
	rxtCur int

	// Output flags.
	ackNow bool
	delAck bool
	idleT  int // ticks since last receive (keepalive)

	closedErr  error
	closedOnce bool

	// Established-notification deferral: OnEstablished observers snapshot
	// connection state (the registry handoff), so the callback must not
	// fire mid-segment while sndUna still lags the handshake ACK.
	inInput      bool
	estabPending bool

	// Observability. bus is nil-safe; busLabel names the connection in
	// events and is built once at SetTrace time, keeping emit sites
	// allocation-free.
	bus      *trace.Bus
	busLabel string
	// Fired is the instant the shell's timer wheel last advanced the slow
	// timers, traced with a transition they cause; observer only.
	Fired time.Duration
}

// SetTrace attaches a trace bus; label names this connection in events
// (e.g. "h1:1025>h0:80"). Pass nil to detach.
func (c *Conn) SetTrace(bus *trace.Bus, label string) {
	c.bus = bus
	c.busLabel = label
}

// NewConn creates a connection in the Closed state.
func NewConn(cfg Config, local, peer Endpoint, cb Callbacks) *Conn {
	c := new(Conn)
	c.Init(cfg, local, peer, cb)
	return c
}

// Init makes c a new connection in the Closed state, in place: a shell that
// recycles its pcbs (as BSD's zone allocator does) calls it on one whose last
// user is gone. Nothing of the old connection survives but the socket
// buffers' backing arrays.
func (c *Conn) Init(cfg Config, local, peer Endpoint, cb Callbacks) {
	cfg.fill()
	snd, rcv := c.snd, c.rcv
	*c = Conn{
		cfg:    cfg,
		cb:     cb,
		local:  local,
		peer:   peer,
		state:  Closed,
		snd:    snd,
		rcv:    rcv,
		sndMSS: cfg.MSS,
		rxtCur: 6, // 3 s initial RTO, per BSD TCPTV_SRTTDFLT handling
	}
	c.snd.init(cfg.SndBufSize)
	c.rcv.init(cfg.RcvBufSize)
}

// Scrub zeroes a pcb its shell is putting aside for reuse: Closed, no
// callbacks, no timers, no bytes — a stale caller's segment or tick finds
// nothing to act on. The socket buffers' arrays stay for the next Init.
func (c *Conn) Scrub() {
	c.snd.init(0)
	c.rcv.init(0)
	*c = Conn{snd: c.snd, rcv: c.rcv}
}

// State returns the current connection state.
func (c *Conn) State() State { return c.state }

// SetCallbacks replaces the connection's callbacks; organization shells use
// it to finish wiring a connection after construction (e.g. to hook accept
// queues). It must not be called with engine activity in flight.
func (c *Conn) SetCallbacks(cb Callbacks) { c.cb = cb }

// Callbacks returns the currently installed callbacks, letting shells wrap
// them.
func (c *Conn) Callbacks() Callbacks { return c.cb }

// Stats returns a copy of the connection's counters.
func (c *Conn) Stats() Stats { return c.stats }

// Local and Peer return the connection endpoints.
func (c *Conn) Local() Endpoint { return c.local }
func (c *Conn) Peer() Endpoint  { return c.peer }

// Tuple returns the connection's four-tuple.
func (c *Conn) Tuple() FourTuple { return FourTuple{c.local, c.peer} }

// setState transitions and fires notifications. why classifies the cause of
// the transition (user call, segment, reset, timer) for the trace stream.
func (c *Conn) setState(s State, why Trigger) {
	if c.state == s {
		return
	}
	prev := c.state
	c.state = s
	emitState(c.bus, c.busLabel, prev, s, why, c.Fired)
	switch s {
	case Established:
		if c.cfg.KeepAliveTicks > 0 {
			c.setTimer(&c.tKeep, c.cfg.KeepAliveTicks)
		}
		if c.cb.OnEstablished != nil && prev != Established {
			if c.inInput {
				// Segment processing is mid-flight: the handshake ACK
				// has moved us to Established but sndUna/cwnd/RTT
				// bookkeeping runs after the transition. Fire once the
				// segment is fully absorbed so observers see a
				// quiescent TCB (a snapshot taken here would transfer
				// a phantom unacked SYN).
				c.estabPending = true
			} else {
				c.cb.OnEstablished()
			}
		}
	case Closed:
		c.cancelTimers()
		if !c.closedOnce {
			c.closedOnce = true
			if c.cb.OnClosed != nil {
				c.cb.OnClosed(c.closedErr)
			}
		}
	}
}

// emitState traces a connection's transition from prev to s, with the
// instant the wheel last advanced its slow timers.
func emitState(bus *trace.Bus, label string, prev, s State, why Trigger, fired time.Duration) {
	if bus.Enabled() {
		bus.Emit(trace.Event{
			Kind: trace.TCPState, Conn: label,
			A: int64(prev), B: int64(s), C: int64(why),
			Text:  prev.String() + "->" + s.String(),
			Fired: fired,
		})
	}
}

// OpenListen places the connection in LISTEN (passive open).
func (c *Conn) OpenListen() {
	if c.state != Closed {
		panic("tcp: OpenListen on non-closed connection")
	}
	c.renew()
	c.setState(Listen, TrigUser)
}

// renew gives an open on a pcb that has closed Init's state, keeping its
// configuration, endpoints, callbacks, trace label and any ISS set for it:
// nothing of the old connection (its close, its FIN, its counters) carries
// into the new one.
func (c *Conn) renew() {
	if !c.closedOnce {
		return
	}
	bus, label, iss := c.bus, c.busLabel, c.iss
	c.Init(c.cfg, c.local, c.peer, c.cb)
	c.bus, c.busLabel, c.iss = bus, label, iss
}

// OpenActive starts a connection attempt (active open) with the given
// initial send sequence number; the shell supplies ISS to keep runs
// deterministic.
func (c *Conn) OpenActive(iss Seq) {
	if c.state != Closed {
		panic("tcp: OpenActive on non-closed connection")
	}
	c.renew()
	c.iss = iss
	c.sndUna, c.sndNxt, c.sndMax, c.recover = iss, iss, iss, iss
	c.snd.start = iss.Add(1) // first data byte follows the SYN
	c.cwnd = c.sndMSS
	c.ssthresh = MaxWindow
	c.setState(SynSent, TrigUser)
	c.startRexmt()
	c.Output()
}

// Write appends application data to the send buffer and attempts output.
// It returns the number of bytes accepted (0 when the buffer is full).
func (c *Conn) Write(p []byte) int {
	switch c.state {
	case Established, CloseWait:
	case SynSent, SynRcvd:
		// Data may be buffered before the handshake completes.
	default:
		return 0
	}
	if c.sndClosed {
		return 0
	}
	n := c.snd.append(p)
	if n < len(p) {
		c.stats.SndBufFullEvents++
	}
	if n > 0 {
		c.Output()
	}
	return n
}

// Readable returns the number of in-order bytes ready for the application.
func (c *Conn) Readable() int { return c.rcv.readable() }

// EOF reports whether the peer's FIN has been consumed (end of stream).
func (c *Conn) EOF() bool { return c.rcvEOF && c.rcv.readable() == 0 }

// Read moves up to len(p) bytes into p. Freeing receive-buffer space may
// trigger a window-update segment.
func (c *Conn) Read(p []byte) int {
	n := c.rcv.read(p)
	if n > 0 {
		// Receiver-side silly window avoidance lives in Output: it decides
		// whether the window opened enough to advertise.
		c.Output()
	}
	return n
}

// Close performs an orderly release: no further writes; a FIN is sent once
// buffered data drains.
func (c *Conn) Close() {
	switch c.state {
	case Closed:
		return
	case Listen, SynSent:
		c.closedErr = nil
		c.setState(Closed, TrigUser)
		return
	}
	if c.sndClosed {
		return
	}
	c.sndClosed = true
	switch c.state {
	case SynRcvd, Established:
		c.setState(FinWait1, TrigUser)
	case CloseWait:
		c.setState(LastAck, TrigUser)
	}
	c.Output()
}

// Abort sends RST and closes immediately (abnormal termination; the
// registry uses this for applications that exit without closing).
func (c *Conn) Abort() {
	switch c.state {
	case SynRcvd, Established, FinWait1, FinWait2, CloseWait, Closing, LastAck:
		c.sendRST()
	}
	c.closedErr = ErrReset
	c.setState(Closed, TrigUser)
}

// cancelTimers clears all timers (entering Closed).
func (c *Conn) cancelTimers() {
	for _, t := range []*int{&c.tRexmt, &c.tPersist, &c.tKeep, &c.t2MSL} {
		if *t != 0 {
			*t = 0
			c.stats.TimerOps++
		}
	}
	c.tProbe = 0
}
