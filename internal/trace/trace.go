// Package trace is the structured event bus behind the observability layer.
// It generalizes what cmd/ultrace used to do with an ad-hoc frame callback:
// every layer of the stack — wire segment, network devices, the in-kernel
// network I/O module, TCP engines and the registry server — publishes typed
// events to a single bus, and consumers (pcap writers, test assertions,
// decoders) subscribe to the stream.
//
// Two invariants make the bus safe to leave wired in everywhere:
//
//  1. Disabled hooks are free. A nil *Bus, or a bus with no subscribers,
//     makes Emit a no-op that performs zero allocations. Producers guard
//     any string building with Enabled().
//  2. Tracing never perturbs the simulation. Emit stamps events with the
//     current virtual time via a read-only clock callback; it never
//     schedules simulator events, consumes event sequence numbers, or
//     draws from any RNG. Virtual-time behaviour is bit-identical with
//     tracing on or off.
package trace

import "time"

// Kind identifies the event type. The numeric A/B fields and the Text
// field are kind-specific; see the comments on each constant.
type Kind uint8

const (
	KindInvalid Kind = iota

	// Wire-level frame events. Frame holds the raw bytes (valid only for
	// the duration of the callback), A is the frame length in bytes.
	FrameTx      // frame queued for transmission on the segment
	FrameRx      // frame delivered to a station; Conn = destination address
	FrameDrop    // frame dropped; Text = reason (loss, addr-filter, ring-overflow, ...)
	FrameDup     // fault injection duplicated the frame
	FrameCorrupt // fault injection flipped a bit; A = corrupted byte offset
	FrameReorder // fault injection delayed the frame so later frames overtake it; B = extra delay ns

	// TCP engine events. Conn labels the connection.
	TCPState    // state transition; Text = "OLD->NEW", A/B = old/new state ordinals, C = trigger class
	TCPRexmit   // retransmission; Text = "timeout", "fast" or "probe", A = backoff shift, B = RTO ticks; C = duplicate ACKs counted since the last new ACK or time-out (a fast retransmission that begins recovery has 3, one on a partial ACK 0). A "probe" is a tail loss probe — one segment, new data or the highest sent again, a probe time-out after the last new ACK or send, so that the peer sends the duplicate ACK a short flight cannot draw — and its C is snd_una
	TCPRTO      // RTO updated from an RTT sample; A = sample ticks, B = new RTO ticks
	TCPPersist  // zero-window probe sent; A = persist shift, B = interval ticks
	TCPTimeWait // 2*MSL timer armed or re-armed; A = ticks until release

	// Network I/O module demultiplex and protection events.
	DemuxHit     // frame matched a channel binding; A = capability id
	DemuxMiss    // frame fell through to the kernel default path
	VerifyReject // send rejected; A = capability id (0 = unknown), Text = reason
	ChanDeliver  // buffer queued on a channel; A = capability id, B = queue depth after
	ChanDrop     // channel queue overflow; A = capability id
	ChanNotify   // notification semaphore posted; A = capability id, B = batch size
	CapRevoked   // capability destroyed/revoked; A = capability id

	// Registry server events. Text = operation, Conn = requesting domain.
	RegistryRPC

	// Crash-recovery events.
	ListenDrop      // SYN dropped by a full listen backlog; A = listener port, B = pending handshakes
	ChanQuarantine  // delivery suppressed: channel issuer dead; A = capability id
	RegistryRestart // reborn registry rebuilt state from the module; A = epoch, B = endpoints re-adopted

	// By-reference receive events.
	ChanSweep // in-flight buffer references reclaimed; A = capability id, B = count, Text = reason

	numKinds // not a kind: one past the last, so every kind has a slot in kindNames
)

var kindNames = [numKinds]string{
	KindInvalid:  "invalid",
	FrameTx:      "frame-tx",
	FrameRx:      "frame-rx",
	FrameDrop:    "frame-drop",
	FrameDup:     "frame-dup",
	FrameCorrupt: "frame-corrupt",
	FrameReorder: "frame-reorder",
	TCPState:     "tcp-state",
	TCPRexmit:    "tcp-rexmit",
	TCPRTO:       "tcp-rto",
	TCPPersist:   "tcp-persist",
	TCPTimeWait:  "tcp-timewait",
	DemuxHit:     "demux-hit",
	DemuxMiss:    "demux-miss",
	VerifyReject: "verify-reject",
	ChanDeliver:  "chan-deliver",
	ChanDrop:     "chan-drop",
	ChanNotify:   "chan-notify",
	CapRevoked:   "cap-revoked",
	RegistryRPC:  "registry-rpc",

	ListenDrop:      "listen-drop",
	ChanQuarantine:  "chan-quarantine",
	RegistryRestart: "registry-restart",

	ChanSweep: "chan-sweep",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "unknown"
}

// Event is one observation. It is passed by value to subscribers; the
// Frame slice, when set, aliases producer-owned storage and must not be
// retained past the callback (copy it if needed).
type Event struct {
	At      time.Duration // virtual time the event was emitted
	Kind    Kind
	Node    string // producing host, device, or segment ("" when not applicable)
	Conn    string // connection / channel / domain label ("" when not applicable)
	A, B, C int64  // kind-specific numeric payload
	Text    string // kind-specific detail (state names, drop reason, RPC op)
	// Fired is, on a TCPState event, when the timer wheel last fired the slow
	// timers: a timer-caused transition's own fire (zero with no wheel).
	Fired time.Duration

	// Frame holds raw frame bytes for Frame* events. Read-only,
	// callback-lifetime only.
	Frame []byte
}

// Bus fans events out to subscribers. All methods are nil-receiver safe,
// so producers can hold an unconditioned *Bus field.
type Bus struct {
	now  func() time.Duration
	subs []func(Event)
}

// NewBus creates a bus that stamps events using the given virtual clock.
// The clock must be a pure read (e.g. the simulator's Now); the bus never
// advances it.
func NewBus(now func() time.Duration) *Bus {
	return &Bus{now: now}
}

// Subscribe registers a callback invoked synchronously for every event.
// Subscribers run in registration order on the emitting goroutine; since
// the simulator serializes all procs, no additional locking is needed.
func (b *Bus) Subscribe(fn func(Event)) {
	b.subs = append(b.subs, fn)
}

// Enabled reports whether any subscriber is attached. Producers use it to
// skip event construction (and any string building) entirely when nobody
// is listening.
func (b *Bus) Enabled() bool {
	return b != nil && len(b.subs) > 0
}

// Emit stamps the event with the current virtual time and delivers it to
// every subscriber. No-op (and allocation-free) on a nil or subscriber-less
// bus.
func (b *Bus) Emit(e Event) {
	if b == nil || len(b.subs) == 0 {
		return
	}
	if b.now != nil {
		e.At = b.now()
	}
	for _, fn := range b.subs {
		fn(e)
	}
}
