// Package netio implements the network I/O module, the in-kernel component
// co-located with the device driver that gives user-level protocol libraries
// efficient *and protected* network access (paper §3.3):
//
//   - All access is through unforgeable capabilities created jointly by the
//     registry server and the module at connection-setup time.
//   - On transmission, the module verifies the packet's headers against the
//     *header template* associated with the presented send capability, which
//     prevents impersonation.
//   - On reception, packets are demultiplexed to authorized endpoints only —
//     in software on the LANCE (a synthesized native predicate; the filter
//     package reproduces the CSPF/BPF interpreters it replaces) and in
//     hardware on the AN1 via the BQI ring table.
//   - Received packets land in a memory region shared with the library,
//     pinned for the connection's lifetime, and the library is notified by a
//     lightweight semaphore; notifications are batched when packets arrive
//     faster than the library drains them.
//
// Packets matching no binding fall through to a default handler: the
// protected kernel path used by the registry server (connection setup, ARP)
// and by the monolithic organizations.
package netio

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"ulp/internal/filter"
	"ulp/internal/freelist"
	"ulp/internal/ipv4"
	"ulp/internal/kern"
	"ulp/internal/lease"
	"ulp/internal/link"
	"ulp/internal/netdev"
	"ulp/internal/pkt"
	"ulp/internal/trace"
)

// Errors returned by the send path.
var (
	ErrBadCapability    = errors.New("netio: invalid or revoked capability")
	ErrTemplateMismatch = errors.New("netio: packet header violates send template")
	// ErrLeaseExpired reports that the capability's lease ran out — the
	// control plane that should be renewing it is dead. The endpoint is
	// quarantined, not revoked: a restarted registry can re-adopt it.
	ErrLeaseExpired = errors.New("netio: capability lease expired (control plane down)")
	// ErrBQIExhausted reports that the AN1's buffer queue index space is
	// used up (the hardware table is finite; indices are recycled on
	// channel destruction, so only a genuinely huge live population hits
	// this).
	ErrBQIExhausted = errors.New("netio: buffer queue indices exhausted")
)

// Template constrains the headers of packets sent with a capability. Zero
// fields of RemoteIP/RemotePort are unconstrained (listening endpoints).
type Template struct {
	LinkSrc    link.Addr
	LinkDst    link.Addr // zero = unconstrained (e.g. before ARP completes)
	Type       link.EtherType
	Proto      uint8 // 0 = link-level only (raw channels)
	LocalIP    ipv4.Addr
	LocalPort  uint16
	RemoteIP   ipv4.Addr
	RemotePort uint16
}

// zeroAddr is the unconstrained link address.
var zeroAddr link.Addr

// Verify checks an outbound frame against the template. hdrLen is the link
// header length of the device.
func (t *Template) Verify(frame []byte, hdrLen int) bool {
	if len(frame) < hdrLen {
		return false
	}
	var dst, src link.Addr
	copy(dst[:], frame[0:6])
	copy(src[:], frame[6:12])
	et := link.EtherType(uint16(frame[hdrLen-2])<<8 | uint16(frame[hdrLen-1]))
	if src != t.LinkSrc {
		return false
	}
	if t.LinkDst != zeroAddr && dst != t.LinkDst {
		return false
	}
	if et != t.Type {
		return false
	}
	if t.Proto == 0 {
		return true
	}
	ip := frame[hdrLen:]
	if len(ip) < ipv4.HeaderLen {
		return false
	}
	if ip[9] != t.Proto {
		return false
	}
	if [4]byte(ip[12:16]) != t.LocalIP {
		return false
	}
	if t.RemoteIP != ([4]byte{}) && [4]byte(ip[16:20]) != t.RemoteIP {
		return false
	}
	ihl := int(ip[0]&0x0f) * 4
	if ihl < ipv4.HeaderLen || len(ip) < ihl+4 {
		return false
	}
	srcPort := uint16(ip[ihl])<<8 | uint16(ip[ihl+1])
	dstPort := uint16(ip[ihl+2])<<8 | uint16(ip[ihl+3])
	if srcPort != t.LocalPort {
		return false
	}
	if t.RemotePort != 0 && dstPort != t.RemotePort {
		return false
	}
	return true
}

// Capability is an unforgeable send/receive right for one channel. It is the
// one part of an endpoint the module never reuses: whoever still holds a
// revoked capability holds an id the module will never issue again, which is
// what makes the m.caps[id] == cap check a fence against stale holders.
type Capability struct {
	id       uint64
	template Template
	ch       *Channel
	// owner is the application domain the capability was issued to; the
	// module uses it to reclaim everything a crashed application held.
	owner *kern.Domain
	// issuer is the control-plane domain that created (or re-adopted) the
	// capability. Issuer-scoped lease renewal lets several registry shards
	// share one module: each shard's heartbeat extends only the leases it
	// is responsible for, so a dead shard's endpoints expire on schedule
	// while its peers' stay fresh.
	issuer *kern.Domain
}

// Template returns the current header template. A restarted registry
// rebuilds its connection map from these — the module is the authoritative
// ground truth for what endpoints exist.
func (c *Capability) Template() Template { return c.template }

// Chan returns the channel the capability grants access to: nil once the
// capability is revoked, since the channel's record may by then be another
// endpoint's.
func (c *Capability) Chan() *Channel { return c.ch }

// Channel is the shared-memory conduit between the module and one library
// endpoint: a receive ring in pinned shared memory plus the notification
// semaphore.
//
// The modelled region wires slotBytes per ring slot (RegionBytes). The
// simulator backs only the part of it any code reads or writes — the
// descriptor ring at its start — since frames stay in pool buffers.
type Channel struct {
	Region *kern.Region
	sem    *kern.Sem
	// rxq is the receive ring. take hands it to the consumer as the batch,
	// which stays the consumer's until the next drain, and fills spare — the
	// batch before — meanwhile: two arrays in turn, neither ever given up.
	rxq, spare []*pkt.Buf
	cap        int
	id         uint64 // owning capability's id (trace correlation)
	bqi        uint16 // nonzero on AN1
	noBatch    bool
	mod        *Module
	bd         *binding // software demux entry (nil on AN1 / raw kernel)
	// rec is the record the channel is part of; disowned marks that the
	// consumer has let go of it (Disown).
	rec      *chanRec
	disowned bool

	// Zero-copy receive mode (Module.ZeroCopyRx at creation time): deliver
	// hands buffer references to the library instead of modeling a copy
	// into the shared region; only a fixed-size descriptor is written.
	zeroCopy bool
	// budget is the doorbell batch budget: at most one semaphore post per
	// budget descriptors while the library lags (zero-copy mode only).
	budget int
	// sinceDoorbell counts descriptors posted since the last doorbell.
	sinceDoorbell int
	// posted numbers descriptors written into the shared region's ring.
	posted uint64
	// inflight holds the channel's liens: buffers handed out by the last
	// Wait/TryRecv, retained until the next drain (or a revocation sweep)
	// so the kernel can always reclaim what a dead or distrusting
	// application still references.
	inflight []*pkt.Buf

	// overflowed marks that the ring is currently in an overflow episode,
	// so repeated drops within one burst are one episode.
	overflowed bool

	// Stats. Dropped counts packets lost to a full ring; Overflows counts
	// overflow episodes (bursts); HighWater is the deepest the ring got.
	Delivered, Dropped, Notifications int
	Overflows, HighWater              int
	// Quarantined counts packets suppressed because the channel's lease
	// expired (control plane down).
	Quarantined int
	// DeliveredByRef counts packets handed over by reference (zero-copy);
	// CopiedBytes/ReferencedBytes split the payload volume by path.
	DeliveredByRef               int
	CopiedBytes, ReferencedBytes int64
}

// Wait blocks the library thread until the channel is notified, then
// drains and returns the pending batch ("our implementation attempts,
// where possible, to batch multiple network packets per semaphore
// notification"). A nil batch means a spurious wakeup (see Poke); callers
// re-check their termination condition and wait again.
func (ch *Channel) Wait(t *kern.Thread) []*pkt.Buf {
	// The previous batch's liens settle before blocking, not after: calling
	// Wait again is the consumer's declaration that it is done with the old
	// batch, so an idle consumer parked on an empty ring holds no buffer
	// references at all.
	ch.settleInflight()
	if len(ch.rxq) == 0 {
		ch.sem.P(t)
	}
	return ch.take()
}

// TryRecv drains pending packets without blocking.
func (ch *Channel) TryRecv() []*pkt.Buf {
	return ch.take()
}

// take drains the ring: it settles the liens on the previous batch (the
// library finished with it — a batch is valid only until the next drain),
// returns the hardware ring slots the drained frames held, and in zero-copy
// mode liens the new batch so revocation can always reclaim it.
//
// Slot accounting is per frame via Meta.BQI, not per channel: a batch may
// mix hardware-ring frames with kernel-injected ones (which never occupied
// a slot), and a quarantine or overflow drop returns its slot at the drop
// point — so a batch drained across quarantine onset neither leaks nor
// over-releases ring slots.
func (ch *Channel) take() []*pkt.Buf {
	ch.settleInflight()
	var batch []*pkt.Buf
	if len(ch.rxq) > 0 {
		clear(ch.spare) // the batch before this one: the consumer is done with it
		batch, ch.rxq, ch.spare = ch.rxq, ch.spare[:0], ch.rxq
	}
	ch.sinceDoorbell = 0
	// Consume any extra pending notification so the next Wait blocks.
	for ch.sem.TryP() {
	}
	for _, b := range batch {
		ch.releaseSlot(b)
	}
	if ch.zeroCopy && len(batch) > 0 {
		for _, b := range batch {
			b.Retain()
		}
		ch.inflight = append(ch.inflight, batch...)
	}
	return batch
}

// settleInflight drops the channel's liens on the previously drained batch.
func (ch *Channel) settleInflight() {
	for i, b := range ch.inflight {
		b.Release()
		ch.inflight[i] = nil
	}
	ch.inflight = ch.inflight[:0]
}

// sweepInflight reclaims the channel's liens outside the normal drain
// cycle — revocation, quarantine, teardown. With poison set the packet
// bytes are zeroed in place first, so a live but distrusting tenant that
// kept references past its lease can never read data it no longer owns; a
// dead application's sweep skips the scrub (its address space is gone).
func (ch *Channel) sweepInflight(poison bool, reason string) {
	if len(ch.inflight) == 0 {
		return
	}
	n := len(ch.inflight)
	for _, b := range ch.inflight {
		if poison {
			b.Poison()
		}
		b.Release()
	}
	clear(ch.inflight)
	ch.inflight = ch.inflight[:0]
	if ch.mod.Bus.Enabled() {
		ch.mod.Bus.Emit(trace.Event{Kind: trace.ChanSweep, Node: ch.mod.dev.Name(),
			A: int64(ch.id), B: int64(n), Text: reason})
	}
}

// releaseSlot returns the hardware ring slot a frame occupies, if any.
// Kernel-injected frames (Meta.BQI zero) never held one.
func (ch *Channel) releaseSlot(b *pkt.Buf) {
	if b.Meta.BQI == 0 {
		return
	}
	if an1, ok := ch.mod.dev.(*netdev.AN1); ok {
		an1.Release(b.Meta.BQI)
	}
}

// Pending reports queued packets (diagnostics).
func (ch *Channel) Pending() int { return len(ch.rxq) }

// Poke wakes a thread blocked in Wait without delivering a packet, so the
// owner can observe a shutdown flag.
func (ch *Channel) Poke() { ch.sem.V() }

// Disown is the consumer's last call on a channel: its promise never to
// Wait, TryRecv, Poke or read the channel again, made by the thread that did
// so. A channel disowned before it is destroyed has no user left but the
// module, which may then give its record to the next endpoint; one that is
// not — its consumer was killed, or never said — is left to the collector.
func (ch *Channel) Disown() { ch.disowned = true }

// Inject delivers a frame into the channel from the kernel's default input
// path — used by the registry to forward stray segments of a connection
// whose demultiplexing binding was installed mid-exchange. An injected
// frame never occupies a hardware ring slot, whatever its metadata said on
// arrival, so its BQI is cleared before slot accounting can see it.
func (ch *Channel) Inject(b *pkt.Buf) {
	b.Meta.BQI = 0
	ch.deliver(b)
}

// BQI returns the channel's hardware demultiplexing index (0 on Ethernet).
func (ch *Channel) BQI() uint16 { return ch.bqi }

// deliver enqueues a packet and notifies the library. The semaphore is
// posted only when the queue transitions from empty, so a burst arriving
// before the library wakes is delivered under a single notification.
//
// A full ring is backpressure, not silent loss: the drop is accounted on
// the channel and the module, and the first drop of an episode posts an
// extra notification so a slow consumer is prodded to drain the ring.
func (ch *Channel) deliver(b *pkt.Buf) {
	bus := ch.mod.Bus
	if ch.mod.quarantined(ch.id) {
		// The lease on this endpoint ran out: the control plane that
		// vouched for it is dead. Deliver nothing until a reborn registry
		// re-adopts the endpoint and resumes renewing. This single check
		// covers every delivery source — software demux, the AN1 hardware
		// ring, and kernel-path Inject.
		ch.Quarantined++
		ch.mod.QuarantineDrops++
		if bus.Enabled() {
			bus.Emit(trace.Event{Kind: trace.ChanQuarantine, Node: ch.mod.dev.Name(), A: int64(ch.id)})
		}
		if ch.zeroCopy {
			// Zero-copy channels hold references a distrusting tenant can
			// still read: reclaim the liens (scrubbing the bytes) and the
			// queued-but-undrained frames at quarantine onset.
			ch.sweepInflight(true, "quarantine")
			for _, q := range ch.rxq {
				ch.releaseSlot(q)
				q.Release()
			}
			ch.rxq = nil
		}
		ch.releaseSlot(b)
		b.Release()
		return
	}
	if len(ch.rxq) >= ch.cap {
		ch.Dropped++
		ch.mod.RxDropped++
		if bus.Enabled() {
			bus.Emit(trace.Event{Kind: trace.ChanDrop, Node: ch.mod.dev.Name(), A: int64(ch.id)})
		}
		if !ch.overflowed {
			ch.overflowed = true
			ch.Overflows++
			ch.Notifications++
			ch.mod.NotificationsTotal++
			ch.sem.V()
		}
		ch.releaseSlot(b)
		b.Release()
		return
	}
	ch.overflowed = false
	ch.rxq = append(ch.rxq, b)
	ch.Delivered++
	ch.mod.DeliveredTotal++
	if len(ch.rxq) > ch.HighWater {
		ch.HighWater = len(ch.rxq)
		if ch.HighWater > ch.mod.RingHighWater {
			ch.mod.RingHighWater = ch.HighWater
		}
	}
	if bus.Enabled() {
		bus.Emit(trace.Event{Kind: trace.ChanDeliver, Node: ch.mod.dev.Name(),
			A: int64(ch.id), B: int64(len(ch.rxq))})
	}
	if ch.zeroCopy {
		ch.postDescriptor(b)
		// Batched doorbells: the empty→nonempty transition always rings
		// (the library may be asleep), and while the library lags the bell
		// rings again at most once per budget descriptors — a bounded
		// prod, not one post per packet. DisableBatching degrades to the
		// per-packet ablation as in copy mode.
		ch.sinceDoorbell++
		if len(ch.rxq) == 1 || ch.noBatch || ch.sinceDoorbell >= ch.budget {
			ch.sinceDoorbell = 0
			ch.notify(bus)
		}
		return
	}
	if len(ch.rxq) == 1 || ch.noBatch {
		ch.notify(bus)
	}
}

// dropQueued returns the frames still in the ring to the pool, and with
// slots set their hardware ring slots too.
func (ch *Channel) dropQueued(slots bool) {
	for i, b := range ch.rxq {
		if slots {
			ch.releaseSlot(b)
		}
		b.Release()
		ch.rxq[i] = nil
	}
	ch.rxq = ch.rxq[:0]
}

// notify posts the channel's semaphore and accounts the doorbell.
func (ch *Channel) notify(bus *trace.Bus) {
	ch.Notifications++
	ch.mod.NotificationsTotal++
	if bus.Enabled() {
		bus.Emit(trace.Event{Kind: trace.ChanNotify, Node: ch.mod.dev.Name(),
			A: int64(ch.id), B: int64(len(ch.rxq))})
	}
	ch.sem.V()
}

// postDescriptor writes the fixed-size receive descriptor — sequence
// number and frame length — into the channel's shared-region ring. On the
// zero-copy path these eight bytes are the only ones the kernel moves; the
// frame itself stays in the pool buffer the library reads by reference.
func (ch *Channel) postDescriptor(b *pkt.Buf) {
	ch.posted++
	slot := int(ch.posted%uint64(ch.cap)) * descBytes
	d := ch.Region.Buf[slot : slot+descBytes]
	seq, n := uint32(ch.posted), uint32(b.Len())
	d[0], d[1], d[2], d[3] = byte(seq>>24), byte(seq>>16), byte(seq>>8), byte(seq)
	d[4], d[5], d[6], d[7] = byte(n>>24), byte(n>>16), byte(n>>8), byte(n)
}

const (
	descBytes = 8    // one receive descriptor: sequence number, frame length
	slotBytes = 2048 // modelled shared memory wired per ring slot
)

// chanRec is everything the module allocates for one endpoint but its
// capability, as one record: the channel, its shared region, its semaphore,
// its AN1 ring or software demux entry. DestroyChannel puts a record whose
// consumer has disowned the channel on Module.free, and createChannel takes
// the next endpoint's from there.
type chanRec struct {
	ch     Channel
	region kern.Region
	sem    kern.Sem
	ring   netdev.Ring
	bd     binding
	// rx is the ring's receive handler, bound to the record once.
	rx netdev.RxHandler
}

// Scrub zeroes the record but for its storage (the region's bytes, the
// receive ring's two arrays, the lien list) and rx, which refers only to the
// record itself. A stale Channel pointer then has no semaphore, region or
// module to act on.
func (r *chanRec) Scrub() {
	r.ch = Channel{rxq: r.ch.rxq[:0], spare: r.ch.spare[:0], inflight: r.ch.inflight[:0]}
	r.region.Buf = r.region.Buf[:0]
	r.ring = netdev.Ring{}
	r.bd = binding{}
}

// Placement of a software demux entry: hash-steered (exact or
// wildcard-remote key) or on the linear fallback chain.
const (
	placeChain = iota
	placeSteer
	placeSteerWild
)

// binding is one software demux entry. Indexable endpoint predicates live
// in a steering table keyed by the packet's five-tuple; everything else
// (raw EtherType channels, partially wildcarded specs) stays on a linear
// chain. where/key let DestroyChannel remove the entry without scanning.
type binding struct {
	match func([]byte) bool
	ch    *Channel
	where int
	key   steerKey
}

// steerKey is the exact-match steering index: the fields Spec.Match tests
// against an inbound IPv4 frame. The wildcard (listener) form zeroes the
// remote half.
type steerKey struct {
	proto      uint8
	localIP    ipv4.Addr
	localPort  uint16
	remoteIP   ipv4.Addr
	remotePort uint16
}

// steerKeys extracts the steering keys from an inbound frame: the fully
// specified key and its listener form (remote half zeroed). ok is false
// when the frame cannot hit any steered binding — short, non-IPv4, or a
// non-first fragment (no transport header) — in which case only the chain
// can match, mirroring Spec.Match's reject conditions exactly.
func steerKeys(hdrLen int, frame []byte) (full, wild steerKey, ok bool) {
	if len(frame) < hdrLen+20 {
		return
	}
	if uint16(frame[hdrLen-2])<<8|uint16(frame[hdrLen-1]) != 0x0800 {
		return
	}
	ip := frame[hdrLen:]
	if ip[0]>>4 != 4 {
		return
	}
	if (uint16(ip[6])<<8|uint16(ip[7]))&0x1fff != 0 {
		return // non-first fragment
	}
	ihl := int(ip[0]&0x0f) * 4
	if ihl < 20 || len(ip) < ihl+4 {
		return
	}
	full = steerKey{
		proto:      ip[9],
		localIP:    ipv4.Addr(ip[16:20]),
		localPort:  uint16(ip[ihl+2])<<8 | uint16(ip[ihl+3]),
		remoteIP:   ipv4.Addr(ip[12:16]),
		remotePort: uint16(ip[ihl])<<8 | uint16(ip[ihl+1]),
	}
	wild = full
	wild.remoteIP = ipv4.Addr{}
	wild.remotePort = 0
	return full, wild, true
}

// steerable classifies a Spec: a fully specified five-tuple steers on the
// exact table, a fully wildcarded remote steers on the listener table, and
// anything else (no transport predicate, or a half-wildcarded remote,
// which the hash key cannot express) falls back to the chain.
func steerable(s *filter.Spec) (key steerKey, where int) {
	if s == nil || s.Proto == 0 || s.LocalPort == 0 || s.LocalIP == ([4]byte{}) {
		return steerKey{}, placeChain
	}
	key = steerKey{proto: s.Proto, localIP: s.LocalIP, localPort: s.LocalPort}
	if s.RemoteIP == ([4]byte{}) && s.RemotePort == 0 {
		return key, placeSteerWild
	}
	if s.RemoteIP != ([4]byte{}) && s.RemotePort != 0 {
		key.remoteIP = s.RemoteIP
		key.remotePort = s.RemotePort
		return key, placeSteer
	}
	return steerKey{}, placeChain
}

// Module is one device's network I/O module.
type Module struct {
	host *kern.Host
	dev  netdev.Device

	nextCapID uint64
	nextBQI   uint16
	freeBQI   []uint16 // recycled ring indices, reused LIFO
	caps      map[uint64]*Capability
	// free holds the records of destroyed channels nobody else can reach.
	free freelist.List[*chanRec]

	// Software demux is split two ways: steer holds fully specified
	// five-tuple endpoints, steerWild holds listener endpoints (remote
	// wildcarded), and chain is the linear fallback for everything the
	// hash key cannot express. An inbound frame consults steer, then
	// steerWild, then the chain — so a steered entry always beats a chain
	// entry that would also match.
	steer     map[steerKey]*binding
	steerWild map[steerKey]*binding
	chain     []*binding

	defaultRx netdev.RxHandler

	// pinned counts the shared regions currently wired, so the pinned
	// population is auditable after crashes and teardowns.
	pinned int

	// DisableBatching makes every delivered packet post its own
	// notification (the batching ablation; the paper observes "network
	// packet batching is very effective").
	DisableBatching bool

	// ZeroCopyRx makes channels created from now on deliver by reference:
	// matched frames hand the pool buffer to the library and post only a
	// fixed-size descriptor into the shared region, instead of modeling a
	// kernel→region copy. Opt-in (Config.ZeroCopyRx), like the switch:
	// legacy replays never see the new cost profile.
	ZeroCopyRx bool

	// DoorbellBatch is the zero-copy doorbell budget: while the library
	// lags, at most one semaphore post per this many posted descriptors.
	// Zero means the default of 8.
	DoorbellBatch int

	// leases, when non-nil, bounds how long an endpoint may be served
	// without the control plane renewing it. The table belongs to the
	// module, not the registry: leases survive a registry crash exactly
	// like the channels they guard.
	leases *lease.Table

	// FailSetup, when non-nil, is consulted by setup-time allocations —
	// ReserveBQI ("bqi") and channel creation ("create") — and its error is
	// returned instead of proceeding. Tests use it to drive the registry's
	// setup error paths.
	FailSetup func(op string) error

	// Stats
	SendOK, SendRejected, DemuxMatched, DemuxDefault int
	RxDropped                                        int
	// QuarantineDrops counts packets suppressed on lease-expired channels.
	QuarantineDrops int
	// DeliveredTotal/NotificationsTotal aggregate the per-channel
	// counters across all channels (including destroyed ones), so the
	// notification-batching ratio survives teardown.
	DeliveredTotal, NotificationsTotal int
	// CopiedBytes counts bytes moved by the kernel→shared-region receive
	// copy on software-demux devices (Table-style "copies" breakdown).
	CopiedBytes int64
	// ReferencedBytes/DeliveredByRef count the zero-copy complement:
	// payload volume and packets handed to the library by reference.
	ReferencedBytes int64
	DeliveredByRef  int
	// RingHighWater is the deepest any channel's receive ring ever got.
	RingHighWater int

	// Bus, when set, receives demux/channel/capability events. Nil-safe.
	Bus *trace.Bus
}

// New creates the module for a device and installs its receive path. For
// the AN1, the default kernel ring (BQI 0) is installed; per-channel rings
// are added as connections are set up.
func New(h *kern.Host, dev netdev.Device) *Module {
	m := &Module{
		host:      h,
		dev:       dev,
		nextCapID: 1,
		nextBQI:   1,
		caps:      make(map[uint64]*Capability),
		steer:     make(map[steerKey]*binding),
		steerWild: make(map[steerKey]*binding),
	}
	dev.SetRxHandler(m.rxSoftware)
	return m
}

// Device returns the underlying device.
func (m *Module) Device() netdev.Device { return m.dev }

// SetDefaultHandler installs the protected kernel input path for packets
// matching no user binding (registry traffic, ARP, monolithic stacks).
func (m *Module) SetDefaultHandler(h netdev.RxHandler) { m.defaultRx = h }

// rxSoftware is the interrupt-level input path for the default ring: on the
// LANCE it demultiplexes every packet in software; on the AN1 it handles
// only BQI-0 packets (hardware already demultiplexed the rest).
func (m *Module) rxSoftware(b *pkt.Buf) {
	c := &m.host.Cost
	if _, isAN1 := m.dev.(*netdev.AN1); !isAN1 {
		// Software demultiplexing: one run of the synthesized native
		// predicate over the headers. The charged cost is fixed per frame
		// regardless of how the match is found — the steering tables are a
		// wall-clock optimization and must not perturb virtual time.
		m.host.CPU.UseAsync(c.LanceDemuxFixed+c.FilterDemux, nil)
		frame := b.Bytes()
		if bd := m.steerLookup(frame); bd != nil {
			m.deliverMatched(bd, b)
			return
		}
		for _, bd := range m.chain {
			if bd.match(frame) {
				m.deliverMatched(bd, b)
				return
			}
		}
	}
	m.DemuxDefault++
	if m.Bus.Enabled() {
		m.Bus.Emit(trace.Event{Kind: trace.DemuxMiss, Node: m.dev.Name(), B: int64(b.Len())})
	}
	if m.defaultRx != nil {
		m.defaultRx(b)
	} else {
		b.Release()
	}
}

// steerLookup finds the software binding for a frame in O(1): exact
// five-tuple first, then the listener (wildcard-remote) form. A frame that
// cannot carry a steerable key (non-IPv4, fragment) returns nil and falls
// through to the chain.
func (m *Module) steerLookup(frame []byte) *binding {
	if len(m.steer) == 0 && len(m.steerWild) == 0 {
		return nil
	}
	full, wild, ok := steerKeys(m.dev.HdrLen(), frame)
	if !ok {
		return nil
	}
	if bd := m.steer[full]; bd != nil {
		return bd
	}
	return m.steerWild[wild]
}

// deliverMatched accounts and completes a software demux hit. On the
// classic path the packet was staged into kernel memory by the PIO copy and
// moving it into the channel's shared region is a second, per-byte copy.
// On a zero-copy channel the buffer itself is handed over and the kernel
// pays only the fixed descriptor post — the per-packet cost no longer
// scales with payload size, which is the whole point.
func (m *Module) deliverMatched(bd *binding, b *pkt.Buf) {
	m.DemuxMatched++
	if m.Bus.Enabled() {
		m.Bus.Emit(trace.Event{Kind: trace.DemuxHit, Node: m.dev.Name(),
			A: int64(bd.ch.id), B: int64(b.Len())})
	}
	if bd.ch.zeroCopy {
		m.ReferencedBytes += int64(b.Len())
		m.DeliveredByRef++
		bd.ch.ReferencedBytes += int64(b.Len())
		bd.ch.DeliveredByRef++
		m.host.CPU.UseAsync(m.host.Cost.DescriptorPost, nil)
	} else {
		m.CopiedBytes += int64(b.Len())
		bd.ch.CopiedBytes += int64(b.Len())
		m.host.CPU.UseAsync(m.host.Cost.Copy(b.Len()), nil)
	}
	bd.ch.deliver(b)
}

// ReserveBQI allocates a buffer queue index ahead of channel creation, so
// the handshake can advertise it before the ring exists (data cannot
// arrive until the handshake completes). Only privileged domains may
// reserve.
func (m *Module) ReserveBQI(from *kern.Domain) (uint16, error) {
	if !from.Privileged {
		return 0, fmt.Errorf("netio: BQI reservation from unprivileged domain %s", from)
	}
	if m.FailSetup != nil {
		if err := m.FailSetup("bqi"); err != nil {
			return 0, err
		}
	}
	if _, ok := m.dev.(*netdev.AN1); !ok {
		return 0, nil // no hardware demultiplexing on this device
	}
	return m.allocBQI()
}

// allocBQI hands out a ring index, preferring recycled ones (LIFO keeps
// the hardware table dense under churn). Index 0 is the kernel ring and
// never allocated; the 16-bit space is a hardware limit, so running out is
// an error, not a wrap.
func (m *Module) allocBQI() (uint16, error) {
	if n := len(m.freeBQI); n > 0 {
		bqi := m.freeBQI[n-1]
		m.freeBQI = m.freeBQI[:n-1]
		return bqi, nil
	}
	if m.nextBQI == 0xFFFF {
		return 0, ErrBQIExhausted
	}
	bqi := m.nextBQI
	m.nextBQI++
	return bqi, nil
}

// ReleaseBQI returns a reserved-but-never-used ring index to the free
// list. Setup paths that reserve ahead of channel creation must call this
// on their failure paths, or churn leaks the index space. Indices consumed
// by a channel are recycled by DestroyChannel instead.
func (m *Module) ReleaseBQI(from *kern.Domain, bqi uint16) error {
	if !from.Privileged {
		return fmt.Errorf("netio: BQI release from unprivileged domain %s", from)
	}
	if bqi != 0 {
		m.freeBQI = append(m.freeBQI, bqi)
	}
	return nil
}

// CreateChannel builds the shared region, ring, capability and demux
// binding for one endpoint. Only a privileged domain (the registry server)
// may call it: "initially, only the privileged registry server has access
// to the network module."
//
// spec describes the endpoint for input demultiplexing; tmpl constrains
// output. ringSize is the receive ring capacity in packets.
func (m *Module) CreateChannel(from *kern.Domain, spec filter.Spec, tmpl Template, ringSize int) (*Capability, *Channel, error) {
	if !from.Privileged {
		return nil, nil, fmt.Errorf("netio: channel creation from unprivileged domain %s", from)
	}
	return m.createChannel(from, &spec, nil, tmpl, ringSize, 0)
}

// CreateChannelBQI is CreateChannel with a previously reserved BQI.
func (m *Module) CreateChannelBQI(from *kern.Domain, spec filter.Spec, tmpl Template, ringSize int, bqi uint16) (*Capability, *Channel, error) {
	if !from.Privileged {
		return nil, nil, fmt.Errorf("netio: channel creation from unprivileged domain %s", from)
	}
	return m.createChannel(from, &spec, nil, tmpl, ringSize, bqi)
}

// CreateRawChannel builds a channel demultiplexed by EtherType alone, for
// link-level protocols (the Table 1 mechanism micro-benchmark "used two
// applications to exchange data ... without using any higher-level
// protocols").
func (m *Module) CreateRawChannel(from *kern.Domain, et link.EtherType, tmpl Template, ringSize int) (*Capability, *Channel, error) {
	if !from.Privileged {
		return nil, nil, fmt.Errorf("netio: raw channel creation from unprivileged domain %s", from)
	}
	hdrLen := m.dev.HdrLen()
	match := func(frame []byte) bool {
		if len(frame) < hdrLen {
			return false
		}
		return link.EtherType(uint16(frame[hdrLen-2])<<8|uint16(frame[hdrLen-1])) == et
	}
	return m.createChannel(from, nil, match, tmpl, ringSize, 0)
}

// createChannel installs the channel. spec, when non-nil, describes the
// endpoint predicate structurally so software demux can steer it by hash
// key; match is the predicate used when it cannot (raw channels, partial
// wildcards, or a key collision — the colliding entry chains behind the
// steered one, preserving first-installed-wins order), compiled from spec
// if nil, and only where demultiplexing is in software.
func (m *Module) createChannel(from *kern.Domain, spec *filter.Spec, match func([]byte) bool, tmpl Template, ringSize int, reservedBQI uint16) (*Capability, *Channel, error) {
	if m.FailSetup != nil {
		if err := m.FailSetup("create"); err != nil {
			return nil, nil, err
		}
	}
	if ringSize <= 0 {
		ringSize = 32
	}
	rec := m.free.Get()
	if rec == nil {
		rec = new(chanRec)
	}
	rec.region.Wire(ringSize * descBytes)
	rec.sem.Init(m.host, "chan-sem", 0)
	ch := &rec.ch
	ch.rec, ch.Region, ch.sem = rec, &rec.region, &rec.sem
	ch.cap = ringSize
	ch.noBatch = m.DisableBatching
	ch.zeroCopy = m.ZeroCopyRx
	ch.budget = m.DoorbellBatch
	ch.mod = m
	if ch.budget <= 0 {
		ch.budget = 8
	}
	cap := &Capability{id: m.nextCapID, template: tmpl, ch: ch, issuer: from}
	m.nextCapID++
	ch.id = cap.id
	m.caps[cap.id] = cap
	m.pinned++

	if an1, ok := m.dev.(*netdev.AN1); ok {
		// Hardware demultiplexing: install the ring under the reserved (or
		// a fresh) BQI.
		ch.bqi = reservedBQI
		if ch.bqi == 0 {
			bqi, err := m.allocBQI()
			if err != nil {
				delete(m.caps, cap.id)
				m.unpin(ch)
				return nil, nil, err
			}
			ch.bqi = bqi
		}
		if rec.rx == nil {
			rec.rx = func(b *pkt.Buf) {
				m.DemuxMatched++
				if m.Bus.Enabled() {
					m.Bus.Emit(trace.Event{Kind: trace.DemuxHit, Node: m.dev.Name(),
						A: int64(ch.id), B: int64(b.Len())})
				}
				ch.deliver(b)
			}
		}
		an1.InstallRing(ch.bqi, &rec.ring, ringSize, rec.rx)
	} else {
		if match == nil {
			match = spec.Compile()
		}
		bd := &rec.bd
		*bd = binding{match: match, ch: ch}
		bd.key, bd.where = steerable(spec)
		switch bd.where {
		case placeSteer:
			if m.steer[bd.key] != nil {
				bd.where = placeChain // duplicate key: first install wins
			} else {
				m.steer[bd.key] = bd
			}
		case placeSteerWild:
			if m.steerWild[bd.key] != nil {
				bd.where = placeChain
			} else {
				m.steerWild[bd.key] = bd
			}
		}
		if bd.where == placeChain {
			m.chain = append(m.chain, bd)
		}
		ch.bd = bd
	}
	if m.leases != nil {
		m.leases.Grant(cap.id)
	}
	return cap, ch, nil
}

// DestroyChannel revokes a capability, removes its demux binding, and
// unpins its shared region (connection teardown; resources "registered
// with the network I/O module are now reclaimed").
func (m *Module) DestroyChannel(from *kern.Domain, cap *Capability) error {
	if !from.Privileged {
		return fmt.Errorf("netio: channel destruction from unprivileged domain %s", from)
	}
	if _, ok := m.caps[cap.id]; !ok {
		return ErrBadCapability
	}
	delete(m.caps, cap.id)
	if m.leases != nil {
		m.leases.Drop(cap.id)
	}
	ringIdle := true
	if cap.ch.bqi != 0 {
		if an1, ok := m.dev.(*netdev.AN1); ok {
			ringIdle = an1.RemoveRing(cap.ch.bqi)
		}
		m.freeBQI = append(m.freeBQI, cap.ch.bqi)
	}
	if bd := cap.ch.bd; bd != nil {
		switch bd.where {
		case placeSteer:
			delete(m.steer, bd.key)
		case placeSteerWild:
			delete(m.steerWild, bd.key)
		default:
			for i, cbd := range m.chain {
				if cbd == bd {
					m.chain = append(m.chain[:i], m.chain[i+1:]...)
					break
				}
			}
		}
		cap.ch.bd = nil
	}
	// Packets still queued in the ring die with the channel: nobody will
	// ever Wait on it again, so they must be returned to the pool here or
	// they leak (found by the pool leak report under the chaos scenarios).
	// Zero-copy liens on the batch last handed out die the same way — a
	// crashed application's outstanding references must not keep pool
	// storage alive (no scrub: the owner is gone, not distrusting).
	ch := cap.ch
	ch.dropQueued(false)
	ch.sweepInflight(false, "destroy")
	m.unpin(ch)
	if m.Bus.Enabled() {
		m.Bus.Emit(trace.Event{Kind: trace.CapRevoked, Node: m.dev.Name(), A: int64(cap.id)})
	}
	// The record is reused only when the module holds the last reference to
	// it: the consumer said it is gone, no frame is between arrival and
	// interrupt in the ring, and nobody sleeps on the semaphore or is about
	// to post it. Every other destroyed channel — a crashed application's,
	// whose consumer was killed, a datagram or raw one, whose consumer never
	// says — is the collector's.
	cap.ch = nil
	if ch.disowned && ringIdle && ch.sem.Quiet() {
		m.free.Put(ch.rec)
	}
	return nil
}

// EnableLeases arms lease enforcement: every channel created from now on
// is granted a lease of the given ttl, and an endpoint whose lease runs
// out is quarantined (no delivery, sends rejected) until renewed.
// Idempotent — a restarted registry calling it again keeps the existing
// table, so leases granted by the previous incarnation stay in force.
func (m *Module) EnableLeases(ttl time.Duration) *lease.Table {
	if m.leases == nil {
		m.leases = lease.NewTable(func() time.Duration {
			return time.Duration(m.host.S.Now())
		}, ttl)
	}
	return m.leases
}

// quarantined reports whether a channel's lease has expired.
func (m *Module) quarantined(id uint64) bool {
	return m.leases != nil && m.leases.Expired(id)
}

// RenewLeasesIssued extends the leases of the capabilities issued by (or
// reassigned to) the given domain — a registry shard's heartbeat. Only a
// privileged domain may renew. A dead shard stops calling this, its
// endpoints' leases expire and quarantine, and the libraries migrate them
// to a live shard or re-register them with the next incarnation; the other
// shards' endpoints never miss a beat. Returns how many leases were
// extended.
func (m *Module) RenewLeasesIssued(from *kern.Domain) (int, error) {
	if !from.Privileged {
		return 0, fmt.Errorf("netio: lease renewal from unprivileged domain %s", from)
	}
	if m.leases == nil {
		return 0, nil
	}
	n := 0
	for _, cap := range m.caps {
		if cap.issuer == from {
			m.leases.Renew(cap.id)
			n++
		}
	}
	return n, nil
}

// Reissue reassigns a capability's issuer: the shard that adopts an
// endpoint after a migration (re-registration, rebuild) takes over its
// lease renewal.
func (m *Module) Reissue(from *kern.Domain, cap *Capability) error {
	if !from.Privileged {
		return fmt.Errorf("netio: reissue from unprivileged domain %s", from)
	}
	if cap == nil || m.caps[cap.id] != cap {
		return ErrBadCapability
	}
	cap.issuer = from
	return nil
}

// RenewLease extends one capability's lease (re-registration of a single
// endpoint by a reborn registry).
func (m *Module) RenewLease(from *kern.Domain, cap *Capability) error {
	if !from.Privileged {
		return fmt.Errorf("netio: lease renewal from unprivileged domain %s", from)
	}
	if cap == nil || m.caps[cap.id] != cap {
		return ErrBadCapability
	}
	if m.leases != nil {
		m.leases.Renew(cap.id)
	}
	return nil
}

// Installed reports whether cap is a currently valid capability of this
// module (the reborn registry verifies re-registration claims with it).
func (m *Module) Installed(cap *Capability) bool {
	return cap != nil && m.caps[cap.id] == cap
}

// InstalledEndpoint describes one live endpoint for control-plane state
// rebuild: the capability, its channel, the installed header template, the
// owning application domain, and the hardware ring (0 on Ethernet).
type InstalledEndpoint struct {
	Cap      *Capability
	Channel  *Channel
	Template Template
	Owner    *kern.Domain
	BQI      uint16
}

// InstalledEndpoints enumerates every live endpoint, ordered by capability
// id (deterministic). A restarted registry rebuilds its port table and
// connection map from this — the in-kernel module, not the crashed
// server's memory, is the authoritative record of what exists; exactly the
// paper's trust split between the module and the registry.
func (m *Module) InstalledEndpoints(from *kern.Domain) ([]InstalledEndpoint, error) {
	if !from.Privileged {
		return nil, fmt.Errorf("netio: endpoint enumeration from unprivileged domain %s", from)
	}
	ids := make([]uint64, 0, len(m.caps))
	for id := range m.caps {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	eps := make([]InstalledEndpoint, 0, len(ids))
	for _, id := range ids {
		cap := m.caps[id]
		eps = append(eps, InstalledEndpoint{
			Cap:      cap,
			Channel:  cap.ch,
			Template: cap.template,
			Owner:    cap.owner,
			BQI:      cap.ch.bqi,
		})
	}
	return eps, nil
}

// AssignOwner records the application domain a capability was issued to.
// Only a privileged domain (the registry, which creates channels on behalf
// of applications) may assign ownership; the module uses it to find what a
// crashed application held.
func (m *Module) AssignOwner(from *kern.Domain, cap *Capability, owner *kern.Domain) error {
	if !from.Privileged {
		return fmt.Errorf("netio: owner assignment from unprivileged domain %s", from)
	}
	if _, ok := m.caps[cap.id]; !ok {
		return ErrBadCapability
	}
	cap.owner = owner
	return nil
}

// RevokeOwner reclaims every resource issued to a dead application: its
// capabilities are revoked, demux bindings and hardware rings removed, and
// shared regions unpinned. It returns the number of capabilities revoked.
// This is the network I/O module's half of crash-failure reclamation — it
// runs even if the registry's own records were incomplete, so a crash can
// never leak kernel resources.
func (m *Module) RevokeOwner(from *kern.Domain, owner *kern.Domain) (int, error) {
	if !from.Privileged {
		return 0, fmt.Errorf("netio: owner revocation from unprivileged domain %s", from)
	}
	revoked := 0
	for _, cap := range m.caps {
		if cap.owner == owner {
			if m.DestroyChannel(from, cap) == nil {
				revoked++
			}
		}
	}
	return revoked, nil
}

// LiveCapabilities counts valid capabilities; with a non-nil owner, only
// those issued to that domain. Chaos tests assert this reaches zero for a
// crashed application.
func (m *Module) LiveCapabilities(owner *kern.Domain) int {
	n := 0
	for _, cap := range m.caps {
		if owner == nil || cap.owner == owner {
			n++
		}
	}
	return n
}

// PinnedRegions counts shared regions still wired.
func (m *Module) PinnedRegions() int { return m.pinned }

// unpin releases a channel's region: orderly teardown, the crash sweep
// (RevokeOwner) and a set-up that fails after the region was wired all end
// here, once per channel.
func (m *Module) unpin(ch *Channel) {
	ch.Region.Unpin()
	m.pinned--
}

// ChannelStats is a snapshot of one live channel's receive counters, for
// the stats registry's per-channel breakdown.
type ChannelStats struct {
	ID                                int64
	BQI                               uint16
	Delivered, Dropped, Notifications int
	Overflows, HighWater, Quarantined int
	DeliveredByRef                    int
	CopiedBytes, ReferencedBytes      int64
	Pending, Inflight                 int
}

// ChannelStats enumerates per-channel receive counters for every live
// channel, ordered by capability id (deterministic). Destroyed channels'
// contributions survive only in the module aggregates.
func (m *Module) ChannelStats() []ChannelStats {
	ids := make([]uint64, 0, len(m.caps))
	for id := range m.caps {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	out := make([]ChannelStats, 0, len(ids))
	for _, id := range ids {
		ch := m.caps[id].ch
		out = append(out, ChannelStats{
			ID:              int64(id),
			BQI:             ch.bqi,
			Delivered:       ch.Delivered,
			Dropped:         ch.Dropped,
			Notifications:   ch.Notifications,
			Overflows:       ch.Overflows,
			HighWater:       ch.HighWater,
			Quarantined:     ch.Quarantined,
			DeliveredByRef:  ch.DeliveredByRef,
			CopiedBytes:     ch.CopiedBytes,
			ReferencedBytes: ch.ReferencedBytes,
			Pending:         len(ch.rxq),
			Inflight:        len(ch.inflight),
		})
	}
	return out
}

// SoftwareBindings counts installed software demux entries across the
// steering tables and the fallback chain (diagnostics).
func (m *Module) SoftwareBindings() int {
	return len(m.steer) + len(m.steerWild) + len(m.chain)
}

// SteeredBindings reports how many software demux entries are hash-steered
// vs on the linear fallback chain (diagnostics; scaling benchmarks assert
// the chain stays empty for endpoint-shaped specs).
func (m *Module) SteeredBindings() (steered, chained int) {
	return len(m.steer) + len(m.steerWild), len(m.chain)
}

// UpdateTemplate amends a capability's template (the registry narrows it
// once the remote endpoint and link address are known).
func (m *Module) UpdateTemplate(from *kern.Domain, cap *Capability, tmpl Template) error {
	if !from.Privileged {
		return fmt.Errorf("netio: template update from unprivileged domain %s", from)
	}
	if _, ok := m.caps[cap.id]; !ok {
		return ErrBadCapability
	}
	cap.template = tmpl
	return nil
}

// Send is the library's specialized kernel entry for transmission: the
// calling thread pays the fast trap and the per-packet template check; a
// frame whose headers violate the template is rejected.
func (m *Module) Send(t *kern.Thread, cap *Capability, frame *pkt.Buf) error {
	c := t.Cost()
	t.FastTrap()
	if cap == nil || m.caps[cap.id] != cap {
		m.SendRejected++
		if m.Bus.Enabled() {
			var id int64
			if cap != nil {
				id = int64(cap.id)
			}
			m.Bus.Emit(trace.Event{Kind: trace.VerifyReject, Node: m.dev.Name(),
				A: id, Text: "bad-capability"})
		}
		return ErrBadCapability
	}
	if m.quarantined(cap.id) {
		m.SendRejected++
		if m.Bus.Enabled() {
			m.Bus.Emit(trace.Event{Kind: trace.VerifyReject, Node: m.dev.Name(),
				A: int64(cap.id), Text: "lease-expired"})
		}
		return ErrLeaseExpired
	}
	t.Compute(c.TemplateCheck)
	if !cap.template.Verify(frame.Bytes(), m.dev.HdrLen()) {
		m.SendRejected++
		if m.Bus.Enabled() {
			m.Bus.Emit(trace.Event{Kind: trace.VerifyReject, Node: m.dev.Name(),
				A: int64(cap.id), Text: "template-mismatch"})
		}
		return ErrTemplateMismatch
	}
	m.SendOK++
	m.dev.Transmit(t, frame)
	return nil
}

// SendKernel is the in-kernel transmit path used by the registry server and
// the monolithic stacks (no capability involved; caller is trusted).
func (m *Module) SendKernel(t *kern.Thread, frame *pkt.Buf) {
	m.dev.Transmit(t, frame)
}
