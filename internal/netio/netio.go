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
//     pinned for the connection's lifetime: the module hands each frame's
//     pool buffer over by reference, posts its descriptor into the region's
//     ring and holds a lien on it until the library's next drain, so a
//     revocation can always reclaim what the library still references. The
//     device decides what that costs the kernel: the LANCE's software path
//     copies the frame into the region, the AN1 has already DMAed it there.
//   - The library is notified by a lightweight semaphore — a Doorbell of
//     the consumer's own, which one library thread shares across the
//     channels it attached; notifications are batched when packets arrive
//     faster than the library drains them.
//
// Packets matching no binding fall through to a default handler: the
// protected kernel path used by the registry server (connection setup, ARP)
// and by the monolithic organizations.
package netio

import (
	"errors"
	"fmt"
	"maps"
	"slices"
	"time"

	"ulp/internal/filter"
	"ulp/internal/freelist"
	"ulp/internal/ipv4"
	"ulp/internal/kern"
	"ulp/internal/link"
	"ulp/internal/netdev"
	"ulp/internal/pkt"
	"ulp/internal/trace"
)

// Errors returned by the send path.
var (
	ErrBadCapability    = errors.New("netio: invalid or revoked capability")
	ErrTemplateMismatch = errors.New("netio: packet header violates send template")
	// ErrQuarantined reports that the capability's issuer has been dead for
	// IssuerGrace. The endpoint is quarantined, not revoked: a live registry
	// can re-adopt it (Reissue).
	ErrQuarantined = errors.New("netio: capability quarantined (issuer dead)")
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
// header length of the device. An IP fragment is refused: a later one's
// first bytes are payload, not ports, and the library sends none — every
// datagram it builds carries DF.
func (t *Template) Verify(frame []byte, hdrLen int) bool {
	et, ok := link.TypeAt(frame, hdrLen)
	if !ok || et != t.Type || link.Addr(frame[6:12]) != t.LinkSrc ||
		t.LinkDst != zeroAddr && link.Addr(frame[0:6]) != t.LinkDst {
		return false
	}
	if t.Proto == 0 {
		return true
	}
	d, ok := ipv4.Peek(frame[hdrLen:])
	if !ok || d.Fragment() || d.Proto != t.Proto || d.Src != t.LocalIP ||
		t.RemoteIP != (ipv4.Addr{}) && d.Dst != t.RemoteIP {
		return false
	}
	src, dst, ok := ipv4.Ports(d.Body)
	return ok && src == t.LocalPort && (t.RemotePort == 0 || dst == t.RemotePort)
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
}

// Template returns the header template the capability was created with: the
// registry reads an endpoint's four-tuple from it, since the module, not the
// registry, is the authoritative record of what endpoints exist.
func (c *Capability) Template() Template { return c.template }

// Owner returns the application domain the capability was issued to (nil
// for none).
func (c *Capability) Owner() *kern.Domain { return c.owner }

// Chan returns the channel the capability grants access to: nil once the
// capability is revoked, since the channel's record may by then be another
// endpoint's.
func (c *Capability) Chan() *Channel { return c.ch }

// Issuer returns the registry shard that vouches for the capability's
// channel (see IssuerGrace); nil once the capability is revoked.
func (c *Capability) Issuer() *kern.Domain {
	if c.ch == nil {
		return nil
	}
	return c.ch.issuer
}

// Channel is the shared-memory conduit between the module and one library
// endpoint: a receive ring in pinned shared memory plus the doorbell it
// rings. Its consumer waits on a doorbell of its own, onto which Attach
// moves the channel, and drains it with TryRecv.
//
// The modelled region wires slotBytes per ring slot (RegionBytes). The
// simulator backs only the part of it any code reads or writes — the
// descriptor ring at its start — since frames stay in pool buffers.
type Channel struct {
	Region *kern.Region
	// bell is the doorbell the channel rings: the module's unattached one
	// until Attach moves it onto its consumer's, and again once Disown takes
	// it off. ready marks that it is on bell's list, between prev and next;
	// owner is what Attach said serves it.
	bell       *Doorbell
	ready      bool
	prev, next *Channel
	owner      any
	// rxq is the receive ring. take hands it to the consumer as the batch,
	// which stays the consumer's until the next drain, and fills spare — the
	// batch before — meanwhile: two arrays in turn, neither ever given up.
	rxq, spare []*pkt.Buf
	cap        int
	id         uint64 // owning capability's id (trace correlation)
	bqi        uint16 // nonzero on AN1
	mod        *Module
	bd         *binding // its entry in Module.steer
	// rec is the record the channel is part of, nil once it is left to the
	// collector; disowned marks that the consumer has let go of it (Disown).
	rec      *chanRec
	disowned bool
	// issuer is the control-plane domain that created (or re-adopted) the
	// channel; once it has been dead for IssuerGrace the channel is
	// quarantined, while its sibling shards' channels serve on.
	issuer *kern.Domain

	// posted numbers descriptors written into the shared region's ring.
	posted uint64
	// inflight holds the channel's liens: buffers handed out by the last
	// TryRecv, retained until the next drain (or a revocation sweep)
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
	// Quarantined counts packets suppressed because the channel's issuer
	// is dead (control plane down).
	Quarantined int
	// CopiedBytes counts the bytes the software demux path copied into the
	// shared region (zero on the AN1, whose rings are DMAed).
	CopiedBytes int64
}

// TryRecv drains and returns the pending batch without blocking ("our
// implementation attempts, where possible, to batch multiple network packets
// per semaphore notification"). Calling it is the consumer's declaration
// that it is done with the batch before, so a consumer that drains until the
// batch comes back empty before it sleeps holds no buffer references while
// it does.
func (ch *Channel) TryRecv() []*pkt.Buf {
	return ch.take()
}

// take drains the ring: it settles the liens on the previous batch (the
// library finished with it — a batch is valid only until the next drain),
// takes the channel off its doorbell's list, returns the hardware ring slots
// the drained frames held, and liens the new batch so revocation can always
// reclaim it.
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
	ch.bell.unlink(ch)
	for _, b := range batch {
		ch.releaseSlot(b)
		b.Retain()
	}
	ch.inflight = append(ch.inflight, batch...)
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
// kept references past quarantine onset can never read data it no longer
// owns; a dead application's sweep skips the scrub (its address space is
// gone).
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
	if ch.mod.host.S.Bus.Enabled() {
		ch.mod.host.S.Bus.Emit(trace.Event{Kind: trace.ChanSweep, Node: ch.mod.dev.Name(),
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

// Disown is the consumer's last call on a channel: its promise never to
// TryRecv or read the channel again, made by the thread that did so. The
// channel leaves the doorbell it was attached to for the module's unattached
// one, so that frames still arriving before it is destroyed wake nobody. A
// disowned channel has no user left but the module, which gives its record to
// the next endpoint once it is destroyed too, in either order; one never
// disowned — its consumer was killed, or never said — is the collector's.
func (ch *Channel) Disown() {
	ch.bell.unlink(ch)
	ch.bell, ch.owner = &ch.mod.unattached, nil
	ch.disowned = true
	if ch.bd == nil && ch.rec != nil { // destroyed, its ring idle
		ch.mod.free.Put(ch.rec)
	}
}

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

// deliver enqueues a packet, posts its descriptor and notifies the library.
// The doorbell is rung only when the queue transitions from empty, so a
// burst arriving before the library wakes is delivered under a single
// notification.
//
// A full ring is backpressure, not silent loss: the drop is accounted on
// the channel and the module, and the first drop of an episode posts an
// extra notification so a slow consumer is prodded to drain the ring.
func (ch *Channel) deliver(b *pkt.Buf) {
	bus := ch.mod.host.S.Bus
	if ch.mod.quarantined(ch) {
		// The control plane that vouched for this endpoint is dead. Deliver
		// nothing until a live registry re-adopts it. This single check
		// covers every delivery source — software demux, the AN1 hardware
		// ring, and kernel-path Inject.
		ch.Quarantined++
		ch.mod.quarantineDrops++
		if bus.Enabled() {
			bus.Emit(trace.Event{Kind: trace.ChanQuarantine, Node: ch.mod.dev.Name(), A: int64(ch.id)})
		}
		// The tenant may still read the buffers it was handed: reclaim the
		// liens (scrubbing the bytes) and the frames queued but not yet
		// drained, with their ring slots.
		ch.sweepInflight(true, "quarantine")
		ch.dropQueued(true)
		ch.releaseSlot(b)
		b.Release()
		return
	}
	if len(ch.rxq) >= ch.cap {
		ch.Dropped++
		ch.mod.rxDropped++
		if bus.Enabled() {
			bus.Emit(trace.Event{Kind: trace.ChanDrop, Node: ch.mod.dev.Name(), A: int64(ch.id)})
		}
		if !ch.overflowed {
			ch.overflowed = true
			ch.Overflows++
			ch.Notifications++
			ch.mod.notificationsTotal++
			ch.bell.ring(ch)
		}
		ch.releaseSlot(b)
		b.Release()
		return
	}
	ch.overflowed = false
	ch.rxq = append(ch.rxq, b)
	ch.Delivered++
	ch.mod.deliveredTotal++
	if len(ch.rxq) > ch.HighWater {
		ch.HighWater = len(ch.rxq)
		if ch.HighWater > ch.mod.ringHighWater {
			ch.mod.ringHighWater = ch.HighWater
		}
	}
	if bus.Enabled() {
		bus.Emit(trace.Event{Kind: trace.ChanDeliver, Node: ch.mod.dev.Name(),
			A: int64(ch.id), B: int64(len(ch.rxq))})
	}
	ch.postDescriptor(b)
	if len(ch.rxq) == 1 || ch.mod.DisableBatching {
		ch.notify()
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

// notify rings the channel's doorbell and accounts the notification.
func (ch *Channel) notify() {
	ch.Notifications++
	ch.mod.notificationsTotal++
	if bus := ch.mod.host.S.Bus; bus.Enabled() {
		bus.Emit(trace.Event{Kind: trace.ChanNotify, Node: ch.mod.dev.Name(),
			A: int64(ch.id), B: int64(len(ch.rxq))})
	}
	ch.bell.ring(ch)
}

// postDescriptor writes the fixed-size receive descriptor — sequence
// number and frame length — into the channel's shared-region ring. The
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
// capability, as one record: the channel, its shared region, its AN1 ring or
// software demux entry. DestroyChannel puts a record whose consumer has
// disowned the channel on Module.free, and createChannel takes the next
// endpoint's from there.
type chanRec struct {
	ch     Channel
	region kern.Region
	ring   netdev.Ring
	bd     binding
	// rx is the ring's receive handler, bound to the record once.
	rx netdev.RxHandler
}

// Scrub zeroes the record but for its storage (the region's bytes, the
// receive ring's two arrays, the lien list) and rx, which refers only to the
// record itself. A stale Channel pointer then has no doorbell, region or
// module to act on.
func (r *chanRec) Scrub() {
	r.ch = Channel{rxq: r.ch.rxq[:0], spare: r.ch.spare[:0], inflight: r.ch.inflight[:0]}
	r.region.Buf = r.region.Buf[:0]
	r.ring = netdev.Ring{}
	r.bd = binding{}
}

// binding is one endpoint table entry, installed in Module.steer under key.
type binding struct {
	ch  *Channel
	key steerKey
}

// steerKey indexes the endpoint table. An endpoint's key is its
// Spec's fields — protocol, local address and port, remote address and
// port — with the remote half zeroed for a listener; a raw channel's key is
// its EtherType alone.
type steerKey struct {
	etherType  link.EtherType // raw channels only
	proto      uint8
	localIP    ipv4.Addr
	localPort  uint16
	remoteIP   ipv4.Addr
	remotePort uint16
}

// steerKeys extracts the steering keys from an inbound frame: the fully
// specified key and its listener form (remote half zeroed). ok is false
// when the frame cannot hit any endpoint — short, non-IPv4, or a non-first
// fragment (no transport header) — which are exactly the frames the
// predicate Spec.Compile returns rejects whatever the Spec.
func steerKeys(hdrLen int, frame []byte) (full, wild steerKey, ok bool) {
	if et, _ := link.TypeAt(frame, hdrLen); et != link.TypeIPv4 {
		return
	}
	d, ok := ipv4.Peek(frame[hdrLen:])
	if !ok || d.FragOff != 0 {
		return
	}
	src, dst, ok := ipv4.Ports(d.Body)
	if !ok {
		return
	}
	full = steerKey{proto: d.Proto, localIP: d.Dst, localPort: dst, remoteIP: d.Src, remotePort: src}
	return full, full.port(), true
}

// port is the key's listener form: its local half.
func (k steerKey) port() steerKey {
	return steerKey{proto: k.proto, localIP: k.localIP, localPort: k.localPort}
}

// steerable returns a Spec's key: a fully specified five-tuple, or a
// listener with the remote half wild. ok is false for anything else (no
// transport predicate, or a half-wildcarded remote), which the table cannot
// express.
func steerable(s *filter.Spec) (key steerKey, ok bool) {
	if s.Proto == 0 || s.LocalPort == 0 || s.LocalIP == ([4]byte{}) {
		return steerKey{}, false
	}
	key = steerKey{proto: s.Proto, localIP: s.LocalIP, localPort: s.LocalPort}
	if (s.RemoteIP == ([4]byte{})) != (s.RemotePort == 0) {
		return steerKey{}, false
	}
	key.remoteIP, key.remotePort = s.RemoteIP, s.RemotePort
	return key, true
}

// Module is one device's network I/O module.
type Module struct {
	host *kern.Host
	dev  netdev.Device

	nextCapID uint64
	nextBQI   uint16
	freeBQI   []uint16 // recycled ring indices, reused LIFO
	// reserved lists the ring indices reserved and not yet bound to a
	// channel or given back, in reservation order, each with its holder.
	reserved []bqiHold
	caps     map[uint64]*Capability
	// free holds the records of destroyed channels nobody else can reach.
	free freelist.List[*chanRec]
	// unattached is the doorbell a channel rings while no consumer has
	// attached it or after it was disowned. No thread sleeps on it, so each
	// post costs a SemSignal and wakes nobody.
	unattached Doorbell

	// steer is the endpoint table: fully specified five-tuple endpoints,
	// listener endpoints (remote wildcarded) and raw EtherType channels, each
	// under its own key. On a device without hardware demultiplexing it is
	// the software demux too: an inbound frame consults its five-tuple, then
	// its listener form, then its EtherType. bound counts the endpoints on
	// each local port, under the listener form of their keys.
	steer map[steerKey]*binding
	bound map[steerKey]int

	defaultRx netdev.RxHandler

	// pinned counts the shared regions currently wired, so the pinned
	// population is auditable after crashes and teardowns.
	pinned int

	// DisableBatching makes every delivered packet post its own
	// notification (the batching ablation; the paper observes "network
	// packet batching is very effective").
	DisableBatching bool

	// FailSetup, when non-nil, is consulted by setup-time allocations —
	// ReserveBQI ("bqi") and channel creation ("create") — and its error is
	// returned instead of proceeding. Tests use it to drive the registry's
	// setup error paths.
	FailSetup func(op string) error

	// Counters (Describe).
	sendOK, sendRejected, demuxMatched, demuxDefault int
	rxDropped                                        int
	// quarantineDrops counts packets suppressed on quarantined channels.
	quarantineDrops int
	// deliveredTotal/notificationsTotal aggregate the per-channel
	// counters across all channels (including destroyed ones), so the
	// notification-batching ratio survives teardown.
	deliveredTotal, notificationsTotal int
	// copiedBytes counts bytes moved by the kernel→shared-region receive
	// copy on software-demux devices (Table-style "copies" breakdown).
	copiedBytes int64
	// ringHighWater is the deepest any channel's receive ring ever got.
	ringHighWater int
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
		bound:     make(map[steerKey]int),
	}
	m.unattached.Init(h)
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
		if bd := m.steerLookup(b.Bytes()); bd != nil {
			m.deliverMatched(bd, b)
			return
		}
	}
	m.demuxDefault++
	if m.host.S.Bus.Enabled() {
		m.host.S.Bus.Emit(trace.Event{Kind: trace.DemuxMiss, Node: m.dev.Name(), B: int64(b.Len())})
	}
	if m.defaultRx != nil {
		m.defaultRx(b)
	} else {
		b.Release()
	}
}

// steerLookup finds the software binding for a frame in O(1): exact
// five-tuple first, then the listener (wildcard-remote) form, then a raw
// channel for the frame's EtherType.
func (m *Module) steerLookup(frame []byte) *binding {
	if len(m.steer) == 0 {
		return nil
	}
	hdrLen := m.dev.HdrLen()
	if full, wild, ok := steerKeys(hdrLen, frame); ok {
		if bd := m.steer[full]; bd != nil {
			return bd
		}
		if bd := m.steer[wild]; bd != nil {
			return bd
		}
	}
	et, ok := link.TypeAt(frame, hdrLen)
	if !ok {
		return nil
	}
	return m.steer[steerKey{etherType: et}]
}

// deliverMatched accounts and completes a software demux hit. The packet
// was staged into kernel memory by the PIO copy, and moving it into the
// channel's shared region is a second, per-byte copy — the one receive cost
// that depends on the device: the AN1's hardware rings deliver with none.
func (m *Module) deliverMatched(bd *binding, b *pkt.Buf) {
	m.demuxMatched++
	if m.host.S.Bus.Enabled() {
		m.host.S.Bus.Emit(trace.Event{Kind: trace.DemuxHit, Node: m.dev.Name(),
			A: int64(bd.ch.id), B: int64(b.Len())})
	}
	m.copiedBytes += int64(b.Len())
	bd.ch.CopiedBytes += int64(b.Len())
	m.host.CPU.UseAsync(m.host.Cost.Copy(b.Len()), nil)
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
	bqi, err := m.allocBQI()
	if err != nil {
		return 0, err
	}
	m.reserved = append(m.reserved, bqiHold{bqi: bqi, holder: from})
	return bqi, nil
}

// bqiHold is one outstanding ring index reservation.
type bqiHold struct {
	bqi    uint16
	holder *kern.Domain
}

// unreserve ends bqi's reservation: the index was bound or given back.
func (m *Module) unreserve(bqi uint16) {
	for i, r := range m.reserved {
		if r.bqi == bqi {
			m.reserved = slices.Delete(m.reserved, i, i+1)
			return
		}
	}
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
		m.unreserve(bqi)
		m.freeBQI = append(m.freeBQI, bqi)
	}
	return nil
}

// ReleaseReservations gives back, in reservation order, every ring index
// holder reserved and neither bound to a channel nor released. A privileged
// domain that dies mid-handshake — a crashed registry shard — cannot release
// its own.
func (m *Module) ReleaseReservations(holder *kern.Domain) {
	kept := m.reserved[:0]
	for _, r := range m.reserved {
		if r.holder == holder {
			m.freeBQI = append(m.freeBQI, r.bqi)
		} else {
			kept = append(kept, r)
		}
	}
	clear(m.reserved[len(kept):])
	m.reserved = kept
}

// CreateChannel builds the shared region, ring, capability and demux
// binding for one endpoint. Only a privileged domain (the registry server)
// may call it: "initially, only the privileged registry server has access
// to the network module."
//
// spec describes the endpoint for input demultiplexing; tmpl constrains
// output. ringSize is the receive ring capacity in packets. A spec that is
// neither a full five-tuple nor a listener is refused, and so, where
// demultiplexing is in software, is one whose key another channel holds.
func (m *Module) CreateChannel(from *kern.Domain, spec filter.Spec, tmpl Template, ringSize int) (*Capability, *Channel, error) {
	return m.CreateChannelBQI(from, nil, spec, tmpl, ringSize, 0)
}

// CreateChannelBQI is CreateChannel for an endpoint issued to owner (nil for
// none), on a previously reserved BQI (0 for none). The capability is born
// whole: its owner and template are the ones it keeps.
func (m *Module) CreateChannelBQI(from, owner *kern.Domain, spec filter.Spec, tmpl Template, ringSize int, bqi uint16) (*Capability, *Channel, error) {
	if !from.Privileged {
		return nil, nil, fmt.Errorf("netio: channel creation from unprivileged domain %s", from)
	}
	key, ok := steerable(&spec)
	if !ok {
		return nil, nil, fmt.Errorf("netio: cannot demultiplex spec %+v", spec)
	}
	return m.createChannel(from, owner, key, tmpl, ringSize, bqi)
}

// CreateRawChannel builds a channel demultiplexed by EtherType alone, for
// link-level protocols (the Table 1 mechanism micro-benchmark "used two
// applications to exchange data ... without using any higher-level
// protocols"). One channel per EtherType.
func (m *Module) CreateRawChannel(from *kern.Domain, et link.EtherType, tmpl Template, ringSize int) (*Capability, *Channel, error) {
	if !from.Privileged {
		return nil, nil, fmt.Errorf("netio: raw channel creation from unprivileged domain %s", from)
	}
	return m.createChannel(from, nil, steerKey{etherType: et}, tmpl, ringSize, 0)
}

// createChannel installs the channel, with its binding in the endpoint table
// under key.
func (m *Module) createChannel(from, owner *kern.Domain, key steerKey, tmpl Template, ringSize int, reservedBQI uint16) (*Capability, *Channel, error) {
	if m.FailSetup != nil {
		if err := m.FailSetup("create"); err != nil {
			return nil, nil, err
		}
	}
	an1, hardware := m.dev.(*netdev.AN1)
	if m.steer[key] != nil {
		return nil, nil, fmt.Errorf("netio: demux key %+v already has a channel", key)
	}
	if ringSize <= 0 {
		ringSize = 32
	}
	rec := m.free.Get()
	if rec == nil {
		rec = new(chanRec)
	}
	rec.region.Wire(ringSize * descBytes)
	ch := &rec.ch
	ch.rec, ch.Region, ch.bell = rec, &rec.region, &m.unattached
	ch.cap = ringSize
	ch.mod = m
	ch.issuer = from
	cap := &Capability{id: m.nextCapID, template: tmpl, ch: ch, owner: owner}
	m.nextCapID++
	ch.id = cap.id
	m.caps[cap.id] = cap
	m.pinned++

	if hardware {
		// Hardware demultiplexing: install the ring under the reserved (or
		// a fresh) BQI.
		ch.bqi = reservedBQI
		if ch.bqi != 0 {
			m.unreserve(ch.bqi)
		} else {
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
				m.demuxMatched++
				if m.host.S.Bus.Enabled() {
					m.host.S.Bus.Emit(trace.Event{Kind: trace.DemuxHit, Node: m.dev.Name(),
						A: int64(ch.id), B: int64(b.Len())})
				}
				ch.deliver(b)
			}
		}
		an1.InstallRing(ch.bqi, &rec.ring, ringSize, rec.rx)
	}
	rec.bd = binding{ch: ch, key: key}
	m.steer[key] = &rec.bd
	ch.bd = &rec.bd
	m.bound[key.port()]++
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
	ringIdle := true
	if cap.ch.bqi != 0 {
		if an1, ok := m.dev.(*netdev.AN1); ok {
			ringIdle = an1.RemoveRing(cap.ch.bqi)
		}
		m.freeBQI = append(m.freeBQI, cap.ch.bqi)
	}
	delete(m.steer, cap.ch.bd.key)
	if pk := cap.ch.bd.key.port(); m.bound[pk] > 1 {
		m.bound[pk]--
	} else {
		delete(m.bound, pk)
	}
	cap.ch.bd = nil
	// Packets still queued in the ring die with the channel: nobody will
	// ever drain it again, so they must be returned to the pool here or
	// they leak (found by the pool leak report under the chaos scenarios).
	// The liens on the batch last handed out die the same way — a crashed
	// application's outstanding references must not keep pool storage
	// alive (no scrub: the owner is gone, not distrusting).
	ch := cap.ch
	ch.bell.unlink(ch)
	ch.dropQueued(false)
	ch.sweepInflight(false, "destroy")
	m.unpin(ch)
	if m.host.S.Bus.Enabled() {
		m.host.S.Bus.Emit(trace.Event{Kind: trace.CapRevoked, Node: m.dev.Name(), A: int64(cap.id)})
	}
	// The record is reused only once the module holds the last reference to
	// it: the consumer said it is gone (here, or later in Disown), no frame
	// is between arrival and interrupt in the ring, and the doorbell it rang
	// has let go of it. Every other destroyed channel — a crashed
	// application's, whose consumer was killed, a datagram or raw one, whose
	// consumer never says, one whose ring was busy — is the collector's.
	cap.ch = nil
	if !ringIdle {
		ch.rec = nil
	} else if ch.disowned {
		m.free.Put(ch.rec)
	}
	return nil
}

// IssuerGrace is how long a channel outlives its issuer's death before the
// module quarantines it (no delivery, sends rejected): a registry shard
// restarted within it re-adopts its endpoints before the data path notices.
const IssuerGrace = 3 * time.Second

// quarantined reports whether a channel's issuer has been dead for
// IssuerGrace. It is read lazily against the virtual clock: no event is
// scheduled.
func (m *Module) quarantined(ch *Channel) bool {
	is := ch.issuer
	return is.Dead() && time.Duration(m.host.S.Now()-is.DiedAt()) >= IssuerGrace
}

// Reissue reassigns a capability's issuer: the shard that adopts an
// endpoint (a restarted shard's rebuild, or a survivor covering a dead
// sibling) vouches for it from then on, which lifts a quarantine with the
// channel's state intact.
func (m *Module) Reissue(from *kern.Domain, cap *Capability) error {
	if !from.Privileged {
		return fmt.Errorf("netio: reissue from unprivileged domain %s", from)
	}
	if cap == nil || m.caps[cap.id] != cap {
		return ErrBadCapability
	}
	cap.ch.issuer = from
	return nil
}

// Endpoint returns the installed endpoint whose key tmpl's protocol and
// addresses spell (a listener's with the remote half zero), or nil.
func (m *Module) Endpoint(tmpl Template) *Capability {
	bd := m.steer[steerKey{proto: tmpl.Proto, localIP: tmpl.LocalIP, localPort: tmpl.LocalPort,
		remoteIP: tmpl.RemoteIP, remotePort: tmpl.RemotePort}]
	if bd == nil {
		return nil
	}
	return m.caps[bd.ch.id]
}

// PortHeld reports whether an installed endpoint of protocol proto is bound
// to local address ip and port.
func (m *Module) PortHeld(proto uint8, ip ipv4.Addr, port uint16) bool {
	return m.bound[steerKey{proto: proto, localIP: ip, localPort: port}] > 0
}

// Installed reports whether cap is a currently valid capability of this
// module (the registry checks the capability a request names with it).
func (m *Module) Installed(cap *Capability) bool {
	return cap != nil && m.caps[cap.id] == cap
}

// InstalledEndpoints enumerates every live capability, ordered by id
// (deterministic). The registry's recovery and crash sweeps walk these — the
// in-kernel module, not a server's memory, is the authoritative record of
// what exists; exactly the paper's trust split between the module and the
// registry.
func (m *Module) InstalledEndpoints(from *kern.Domain) ([]*Capability, error) {
	if !from.Privileged {
		return nil, fmt.Errorf("netio: endpoint enumeration from unprivileged domain %s", from)
	}
	caps := make([]*Capability, 0, len(m.caps))
	for _, id := range slices.Sorted(maps.Keys(m.caps)) {
		caps = append(caps, m.caps[id])
	}
	return caps, nil
}

// RevokeOwner reclaims every resource issued to a dead application: its
// capabilities are revoked, demux bindings and hardware rings removed, and
// shared regions unpinned. It returns the capabilities revoked, in id order.
// This is the network I/O module's half of crash-failure reclamation, and
// the registry's crash sweep: the module's records are the only ones there
// are, so a crash can never leak kernel resources.
func (m *Module) RevokeOwner(from *kern.Domain, owner *kern.Domain) ([]*Capability, error) {
	if !from.Privileged {
		return nil, fmt.Errorf("netio: owner revocation from unprivileged domain %s", from)
	}
	var revoked []*Capability
	// Capability-id order: on the AN1 the order decides which ring indices
	// the next set-ups reuse.
	for _, id := range slices.Sorted(maps.Keys(m.caps)) {
		if cap := m.caps[id]; cap.owner == owner && m.DestroyChannel(from, cap) == nil {
			revoked = append(revoked, cap)
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

// Describe emits the module's counters under their stats names: the
// aggregates, then for each live channel, by capability id, what its ring
// delivered, copied or dropped. Destroyed channels' contributions
// survive only in the aggregates.
func (m *Module) Describe(emit func(string, int64)) {
	emit("send_ok", int64(m.sendOK))
	emit("send_rejected", int64(m.sendRejected))
	emit("demux_matched", int64(m.demuxMatched))
	emit("demux_default", int64(m.demuxDefault))
	emit("rx_dropped", int64(m.rxDropped))
	emit("delivered", int64(m.deliveredTotal))
	emit("notifications", int64(m.notificationsTotal))
	emit("copied_bytes", m.copiedBytes)
	emit("ring_high_water", int64(m.ringHighWater))
	emit("quarantine_drops", int64(m.quarantineDrops))
	for _, id := range slices.Sorted(maps.Keys(m.caps)) {
		ch := m.caps[id].ch
		pfx := fmt.Sprintf("ch%d.", id)
		emit(pfx+"delivered", int64(ch.Delivered))
		emit(pfx+"copied_bytes", ch.CopiedBytes)
		emit(pfx+"dropped", int64(ch.Dropped))
		emit(pfx+"high_water", int64(ch.HighWater))
		emit(pfx+"notifications", int64(ch.Notifications))
	}
}

// SoftwareBindings counts the endpoint table's entries (diagnostics).
func (m *Module) SoftwareBindings() int { return len(m.steer) }

// Send is the library's specialized kernel entry for transmission: the
// calling thread pays the fast trap and the per-packet template check; a
// frame whose headers violate the template is rejected.
func (m *Module) Send(t *kern.Thread, cap *Capability, frame *pkt.Buf) error {
	c := t.Cost()
	t.FastTrap()
	if cap == nil || m.caps[cap.id] != cap {
		m.sendRejected++
		if m.host.S.Bus.Enabled() {
			var id int64
			if cap != nil {
				id = int64(cap.id)
			}
			m.host.S.Bus.Emit(trace.Event{Kind: trace.VerifyReject, Node: m.dev.Name(),
				A: id, Text: "bad-capability"})
		}
		return ErrBadCapability
	}
	if m.quarantined(cap.ch) {
		m.sendRejected++
		if m.host.S.Bus.Enabled() {
			m.host.S.Bus.Emit(trace.Event{Kind: trace.VerifyReject, Node: m.dev.Name(),
				A: int64(cap.id), Text: "quarantined"})
		}
		return ErrQuarantined
	}
	t.Compute(c.TemplateCheck)
	if !cap.template.Verify(frame.Bytes(), m.dev.HdrLen()) {
		m.sendRejected++
		if m.host.S.Bus.Enabled() {
			m.host.S.Bus.Emit(trace.Event{Kind: trace.VerifyReject, Node: m.dev.Name(),
				A: int64(cap.id), Text: "template-mismatch"})
		}
		return ErrTemplateMismatch
	}
	m.sendOK++
	m.dev.Transmit(t, frame)
	return nil
}

// SendKernel is the in-kernel transmit path used by the registry server and
// the monolithic stacks (no capability involved; caller is trusted).
func (m *Module) SendKernel(t *kern.Thread, frame *pkt.Buf) {
	m.dev.Transmit(t, frame)
}
