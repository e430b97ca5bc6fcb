// Package ctl is the control-plane vocabulary a protocol library and its
// host's registry share (paper §3.4): the requests a library sends to a
// registry shard's service port, the replies and hand-offs it gets back, and
// the two rules both sides read to reach a shard — which shard owns a tuple
// (Shards.Owner), and which stands for a shard that is down (Shards.Cover).
// The library is built against this package and the kernel alone, never
// against the registry's implementation: like the paper's untrusted library,
// it reaches the trusted server only through the kernel's ports.
package ctl

import (
	"encoding/binary"

	"ulp/internal/freelist"
	"ulp/internal/ipv4"
	"ulp/internal/kern"
	"ulp/internal/link"
	"ulp/internal/netio"
	"ulp/internal/pkt"
	"ulp/internal/stacks"
	"ulp/internal/tcp"
)

// Answered is a request the registry replies to, and admits only as a call:
// a nonzero id, a reply port and a slot below CallSlots; anything else is
// refused unanswered. Only such a request completes its caller's entry. A
// request type is one by declaring so, next to its definition, so no list of
// them can leave a new one out.
type Answered interface{ answered() }

// ConnectReq asks the registry to actively open a connection for the
// request's sender (kern.Msg.From). It is answered with a *Handoff.
type ConnectReq struct {
	Remote tcp.Endpoint
	Opts   stacks.Options
}

// ListenReq asks the registry to listen on a port for the request's sender;
// established connections are handed off through AcceptPort. The answer is
// an error, nil once the listener is recorded.
type ListenReq struct {
	Port       uint16
	Opts       stacks.Options
	AcceptPort *kern.Port
}

// UnlistenReq stops the sender's listener on Port; the answer carries nothing.
type UnlistenReq struct{ Port uint16 }

// BindUDPReq asks the registry to allocate a datagram end-point for the
// request's sender, as ConnectReq does a connection: a UDPHandoff answers.
type BindUDPReq struct{ Port uint16 }

// ResolveReq asks the registry to resolve a peer's link address (the
// address-binding phase of an RPC system): a ResolveReply answers.
type ResolveReq struct{ IP ipv4.Addr }

// UDPSendReq relays one datagram through the registry (the un-optimized
// pre-binding path a dedicated-server organization would use for every
// datagram; the RPC ablation measures what bypassing it saves). The answer
// is an error, nil once the frame is sent.
type UDPSendReq struct {
	Cap   *netio.Capability // the sender's datagram end-point
	Frame *pkt.Buf          // complete link frame, built by the library
}

func (ConnectReq) answered()  {}
func (ListenReq) answered()   {}
func (UnlistenReq) answered() {}
func (BindUDPReq) answered()  {}
func (ResolveReq) answered()  {}
func (UDPSendReq) answered()  {}

// TeardownReq reclaims a handed-off endpoint's resources: a connection's
// after the library has driven it to CLOSED ("resources allocated to the
// application and registered with the network I/O module are now
// reclaimed"), or a datagram binding's when it closes. The capability names
// the endpoint: its template holds the tuple.
type TeardownReq struct{ Cap *netio.Capability }

// AbandonReq withdraws the sender's connect request ID on call slot Slot,
// whose answer it stopped waiting for: the set-up is aborted, or the
// connection it already handed off to nobody is reset and reclaimed.
type AbandonReq struct{ Slot, ID uint32 }

// InheritReq returns a connection to the registry when its application
// exits: the registry drives remaining timers (TIME_WAIT) or, for an
// abnormal exit, resets the peer. A revoked capability, another domain's, or
// a snapshot of another four-tuple than the capability's, is refused.
type InheritReq struct {
	Snap  tcp.Snapshot
	Cap   *netio.Capability
	Abort bool
}

// CallSlots bounds what one sender can make its host's registry hold: a call
// takes a slot below it for its length, each slot has one entry on the host,
// and a set-up runs only under its call's live entry, so a sender holds at
// most CallSlots entries and CallSlots set-ups however it misbehaves.
const CallSlots = 64

// Handoff carries an established connection to a library: the TCP state,
// the capability for the data path (its channel, and in its template the
// peer's link address) and the peer's buffer queue index for outbound
// framing. The record is lent (DESIGN §5.5) from its shard's list (Lend);
// each message that carries it and a connect's dedup entry hold it (Hold),
// and a receiver gives its hold back with Done once it has read it.
type Handoff struct {
	Snap    tcp.Snapshot
	Cap     *netio.Capability
	PeerBQI uint16
	Err     error

	list  *freelist.List[*Handoff] // the list the record goes back to
	holds int
}

// Lend returns a record from list, or a new one, carrying ho and held by
// nobody yet.
func Lend(list *freelist.List[*Handoff], ho Handoff) *Handoff {
	rec := list.Get()
	if rec == nil {
		rec = new(Handoff)
	}
	*rec = ho
	rec.list = list
	return rec
}

// Done gives back one hold on the record; the last returns it to its list,
// and a Done past the last panics.
func (ho *Handoff) Done() {
	ho.holds--
	switch {
	case ho.holds == 0:
		ho.list.Put(ho)
	case ho.holds < 0:
		panic("ctl: hand-off given back more often than it was held")
	}
}

// Scrub leaves the record with nothing but its list.
func (ho *Handoff) Scrub() { *ho = Handoff{list: ho.list} }

// Hold and Drop count a holder of the hand-off record m carries, if any.
func Hold(m kern.Msg) {
	if ho, ok := m.Body.(*Handoff); ok {
		ho.holds++
	}
}

func Drop(m kern.Msg) {
	if ho, ok := m.Body.(*Handoff); ok {
		ho.Done()
	}
}

// UDPHandoff conveys the datagram end-point's capability, and so its channel.
type UDPHandoff struct {
	Cap *netio.Capability
	Err error
}

// ResolveReply carries the resolution result.
type ResolveReply struct {
	HW  link.Addr
	Err error
}

// Shards is a host's registry as a caller reaches it: each shard's service
// port and the ephemeral port slice whose active opens it owns, in shard
// order. The registry boots it and each library copies it. A shard's
// liveness is the kernel's, its service port's (kern.Port.Dead).
type Shards struct {
	Svc    []*kern.Port
	Slices [][2]uint16
}

// Cover returns the shard that stands for shard i: i while its service port
// is live, else the next live shard (scanning cyclically), or -1 when none
// is. Library routing, frame steering and adoption all read it.
func (s Shards) Cover(i int) int {
	n := len(s.Svc)
	for d := range n {
		if j := (i + d) % n; !s.Svc[j].Dead() {
			return j
		}
	}
	return -1
}

// Owner returns the shard that statically owns a tuple: the one whose slice
// holds the local port (an active open it performed), else the tuple's hash
// (a passive open on a listener's port, which every shard can answer).
func (s Shards) Owner(local, peer tcp.Endpoint) int {
	for i, sl := range s.Slices {
		if local.Port >= sl[0] && local.Port < sl[1] {
			return i
		}
	}
	return s.Spread(local, peer)
}

// Spread returns the shard a tuple's hash selects (FNV-1a).
func (s Shards) Spread(local, peer tcp.Endpoint) int {
	var k [12]byte
	copy(k[:], local.IP[:])
	binary.BigEndian.PutUint16(k[4:], local.Port)
	copy(k[6:], peer.IP[:])
	binary.BigEndian.PutUint16(k[10:], peer.Port)
	h := uint32(2166136261)
	for _, b := range k {
		h = (h ^ uint32(b)) * 16777619
	}
	return int(h % uint32(len(s.Slices)))
}
