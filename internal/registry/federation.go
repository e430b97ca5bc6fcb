package registry

import (
	"fmt"

	"ulp/internal/chaos"
	"ulp/internal/ipv4"
	"ulp/internal/kern"
	"ulp/internal/link"
	"ulp/internal/netio"
	"ulp/internal/pkt"
	"ulp/internal/sim"
	"ulp/internal/stacks"
	"ulp/internal/tcp"
	"ulp/internal/trace"
)

// Federation is one host's registry: N registry servers (shards) sharing a
// single network interface, each owning a static contiguous slice of the
// ephemeral port space. N = 1 is the paper's registry — one trusted server
// per host, computing on the host CPU. N > 1 is the same code plus two
// policies: each shard is pinned to a CPU of its own (NewFederation), so
// connection setup work that a lone registry serializes on one CPU (~6.5 ms
// per setup) spreads across the shards; and requests and frames for a dead
// shard's tuples go to a live sibling (successor). Data-path frames never
// touch the federation at all.
//
// Ownership is static and derivable, which is what makes the control plane
// recoverable: a frame or control request for tuple (local, peer) belongs
// to the shard whose port slice contains local.Port (an active open that
// shard performed), else to FNV(local, peer) mod N (a passive open — every
// shard reads the host's one listener table, so any of them can run the
// handshake for the tuples it owns). Nothing about routing lives only in
// memory: the metaregistry index (Meta) is rebuilt from this rule at any
// time.
type Federation struct {
	s    *sim.Sim
	mod  *netio.Module
	host *kern.Host
	ip   ipv4.Addr
	nif  *stacks.Netif

	shards []*Server
	live   []bool
	names  []string        // per-shard domain and service-port name
	cpus   []*sim.Resource // per-shard pinned CPU; nil = the host CPU
	slices [][2]uint16     // per-shard ephemeral [lo,hi)

	// faults is the control-plane fault injector every incarnation of every
	// shard starts with; nil injects nothing.
	faults *chaos.Injector

	// Admission: bounded outstanding setups per application domain across
	// all shards. Serialized by the simulation scheduler, like everything
	// else on this host.
	quota       int
	outstanding map[*kern.Domain]int
	denied      int

	// listeners is the host's one listener table: a listen writes one
	// record, which every shard's input path reads and the crash of one
	// shard leaves in place.
	listeners map[uint16]*listener

	// calls is the host's one at-most-once table, as in Birrell and Nelson:
	// each caller's latest request (callerKey), whichever shard it reached,
	// so that a retry finds its call's entry on any shard.
	calls map[uint64]*call
	// watched marks the application domains whose one death hook is
	// installed (watch).
	watched map[*kern.Domain]bool
}

// DefaultAdmissionQuota bounds outstanding setups per application domain.
const DefaultAdmissionQuota = 64

// NewFederation boots a host's registry over its network I/O module, as n
// shards (fewer than two: the lone registry).
func NewFederation(s *sim.Sim, mod *netio.Module, ip ipv4.Addr, n int) *Federation {
	n = max(n, 1)
	f := &Federation{
		s:           s,
		mod:         mod,
		host:        mod.Device().Host(),
		ip:          ip,
		nif:         stacks.NewNetif(s, mod, ip),
		live:        make([]bool, n),
		names:       make([]string, n),
		cpus:        make([]*sim.Resource, n),
		quota:       DefaultAdmissionQuota,
		outstanding: make(map[*kern.Domain]int),
		listeners:   make(map[uint16]*listener),
		calls:       make(map[uint64]*call),
		watched:     make(map[*kern.Domain]bool),
	}
	// Partition the classic ephemeral window; SetEphemeralRange repartitions.
	lo, hi := tcp.NewPortAlloc().EphemeralRange()
	f.slices = partition(lo, hi, n)
	for i := 0; i < n; i++ {
		// Policy: a sharded control plane pins each shard to a core of its
		// own, so the shards' setups run in parallel; a lone registry is the
		// paper's server process, sharing the host CPU with everything else.
		f.names[i] = "registry"
		if n > 1 {
			f.names[i] = fmt.Sprintf("registry%d", i)
			f.cpus[i] = f.host.NewCPU(fmt.Sprintf("shard%d-cpu", i))
		}
		f.shards = append(f.shards, f.newShard(i, nil))
		f.live[i] = true
	}
	mod.SetDefaultHandler(f.steer)
	return f
}

// partition splits [lo,hi) into n contiguous slices.
func partition(lo, hi uint16, n int) [][2]uint16 {
	out := make([][2]uint16, n)
	span := int(hi-lo) / n
	for i := 0; i < n; i++ {
		slo := lo + uint16(i*span)
		shi := slo + uint16(span)
		if i == n-1 {
			shi = hi
		}
		out[i] = [2]uint16{slo, shi}
	}
	return out
}

// ---------------------------------------------------------------------------
// Ownership and frame steering
// ---------------------------------------------------------------------------

// endpointHash is the tuple hash behind passive-open ownership (FNV-1a).
func endpointHash(local, peer tcp.Endpoint) uint32 {
	h := uint32(2166136261)
	mix := func(b byte) {
		h ^= uint32(b)
		h *= 16777619
	}
	for _, b := range local.IP {
		mix(b)
	}
	mix(byte(local.Port >> 8))
	mix(byte(local.Port))
	for _, b := range peer.IP {
		mix(b)
	}
	mix(byte(peer.Port >> 8))
	mix(byte(peer.Port))
	return h
}

// ownerEndpoints returns the statically-owning shard index for a tuple:
// slice match on the local port (active opens), else tuple hash (passive
// opens on a listener's port).
func (f *Federation) ownerEndpoints(local, peer tcp.Endpoint) int {
	for i, sl := range f.slices {
		if local.Port >= sl[0] && local.Port < sl[1] {
			return i
		}
	}
	return int(endpointHash(local, peer) % uint32(len(f.shards)))
}

// successor returns the next live shard after i (scanning cyclically), or
// -1 when no shard is live.
func (f *Federation) successor(i int) int {
	n := len(f.shards)
	for d := 1; d <= n; d++ {
		j := (i + d) % n
		if f.live[j] {
			return j
		}
	}
	return -1
}

// cover returns the shard that stands for shard i: i itself while it is
// live, else the next live shard, or -1 when none is.
func (f *Federation) cover(i int) int {
	if f.live[i] {
		return i
	}
	return f.successor(i)
}

// steer is the module's default handler: classify the frame to its
// authoritative shard (successor when that shard is down) and deliver it to
// the shard's receive queue. A frame into an empty queue posts the shard's
// input thread the way a channel's doorbell posts its consumer, on the CPU
// the shard computes on: a kernel wakeup if the thread sleeps in its
// receive, a signal if it is still at work (a set-up's ChannelSetup or
// StateTransfer) and will pop the frame before it sleeps again.
func (f *Federation) steer(b *pkt.Buf) {
	i := f.classify(b.Bytes())
	if !f.live[i] {
		i = f.successor(i)
		if i < 0 {
			b.Release() // whole control plane down: frame dies
			return
		}
	}
	sh := f.shards[i]
	if sh.rxq.Len() == 0 {
		sh.dom.Notify(sh.rxq.Waiters() > 0)
	}
	sh.rxq.Push(b)
}

// classify peeks at the frame and returns its owning shard index. ARP,
// datagrams and anything unparseable go to shard 0; TCP goes to the
// tuple's static owner.
func (f *Federation) classify(frame []byte) int {
	hdrLen := f.mod.Device().HdrLen()
	if et, _ := link.TypeAt(frame, hdrLen); et != link.TypeIPv4 {
		return 0 // ARP and everything non-IP
	}
	d, ok := ipv4.Peek(frame[hdrLen:])
	if !ok || d.Proto != ipv4.ProtoTCP {
		return 0 // UDP and friends: shard 0 owns the datagram plane
	}
	local, peer := tcp.Endpoint{IP: d.Dst}, tcp.Endpoint{IP: d.Src}
	if d.Fragment() {
		// A later fragment carries no TCP header to peek at, so route the
		// whole datagram's fragments by the IP pair alone — they all land on
		// one shard's reassembler.
		return int(endpointHash(local, peer) % uint32(len(f.shards)))
	}
	src, dst, ok := ipv4.Ports(d.Body)
	if !ok {
		return 0
	}
	local.Port, peer.Port = dst, src
	return f.ownerEndpoints(local, peer)
}

// ---------------------------------------------------------------------------
// Admission
// ---------------------------------------------------------------------------

// admit charges one outstanding setup against owner's quota; false means
// the setup is refused (the library backs off and retries).
func (f *Federation) admit(owner *kern.Domain) bool {
	if f.outstanding[owner] >= f.quota {
		f.denied++
		return false
	}
	f.outstanding[owner]++
	return true
}

// release returns one outstanding-setup slot; an owner charged none (an
// inherited pcb has none) has none to return.
func (f *Federation) release(owner *kern.Domain) {
	if f.outstanding[owner]--; f.outstanding[owner] <= 0 {
		delete(f.outstanding, owner)
	}
}

// watch arranges for the registry to learn of an application domain's
// death: one hook per domain per host, however many requests it sends to
// however many shards. The hook runs in whatever context performed the kill,
// so it only posts one crash sweep to each shard's service port — a dead
// shard's queues it for the next incarnation, behind whatever the domain left
// there — and the sweeps run on the service threads.
func (f *Federation) watch(dom *kern.Domain) {
	if dom == nil || f.watched[dom] {
		return
	}
	f.watched[dom] = true
	dom.OnDeath(func() {
		delete(f.watched, dom)
		for _, sh := range f.shards {
			sh.Svc.SendAsync(sh.dom, kern.Msg{Op: "crash", Body: crashReq{dom: dom}})
		}
	})
}

// ---------------------------------------------------------------------------
// Shard lifecycle: crash, restart, migration support
// ---------------------------------------------------------------------------

// CrashShard kills one shard abruptly: its threads die at their next
// scheduling point, its receive queue is drained back to the pool, and the
// admission slots, listen backlog slots and reserved ring indices its
// in-flight setups held are returned (their owners get no reply; the
// library's RPC deadline surfaces the loss), as are the callers' entries of
// the requests it was running, so that a retry runs them afresh. Frames and
// requests for the dead shard's tuples steer to the successor — with no live
// sibling, default-path frames are discarded, as the kernel does for a dead
// domain, requests queue at the service port for the next incarnation, and
// the listeners and the callers' entries are lost with the last shard.
// The endpoints the dead shard issued quarantine netio.IssuerGrace after the
// kill. At that instant the shard that covers it, if the dead one is not back
// and any shard is live, is told to adopt them (adoptReq).
func (f *Federation) CrashShard(i int) {
	if !f.live[i] {
		return
	}
	f.live[i] = false
	sh := f.shards[i]
	for _, hc := range sh.conns {
		if hc.l == nil { // as in Server.release: only active set-ups hold one
			f.release(hc.owner)
		} else {
			hc.l.pending--
		}
	}
	for key, e := range f.calls {
		if !e.done && e.r == sh {
			delete(f.calls, key)
		}
	}
	if f.successor(i) < 0 {
		clear(f.listeners)
		clear(f.calls)
	}
	f.mod.ReleaseReservations(sh.dom)
	sh.dom.Kill()
	for {
		b, ok := sh.rxq.TryPop()
		if !ok {
			break
		}
		b.Release()
	}
	if sh.host.S.Bus.Enabled() {
		sh.host.S.Bus.Emit(trace.Event{Kind: trace.RegistryRPC, Node: sh.host.Name,
			Text: "shard-crash", A: int64(i)})
	}
	f.s.After(sim.Dur(netio.IssuerGrace), func() {
		if j := f.cover(i); f.shards[i] == sh && j >= 0 {
			cov := f.shards[j]
			cov.Svc.SendAsync(cov.dom, kern.Msg{Op: "adopt", Body: adoptReq{}})
		}
	})
}

// RestartShard boots a fresh incarnation of a crashed shard. The service
// port is reused (libraries hold send rights), and the shard re-issues the
// endpoints of the slices it covers, taking them from whichever shard issued
// them last. It reads the host's listener and caller tables as every shard
// does, and the host's death hooks post its crash sweeps.
func (f *Federation) RestartShard(i int) {
	if f.live[i] {
		return
	}
	f.shards[i] = f.newShard(i, f.shards[i])
	f.live[i] = true
}

// ---------------------------------------------------------------------------
// Configuration forwarding and introspection
// ---------------------------------------------------------------------------

// Netif exposes the shared interface wiring.
func (f *Federation) Netif() *stacks.Netif { return f.nif }

// Outstanding counts the admission slots currently charged; with a non-nil
// owner, only those charged to that domain. Leak audits assert it reaches
// zero.
func (f *Federation) Outstanding(owner *kern.Domain) int {
	if owner != nil {
		return f.outstanding[owner]
	}
	n := 0
	for _, held := range f.outstanding {
		n += held
	}
	return n
}

// SetControlFaults installs a chaos injector for control-plane faults
// (dropped or delayed service requests) on every shard. A nil injector is
// the fault-free fast path.
func (f *Federation) SetControlFaults(inj *chaos.Injector) {
	f.faults = inj
	for _, sh := range f.shards {
		sh.faults = inj
	}
}

// SetEphemeralRange widens (or moves) the TCP ephemeral port range — many-host
// churn worlds need more than the classic [1024,5000) window — and
// repartitions it into per-shard contiguous slices. Must be called before
// any traffic (ownership is derived from the slices).
func (f *Federation) SetEphemeralRange(lo, hi uint16) {
	f.slices = partition(lo, hi, len(f.shards))
	for i, sh := range f.shards {
		sh.ports = f.portAlloc(i)
	}
}

// portAlloc returns shard i's port allocator, which passes over a port a
// listener or the module holds: a handed-off connection's port is held by
// its endpoint for as long as the endpoint is installed.
func (f *Federation) portAlloc(i int) *tcp.PortAlloc {
	a := tcp.NewPortAllocRange(f.slices[i][0], f.slices[i][1])
	a.Held = f.held
	return a
}

// held reports whether a listener or an installed TCP endpoint holds port p.
func (f *Federation) held(p uint16) bool {
	return f.listeners[p] != nil || f.mod.PortHeld(ipv4.ProtoTCP, f.ip, p)
}

// portTaken reports whether port p is held anywhere on the host: by a
// listener, an endpoint, or a live shard's set-ups and inherited pcbs.
func (f *Federation) portTaken(p uint16) bool {
	for i, sh := range f.shards {
		if f.live[i] && sh.ports.Holds(p) {
			return true
		}
	}
	return f.held(p)
}

// sumLive totals a per-shard count over the live shards (a dead shard's
// tables died with it).
func (f *Federation) sumLive(count func(*Server) int) int {
	n := 0
	for i, sh := range f.shards {
		if f.live[i] {
			n += count(sh)
		}
	}
	return n
}

// PortsInUse sums allocated ports across live shards, a listener's once.
func (f *Federation) PortsInUse() int { return f.sumLive((*Server).PortsInUse) + len(f.listeners) }

// OwnedConns sums registry-owned pcbs across live shards.
func (f *Federation) OwnedConns() int { return f.sumLive((*Server).OwnedConns) }

// TransferredConns sums handed-off connections across live shards.
func (f *Federation) TransferredConns() int { return f.sumLive((*Server).TransferredConns) }

// ListenerCount returns the host's registered passive endpoints.
func (f *Federation) ListenerCount() int { return len(f.listeners) }

// Describe emits the registry's counters under their stats names: the shard
// count, totals (the tables over the live shards, the event counts over every
// shard's current incarnation), then each shard's incarnation counters, which
// restart with it.
func (f *Federation) Describe(emit func(string, int64)) {
	emit("shards", int64(len(f.shards)))
	emit("ports_in_use", int64(f.PortsInUse()))
	emit("owned_conns", int64(f.OwnedConns()))
	emit("transferred", int64(f.TransferredConns()))
	emit("listeners", int64(f.ListenerCount()))
	dedupHits := 0
	for _, sh := range f.shards {
		dedupHits += sh.dedupHits
	}
	emit("dedup_hits", int64(dedupHits))
	emit("admission_denied", int64(f.denied))
	for i, sh := range f.shards {
		pfx := fmt.Sprintf("shard%d.", i)
		live := int64(0)
		if f.live[i] {
			live = 1
		}
		emit(pfx+"live", live)
		emit(pfx+"epoch", int64(sh.epoch))
		emit(pfx+"syn_dropped", int64(sh.synDrops))
		emit(pfx+"rebuilt_endpoints", int64(sh.rebuilt))
	}
}

// ---------------------------------------------------------------------------
// Metaregistry
// ---------------------------------------------------------------------------

// Meta is the metaregistry: the thin routing index libraries consult to
// reach the authoritative shard. It holds no connection state — just the
// shard service ports, with ownership and liveness read through to the
// federation — so it can be discarded and rebuilt at any time (Rebuild does
// exactly that, and is all a metaregistry restart is).
type Meta struct {
	fed *Federation
	svc []*kern.Port
}

// Meta builds (or rebuilds — it is stateless) the routing index.
func (f *Federation) Meta() *Meta {
	m := &Meta{fed: f}
	m.Rebuild()
	return m
}

// Rebuild reconstructs the index from the federation. Service ports survive
// shard restarts (the new incarnation reuses them), so a rebuilt index is
// valid across any crash/restart history.
func (m *Meta) Rebuild() {
	m.svc = m.svc[:0]
	for _, sh := range m.fed.shards {
		m.svc = append(m.svc, sh.Svc)
	}
}

// Svc returns the service port (stable across restarts) of shard i, or while
// it is down of the next live shard (cross-shard migration); with every
// shard down it stays on i's, which queues a request for the next
// incarnation while the RPC deadline runs.
func (m *Meta) Svc(i int) *kern.Port {
	if s := m.fed.cover(i); s >= 0 {
		i = s
	}
	return m.svc[i]
}

// Route picks the shard for the seq-th connect: round-robin over the shards.
func (m *Meta) Route(seq uint64) int { return int(seq % uint64(len(m.svc))) }

// Owner returns the shard that statically owns a tuple.
func (m *Meta) Owner(local, peer tcp.Endpoint) int { return m.fed.ownerEndpoints(local, peer) }
