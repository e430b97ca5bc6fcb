package registry

import (
	"fmt"
	"sort"

	"ulp/internal/chaos"
	"ulp/internal/ipv4"
	"ulp/internal/kern"
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
// per host, computing on the host CPU. N > 1 is the same code plus three
// policies: each shard is pinned to a CPU of its own (NewFederation), so
// connection setup work that a lone registry serializes on one CPU (~6.5 ms
// per setup) spreads across the shards; the libraries coalesce their
// requests into batches (core.NewLibrary); and requests and frames for a
// dead shard's tuples go to a live sibling (successor). Data-path frames
// never touch the federation at all.
//
// Ownership is static and derivable, which is what makes the control plane
// recoverable: a frame or control request for tuple (local, peer) belongs
// to the shard whose port slice contains local.Port (an active open that
// shard performed), else to FNV(local, peer) mod N (a passive open —
// listeners are replicated to every shard so any of them can run the
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

	// faults is the control-plane fault injector and bus the trace bus every
	// incarnation of every shard starts with; nil injects and records nothing.
	faults *chaos.Injector
	bus    *trace.Bus

	// Admission: bounded outstanding setups per application domain across
	// all shards. Serialized by the simulation scheduler, like everything
	// else on this host.
	quota       int
	outstanding map[*kern.Domain]int
	denied      int
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
	}
	// Partition the classic ephemeral window; SetEphemeralRange repartitions.
	lo, hi := tcp.NewPortAlloc().EphemeralRange()
	f.slices = partition(lo, hi, n)
	mod.EnableLeases(LeaseTTL)
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
// opens on a replicated listener port).
func (f *Federation) ownerEndpoints(local, peer tcp.Endpoint) int {
	for i, sl := range f.slices {
		if local.Port >= sl[0] && local.Port < sl[1] {
			return i
		}
	}
	return int(endpointHash(local, peer) % uint32(len(f.shards)))
}

// authoritative reports whether r is the current incarnation of the shard
// that statically owns the tuple.
func (f *Federation) authoritative(r *Server, local, peer tcp.Endpoint) bool {
	return f.shards[f.ownerEndpoints(local, peer)] == r
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

// steer is the module's default handler: classify the frame to its
// authoritative shard (successor when that shard is down) and deliver it to
// the shard's receive queue, charging the wakeup to the CPU the shard
// computes on.
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
		sh.dom.ComputeAsync(sh.host.Cost.KernelWakeup, nil)
	}
	sh.rxq.Push(b)
}

// classify peeks at the frame and returns its owning shard index. ARP,
// datagrams and anything unparseable go to shard 0; TCP goes to the
// tuple's static owner.
func (f *Federation) classify(frame []byte) int {
	hdrLen := f.mod.Device().HdrLen()
	if len(frame) < hdrLen {
		return 0
	}
	if uint16(frame[hdrLen-2])<<8|uint16(frame[hdrLen-1]) != 0x0800 {
		return 0 // ARP and everything non-IP
	}
	ip := frame[hdrLen:]
	if len(ip) < ipv4.HeaderLen || ip[0]>>4 != 4 {
		return 0
	}
	if ip[9] != ipv4.ProtoTCP {
		return 0 // UDP and friends: shard 0 owns the datagram plane
	}
	if (uint16(ip[6])<<8|uint16(ip[7]))&0x3fff != 0 {
		// Any fragment (MF set or nonzero offset): a later fragment carries
		// no TCP header to peek at, so route the whole datagram's fragments
		// by the IP pair alone — they all land on one shard's reassembler.
		local := tcp.Endpoint{IP: ipv4.Addr(ip[16:20])}
		peer := tcp.Endpoint{IP: ipv4.Addr(ip[12:16])}
		return int(endpointHash(local, peer) % uint32(len(f.shards)))
	}
	ihl := int(ip[0]&0x0f) * 4
	if ihl < ipv4.HeaderLen || len(ip) < ihl+4 {
		return 0
	}
	local := tcp.Endpoint{IP: ipv4.Addr(ip[16:20]),
		Port: uint16(ip[ihl+2])<<8 | uint16(ip[ihl+3])}
	peer := tcp.Endpoint{IP: ipv4.Addr(ip[12:16]),
		Port: uint16(ip[ihl])<<8 | uint16(ip[ihl+1])}
	return f.ownerEndpoints(local, peer)
}

// ---------------------------------------------------------------------------
// Admission
// ---------------------------------------------------------------------------

// admit charges one outstanding setup against owner's quota; false means
// the setup is refused (the library backs off and retries).
func (f *Federation) admit(owner *kern.Domain) bool {
	if owner == nil {
		return true // trusted callers and tests opt out of tracking
	}
	if f.outstanding[owner] >= f.quota {
		f.denied++
		return false
	}
	f.outstanding[owner]++
	return true
}

// release returns one outstanding-setup slot.
func (f *Federation) release(owner *kern.Domain) {
	if owner == nil {
		return
	}
	if n := f.outstanding[owner]; n > 1 {
		f.outstanding[owner] = n - 1
	} else if n == 1 {
		delete(f.outstanding, owner)
	}
}

// ---------------------------------------------------------------------------
// Shard lifecycle: crash, restart, migration support
// ---------------------------------------------------------------------------

// CrashShard kills one shard abruptly: its threads die at their next
// scheduling point, its receive queue is drained back to the pool, and the
// admission slots its in-flight setups held are returned (their owners get
// no reply; the library's RPC deadline surfaces the loss). Frames and
// requests for the dead shard's tuples steer to the successor — with no live
// sibling, default-path frames are discarded, as the kernel does for a dead
// domain, and requests queue at the service port for the next incarnation.
// Leases the dead shard issued stop being renewed, so its handed-off
// endpoints quarantine at the TTL and their libraries migrate to a survivor
// or re-register once the shard is back.
func (f *Federation) CrashShard(i int) {
	if !f.live[i] {
		return
	}
	f.live[i] = false
	sh := f.shards[i]
	for _, hc := range sh.conns {
		sh.releaseAdmit(hc)
	}
	sh.dom.Kill()
	for {
		b, ok := sh.rxq.TryPop()
		if !ok {
			break
		}
		b.Release()
	}
	if sh.bus.Enabled() {
		sh.bus.Emit(trace.Event{Kind: trace.RegistryRPC, Node: sh.host.Name,
			Text: "shard-crash", A: int64(i)})
	}
}

// RestartShard boots a fresh incarnation of a crashed shard. The service
// port is reused (libraries hold send rights), the shard rebuilds its
// statically-owned endpoints from the module's installed templates and
// re-issues their leases, and any survivor that adopted those endpoints
// during the outage drops its foreign records.
func (f *Federation) RestartShard(i int) {
	if f.live[i] {
		return
	}
	f.shards[i] = f.newShard(i, f.shards[i])
	f.live[i] = true
	f.dropForeign(i)
	f.replicateListeners(i)
}

// replicateListeners copies the listener set from a live sibling onto the
// restarted shard. Listeners are replicated to every shard (a passive
// tuple's handshake runs wherever its hash lands), so the sibling's set is
// authoritative; without this, SYNs hashed to the reborn shard would be
// reset until the application re-listened.
func (f *Federation) replicateListeners(restarted int) {
	src := f.successor(restarted)
	if src < 0 || src == restarted {
		return
	}
	nsh, from := f.shards[restarted], f.shards[src]
	ports := make([]int, 0, len(from.listeners))
	for port := range from.listeners {
		ports = append(ports, int(port))
	}
	sort.Ints(ports) // deterministic replication order
	for _, p := range ports {
		port := uint16(p)
		ln := from.listeners[port]
		if _, ok := nsh.listeners[port]; ok {
			continue
		}
		if !nsh.ports.Reserve(port) {
			nsh.ports.Retain(port)
		}
		nsh.listeners[port] = &listener{port: ln.port, opts: ln.opts,
			accept: ln.accept, owner: ln.owner, backlog: ln.backlog}
		nsh.watch(ln.owner)
	}
}

// dropForeign removes, from every other live shard, transferred-connection
// records whose tuples statically belong to the restarted shard — the
// survivor adopted them during the outage, and keeping both records would
// double-release the port when the connection eventually tears down.
func (f *Federation) dropForeign(restarted int) {
	for j, sh := range f.shards {
		if j == restarted || !f.live[j] {
			continue
		}
		for ft := range sh.transferred {
			if f.ownerEndpoints(ft.Local, ft.Peer) == restarted {
				delete(sh.transferred, ft)
				sh.ports.Release(ft.Local.Port)
			}
		}
	}
}

// ---------------------------------------------------------------------------
// Configuration forwarding and introspection
// ---------------------------------------------------------------------------

// Shards returns the shard count.
func (f *Federation) Shards() int { return len(f.shards) }

// Shard returns shard i's current incarnation.
func (f *Federation) Shard(i int) *Server { return f.shards[i] }

// Live reports whether shard i is up.
func (f *Federation) Live(i int) bool { return f.live[i] }

// Netif exposes the shared interface wiring.
func (f *Federation) Netif() *stacks.Netif { return f.nif }

// AdmissionDenied returns how many setups the quota layer refused.
func (f *Federation) AdmissionDenied() int { return f.denied }

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

// SetTrace attaches the trace bus to every shard. Connections created
// afterwards inherit it; the libraries query it via Bus when adopting
// handed-off engines.
func (f *Federation) SetTrace(b *trace.Bus) {
	f.bus = b
	for _, sh := range f.shards {
		sh.bus = b
	}
}

// Bus returns the attached trace bus (nil when tracing is off).
func (f *Federation) Bus() *trace.Bus { return f.bus }

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
		sh.ports = tcp.NewPortAllocRange(f.slices[i][0], f.slices[i][1])
	}
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

// PortsInUse sums allocated ports across live shards.
func (f *Federation) PortsInUse() int { return f.sumLive((*Server).PortsInUse) }

// OwnedConns sums registry-owned pcbs across live shards.
func (f *Federation) OwnedConns() int { return f.sumLive((*Server).OwnedConns) }

// TransferredConns sums handed-off connections across live shards.
func (f *Federation) TransferredConns() int { return f.sumLive((*Server).TransferredConns) }

// ListenerCount sums registered passive endpoints across live shards: a
// replicated listener counts once per shard holding it.
func (f *Federation) ListenerCount() int { return f.sumLive((*Server).ListenerCount) }

// DedupHits sums dedup-cache hits across shards.
func (f *Federation) DedupHits() int {
	n := 0
	for _, sh := range f.shards {
		n += sh.DedupHits()
	}
	return n
}

// ReRegistered sums migrated/re-adopted connections across shards.
func (f *Federation) ReRegistered() int {
	n := 0
	for _, sh := range f.shards {
		n += sh.ReRegistered()
	}
	return n
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

// Shards returns the shard count.
func (m *Meta) Shards() int { return len(m.svc) }

// Svc returns shard i's service port (stable across restarts).
func (m *Meta) Svc(i int) *kern.Port { return m.svc[i] }

// failover returns shard i, or while it is down the next live shard; with
// every shard down it stays on i, whose port queues the request for the
// next incarnation while the RPC deadline runs.
func (m *Meta) failover(i int) int {
	if !m.fed.live[i] {
		if s := m.fed.successor(i); s >= 0 {
			return s
		}
	}
	return i
}

// Covered reports whether shard i is down while a live sibling stands in
// for it. Requests replicated to every shard skip a covered one (its next
// incarnation copies the state from a survivor); with no survivor they go
// to the dead shard's port all the same — which is all a lone registry's
// crash can mean.
func (m *Meta) Covered(i int) bool { return m.failover(i) != i }

// Route picks the shard for the seq-th connect: round-robin over the
// shards, advanced past dead ones.
func (m *Meta) Route(seq uint64) int {
	return m.failover(int(seq % uint64(len(m.svc))))
}

// OwnerOrSuccessor routes to the shard that statically owns a tuple, falling
// over to the next live shard while the owner is down (cross-shard
// migration).
func (m *Meta) OwnerOrSuccessor(local, peer tcp.Endpoint) int {
	return m.failover(m.fed.ownerEndpoints(local, peer))
}
