// Package registry implements the registry server of the user-level
// library organization (paper §3.4): a trusted, privileged process that
//
//   - allocates and deallocates connection end-points (TCP ports), since
//     "having untrusted user libraries allocate these names is a security
//     and administrative concern";
//   - executes the TCP three-way handshake on the application's behalf,
//     exchanging buffer queue indexes through the AN1 link header so the
//     data phase can use hardware demultiplexing;
//   - collaborates with the network I/O module to create the shared-memory
//     channel, send capability, and header template, then transfers the
//     established connection's TCP state to the library;
//   - inherits connections when an application exits, holding them through
//     the protocol-specified quiet period, and "issues a reset message to
//     the remote peer" on abnormal termination.
//
// The registry reaches the network through the module's protected kernel
// path rather than a shared-memory channel ("the registry server does not
// access the network device using shared memory, but instead uses standard
// Mach IPCs"), which is deliberately slower — connection setup cost is paid
// once and amortized over the data transfers that bypass the server.
package registry

import (
	"time"

	"ulp/internal/chaos"
	"ulp/internal/filter"
	"ulp/internal/freelist"
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

// ConnectReq asks the registry to actively open a connection. Owner names
// the application domain the connection is for, so the registry can
// reclaim its resources if the application crashes; a nil Owner opts out
// of crash tracking (trusted callers, tests).
type ConnectReq struct {
	Remote tcp.Endpoint
	Opts   stacks.Options
	Owner  *kern.Domain
}

// ListenReq asks the registry to listen on a port; established connections
// are handed off through AcceptPort.
type ListenReq struct {
	Port       uint16
	Opts       stacks.Options
	AcceptPort *kern.Port
	Owner      *kern.Domain
}

// UnlistenReq stops listening.
type UnlistenReq struct{ Port uint16 }

// TeardownReq reclaims a handed-off connection's resources after the
// library has driven it to CLOSED ("resources allocated to the application
// and registered with the network I/O module are now reclaimed").
type TeardownReq struct {
	Local, Peer tcp.Endpoint
	Cap         *netio.Capability
}

// Handoff carries an established connection to a library: the TCP state,
// the channel and capability for the data path, and the peer's link
// address and buffer queue index for outbound framing.
type Handoff struct {
	Snap    tcp.Snapshot
	Cap     *netio.Capability
	Channel *netio.Channel
	PeerHW  link.Addr
	PeerBQI uint16
	Err     error
}

// InheritReq returns a connection to the registry when its application
// exits: the registry drives remaining timers (TIME_WAIT) or, for an
// abnormal exit, resets the peer.
type InheritReq struct {
	Snap    tcp.Snapshot
	Cap     *netio.Capability
	Abort   bool
	PeerHW  link.Addr
	PeerBQI uint16
}

// ReRegisterReq re-claims a live, handed-off connection with a reborn
// registry. The registry verifies the claim against the module's installed
// capability and template before re-adopting — the library is untrusted,
// the kernel's record is the ground truth.
type ReRegisterReq struct {
	Local, Peer    tcp.Endpoint
	Cap            *netio.Capability
	PeerHW         link.Addr
	PeerBQI        uint16
	SndNxt, RcvNxt tcp.Seq
	Owner          *kern.Domain
}

// hsConn is a connection the registry currently owns: handshaking,
// inherited, or awaiting teardown. The pcb and its wheel entry are part of
// the record, which the shard reuses (DESIGN §5.5): drop retires it when the
// registry stops owning the connection, and the engine pass that did so puts
// it on Server.free once it has unwound.
type hsConn struct {
	r    *Server         // the shard the record belongs to
	tc   tcp.Conn        // the pcb
	went stacks.WheelEnt // its timing-wheel registration
	// cb holds the engine callbacks, bound to the record once.
	cb tcp.Callbacks
	// gen counts the record's retirements: a thread that waited for the
	// engine lock with a record in hand checks that it is still the
	// connection it meant (runConn).
	gen uint32

	opts    stacks.Options
	owner   *kern.Domain // application the connection is destined for
	peerHW  link.Addr
	peerBQI uint16 // peer's advertised data-phase BQI
	ourCh   *netio.Channel
	ourCap  *netio.Capability
	ourBQI  uint16     // reserved before the handshake on the AN1
	reply   *kern.Port // where to deliver the handoff
	l       *listener  // set for passive-side pcbs
	reqID   uint64     // originating request id (dedup cache completion)
	// inBacklog marks a passive pcb counted against its listener's
	// backlog, so exactly one decrement happens on handoff or failure.
	inBacklog bool
	// admitted marks a setup counted against its owner's admission quota,
	// so exactly one release happens on every exit path.
	admitted bool
}

// Scrub leaves a closed pcb with no callbacks, a dropped wheel entry and no
// connection state; the socket buffers' arrays, the bound callbacks and the
// retirement count stay.
func (hc *hsConn) Scrub() {
	hc.tc.Scrub()
	hc.went.Scrub()
	*hc = hsConn{r: hc.r, tc: hc.tc, went: hc.went, cb: hc.cb, gen: hc.gen}
}

// listener is a registered passive endpoint.
type listener struct {
	port    uint16
	opts    stacks.Options
	accept  *kern.Port
	owner   *kern.Domain
	backlog int // max concurrent handshakes
	pending int // handshakes currently held
}

// xferConn records a connection handed off to a library: enough state to
// reclaim it if the owning application crashes — the channel and
// capability to revoke, the port to release, and the sequence numbers at
// handoff time for crafting a best-effort reset to the peer.
type xferConn struct {
	owner          *kern.Domain
	cap            *netio.Capability // cap.Chan() is the channel, nil once revoked
	local, peer    tcp.Endpoint
	peerHW         link.Addr
	peerBQI        uint16
	sndNxt, rcvNxt tcp.Seq
}

// udpBinding records a datagram end-point for the same purpose.
type udpBinding struct {
	owner *kern.Domain
	ch    *netio.Channel
	cap   *netio.Capability
}

// Server is one shard of a host's registry (see Federation; the paper's
// single registry is the only shard of a one-shard federation).
type Server struct {
	host *kern.Host
	dom  *kern.Domain
	nif  *stacks.Netif
	Svc  *kern.Port

	ports     *tcp.PortAlloc
	udpPorts  *tcp.PortAlloc
	iss       tcp.Seq
	owned     *tcp.Table
	conns     map[*tcp.Conn]*hsConn
	listeners map[uint16]*listener
	// transferred routes stray default-path segments of handed-off
	// connections into their channels (e.g. a retransmitted handshake ACK
	// on the AN1 arriving at BQI zero), and remembers what the owning
	// application holds so a crash can be reclaimed.
	transferred map[tcp.FourTuple]*xferConn
	// udpChannels routes datagrams that reach the default path to their
	// bound end-points. On the AN1 this is the common case: "the hardware
	// packet demultiplexing mechanism is difficult to exploit because
	// there is no separate connection setup phase that can negotiate the
	// BQIs" — so datagrams arrive at BQI zero and are demultiplexed in
	// software here.
	udpChannels map[uint16]*udpBinding

	// watched marks application domains whose death hook is installed, so
	// a domain opening many connections registers exactly one hook.
	watched map[*kern.Domain]bool

	// epoch counts registry incarnations on this host (1 = first boot).
	epoch int
	// rebuildPending marks a restarted server that must reconstruct its
	// state from the module before serving requests.
	rebuildPending bool

	// reqCache deduplicates control-plane requests by Msg.ID, bounded FIFO
	// (reqOrder). A retried request whose original reply was lost replays
	// the cached reply instead of executing twice; a retry racing an
	// in-flight connect retargets the eventual handoff to the new reply
	// port.
	reqCache map[uint64]*pendingReq
	reqOrder []uint64

	// Counters (introspection and stats).
	synDrops     int // SYNs dropped by a full listen backlog
	dedupHits    int // duplicate requests answered from the cache
	reregistered int // connections re-adopted via ReRegisterReq
	rebuilt      int // endpoints reconstructed from module templates

	// faults is the control-plane fault injector; nil injects nothing.
	faults *chaos.Injector

	// wheel holds the TCP timers of every owned pcb. Each incarnation has
	// its own: owned pcbs die with the old one, and rebuild() only
	// reconstructs transferred endpoints.
	wheel *stacks.TCPWheel

	rxq  *sim.Queue[*pkt.Buf]
	cur  *kern.Thread
	lock *sim.Semaphore

	// free holds connection records for reuse; retired those the engine pass
	// under way has dropped, which go onto free when it ends (runEngine).
	// Both start empty in every incarnation.
	free    freelist.List[*hsConn]
	retired []*hsConn

	// bus receives RegistryRPC events and is handed to every TCP engine
	// the server creates. Nil-safe.
	bus *trace.Bus

	// fed is the federation this server is shard shardIdx of: it owns a
	// static slice of the port space, shares the Netif with its sibling
	// shards and renews only the leases it issued.
	fed      *Federation
	shardIdx int
}

// crashReq is the internal notification a domain-death hook posts to the
// service loop so reclamation runs on a registry thread with normal cost
// accounting (the hook itself runs in engine context and must not block).
type crashReq struct {
	dom *kern.Domain
}

// pendingReq is one dedup-cache entry: the cached reply once the request
// completed, or the in-flight handshake it is waiting on.
type pendingReq struct {
	done  bool
	reply kern.Msg
	hc    *hsConn // in-flight connect; a retry retargets hc.reply
}

// Registry failure-semantics parameters.
const (
	// LeaseTTL is how long the module serves an endpoint without the
	// registry renewing it; LeaseHeartbeat is the renewal period. The TTL
	// is three heartbeats so one delayed beat never quarantines anything.
	LeaseTTL       = 3 * time.Second
	LeaseHeartbeat = 1 * time.Second

	// DefaultBacklog bounds concurrent handshakes per listener when the
	// application does not set Options.Backlog.
	DefaultBacklog = 16

	// dedupCap bounds the request-ID cache (FIFO eviction).
	dedupCap = 512
)

// newShard boots shard i. prev is the crashed incarnation it replaces, nil
// at first boot: its service port is reused — libraries hold send rights to
// it, and a Mach-style port queue outlives the domain that was receiving
// from it, so requests queued across the outage drain into the new server —
// and the port table and connection map are rebuilt from the module's
// installed header templates before the first request is served.
func (f *Federation) newShard(i int, prev *Server) *Server {
	r := &Server{
		fed:      f,
		shardIdx: i,
		host:     f.host,
		nif:      f.nif, // one ARP cache and reassembler for all shards
		ports:    tcp.NewPortAllocRange(f.slices[i][0], f.slices[i][1]),
		udpPorts: tcp.NewPortAlloc(),
		// Per-host ISS sequence, perturbed per shard so concurrent actives
		// from different shards start in distinct sequence regions.
		iss:         tcp.Seq(30000 + 7919*uint32(f.ip[3]) + 1000003*uint32(i)),
		owned:       tcp.NewTable(),
		wheel:       stacks.NewTCPWheel(),
		conns:       make(map[*tcp.Conn]*hsConn),
		listeners:   make(map[uint16]*listener),
		transferred: make(map[tcp.FourTuple]*xferConn),
		udpChannels: make(map[uint16]*udpBinding),
		watched:     make(map[*kern.Domain]bool),
		reqCache:    make(map[uint64]*pendingReq),
		epoch:       1,
		faults:      f.faults,
		bus:         f.bus,
	}
	if prev != nil {
		r.epoch = prev.epoch + 1
		r.Svc = prev.Svc
		r.rebuildPending = true
		// Perturb the ISS base per incarnation so connections the reborn
		// registry opens cannot collide with sequence space the crashed one
		// was using.
		r.iss += tcp.Seq(250007 * uint32(r.epoch-1))
	} else {
		r.Svc = kern.NewPort(r.host, f.names[i])
	}
	r.dom = r.host.NewDomain(f.names[i], true)
	r.dom.PinCPU(f.cpus[i]) // nil for a lone registry: it stays on the host CPU
	r.lock = f.s.NewSemaphore("registry-engine", 1)
	r.rxq = sim.NewQueue[*pkt.Buf](f.s)
	r.dom.Spawn("service", r.serviceLoop)
	// The default-path receive thread: everything the per-connection
	// demultiplexing did not claim arrives here.
	r.dom.Spawn("input", r.nif.InputLoop(r.rxq, &stacks.Hooks{TCP: r.inputTCP, UDP: r.inputUDP}))
	r.wheel.Drive(r.dom, "tcp", stacks.DriverHooks{
		Bracket:   r.runEngine,
		AfterSlow: func() { r.nif.Rsm.Expire(r.nif.Now()) },
	})
	r.dom.Spawn("lease-hb", r.leaseHeartbeat)
	return r
}

// leaseHeartbeat renews the leases this shard issued, and only those, so a
// crashed sibling's endpoints expire (and migrate) instead of being kept
// alive by the survivors. It charges no CPU: the renewal models a
// kernel-side table write whose cost is negligible next to the IPC-heavy
// control path, and keeping it free leaves the fault-free experiment timings
// untouched.
func (r *Server) leaseHeartbeat(t *kern.Thread) {
	for {
		t.Sleep(LeaseHeartbeat)
		_, _ = r.nif.Mod.RenewLeasesIssued(r.dom)
	}
}

func (r *Server) nextISS() tcp.Seq {
	r.iss += 64021
	return r.iss
}

// ---------------------------------------------------------------------------
// Service loop: requests from libraries
// ---------------------------------------------------------------------------

func (r *Server) serviceLoop(t *kern.Thread) {
	if r.rebuildPending {
		r.rebuildPending = false
		r.rebuild(t)
	}
	for {
		m := r.Svc.Receive(t)
		// Internal crash notifications bypass fault injection: reclamation
		// must run even (especially) when the control plane is misbehaving.
		if cr, ok := m.Body.(crashReq); ok {
			if r.bus.Enabled() {
				r.bus.Emit(trace.Event{Kind: trace.RegistryRPC, Node: r.host.Name,
					Conn: cr.dom.String(), Text: "crash-sweep"})
			}
			r.handleCrash(t, cr.dom)
			continue
		}
		if batch, ok := m.Body.(kern.Batch); ok {
			// A coalesced control-plane batch: one IPC carried several
			// requests, each with its own id and reply port. Dispatch them
			// in order as if they had arrived back to back.
			for _, bm := range batch.Msgs {
				r.dispatch(t, bm)
			}
			continue
		}
		r.dispatch(t, m)
	}
}

// dispatch runs one control-plane request through fault injection, the
// request-ID dedup cache, and the handler switch.
func (r *Server) dispatch(t *kern.Thread, m kern.Msg) {
	if r.bus.Enabled() {
		r.bus.Emit(trace.Event{Kind: trace.RegistryRPC, Node: r.host.Name, Text: m.Op})
	}
	if r.faults.DropRequest() {
		return // the library's RPC never gets a reply
	}
	if d := r.faults.RequestDelay(); d > 0 {
		t.Sleep(d)
	}
	// Request-ID dedup: a retry of a request already seen must not
	// execute twice — a re-run Connect would allocate a second port and
	// run a second handshake. Completed requests replay the cached
	// reply (the original's was lost with its abandoned reply port);
	// retries of an in-flight connect retarget the eventual handoff.
	if m.ID != 0 {
		if e, ok := r.reqCache[m.ID]; ok {
			r.dedupHits++
			if r.bus.Enabled() {
				r.bus.Emit(trace.Event{Kind: trace.RegistryRPC, Node: r.host.Name,
					Text: m.Op + "-dup"})
			}
			if e.done {
				if m.Reply != nil {
					m.ReplyTo(t, e.reply)
				}
			} else if e.hc != nil {
				e.hc.reply = m.Reply
			}
			return
		}
		r.track(m.ID)
	}
	switch req := m.Body.(type) {
	case ConnectReq:
		r.handleConnect(t, m, req)
	case ListenReq:
		r.handleListen(t, m, req)
	case UnlistenReq:
		r.handleUnlisten(t, m, req)
	case InheritReq:
		r.handleInherit(t, req)
		r.finish(t, m, kern.Msg{})
	case TeardownReq:
		r.handleTeardown(t, req)
		r.finish(t, m, kern.Msg{})
	case ReRegisterReq:
		r.handleReRegister(t, m, req)
	case BindUDPReq:
		r.handleBindUDP(t, m, req)
	case ResolveReq:
		r.handleResolve(t, m, req)
	case UDPSendReq:
		r.handleUDPSend(t, m, req)
	case UnbindUDPReq:
		r.handleUnbindUDP(t, req)
		r.finish(t, m, kern.Msg{})
	}
}

// track inserts an empty dedup entry for a request id, evicting the oldest
// *completed* entry beyond the cache bound. An entry whose reply is not yet
// cached is never evicted: dropping it would let a retry of that request
// re-execute a non-idempotent connect — a second port allocation and a
// second handshake for one logical open. If every tracked entry is still in
// flight the cache grows past dedupCap temporarily; the admission layer
// bounds how many setups can be outstanding at once.
func (r *Server) track(id uint64) {
	var e *pendingReq
	if len(r.reqOrder) >= dedupCap {
		for i, old := range r.reqOrder {
			if oe, ok := r.reqCache[old]; !ok || oe.done {
				delete(r.reqCache, old)
				r.reqOrder = append(r.reqOrder[:i], r.reqOrder[i+1:]...)
				e = oe // out of the map, it is nobody's: the new entry takes its place
				break
			}
		}
	}
	if e == nil {
		e = new(pendingReq)
	}
	*e = pendingReq{}
	r.reqCache[id] = e
	r.reqOrder = append(r.reqOrder, id)
}

// finish records a request's reply in the dedup cache and delivers it.
// One-way requests (nil Reply) are still recorded so a duplicate does not
// re-execute (a double Teardown would double-release a port) — and must be
// finished all the same once handled, or their entries count as in flight
// for ever: never evicted, and walked over by every later eviction.
func (r *Server) finish(t *kern.Thread, m kern.Msg, reply kern.Msg) {
	if m.ID != 0 {
		if e, ok := r.reqCache[m.ID]; ok {
			e.done, e.reply, e.hc = true, reply, nil
		}
	}
	if m.Reply != nil {
		m.ReplyTo(t, reply)
	}
}

// finishAsync is finish for replies produced outside the service loop (the
// handoff sent by the established/closed callbacks).
func (r *Server) finishAsync(reqID uint64, target *kern.Port, reply kern.Msg) {
	if reqID != 0 {
		if e, ok := r.reqCache[reqID]; ok {
			e.done, e.reply, e.hc = true, reply, nil
		}
	}
	if target != nil {
		target.SendAsync(reply)
	}
}

// handleConnect performs the active open on the library's behalf.
func (r *Server) handleConnect(t *kern.Thread, m kern.Msg, req ConnectReq) {
	// Admission: bound how many setups one application domain may have
	// outstanding across all shards. A denied setup has no side effects —
	// the library retries it under backoff with a fresh request id.
	if !r.fed.admit(req.Owner) {
		r.finish(t, m, kern.Msg{Op: "handoff",
			Body: Handoff{Err: stacks.ErrAdmissionDenied}})
		return
	}
	c := t.Cost()
	t.Compute(c.RegistryPortAlloc + c.RegistryConnSetup)
	port, err := r.ports.Ephemeral()
	if err != nil {
		r.fed.release(req.Owner)
		r.finish(t, m, kern.Msg{Op: "handoff", Body: Handoff{Err: err}})
		return
	}
	local := tcp.Endpoint{IP: r.nif.IP, Port: port}

	// On the AN1 the BQI is reserved before the SYN leaves so it can ride
	// the link header: "before initiating connection the server requests
	// the network I/O module for a BQI that the remote node can use." The
	// channel itself — and on Ethernet the software demultiplexing binding
	// — is activated as establishment completes, so handshake segments
	// reach the registry's default path.
	hc := r.newConn()
	hc.opts, hc.owner, hc.reply, hc.reqID, hc.admitted = req.Opts, req.Owner, m.Reply, m.ID, true
	r.watch(req.Owner)
	if r.nif.IsAN1() {
		t.Compute(t.Cost().BQIReserve)
		bqi, err := r.nif.Mod.ReserveBQI(r.dom)
		if err != nil {
			r.ports.Release(local.Port)
			r.releaseAdmit(hc)
			r.finish(t, m, kern.Msg{Op: "handoff", Body: Handoff{Err: err}})
			return
		}
		hc.ourBQI = bqi
	}
	tc := &hc.tc
	tc.Init(stacks.TCPConfig(r.nif, req.Opts), local, req.Remote, tcp.Callbacks{})
	r.attach(hc)
	if err := r.owned.Insert(tc); err != nil {
		delete(r.conns, tc)
		r.wheel.Drop(&hc.went)
		r.ports.Release(local.Port)
		r.dropBQI(hc)
		r.releaseAdmit(hc)
		r.finish(t, m, kern.Msg{Op: "handoff", Body: Handoff{Err: err}})
		return
	}
	if e, ok := r.reqCache[m.ID]; ok && m.ID != 0 {
		e.hc = hc // a retry of this id retargets the eventual handoff
	}
	r.runConn(t, hc, func() { tc.OpenActive(r.nextISS()) })
	// The reply is sent by the established/closed callbacks.
}

// handleListen registers a passive endpoint.
func (r *Server) handleListen(t *kern.Thread, m kern.Msg, req ListenReq) {
	c := t.Cost()
	t.Compute(c.RegistryPortAlloc)
	if !r.ports.Reserve(req.Port) {
		r.finish(t, m, kern.Msg{Op: "listen-ack", Body: stacks.ErrPortInUse})
		return
	}
	bl := req.Opts.Backlog
	if bl <= 0 {
		bl = DefaultBacklog
	}
	r.listeners[req.Port] = &listener{port: req.Port, opts: req.Opts,
		accept: req.AcceptPort, owner: req.Owner, backlog: bl}
	r.watch(req.Owner)
	r.finish(t, m, kern.Msg{Op: "listen-ack", Body: nil})
}

func (r *Server) handleUnlisten(t *kern.Thread, m kern.Msg, req UnlistenReq) {
	if _, ok := r.listeners[req.Port]; ok {
		delete(r.listeners, req.Port)
		r.ports.Release(req.Port)
	}
	r.finish(t, m, kern.Msg{Op: "unlisten-ack"})
}

// handleTeardown reclaims the channel and port of a closed connection. It
// is idempotent: the port reference is dropped only if the connection was
// still on record, so a duplicated teardown (or one racing a crash sweep)
// cannot double-release a port another holder still owns.
func (r *Server) handleTeardown(t *kern.Thread, req TeardownReq) {
	if req.Cap != nil {
		_ = r.nif.Mod.DestroyChannel(r.dom, req.Cap)
	}
	ft := tcp.FourTuple{Local: req.Local, Peer: req.Peer}
	if _, ok := r.transferred[ft]; ok {
		delete(r.transferred, ft)
		r.ports.Release(req.Local.Port)
	}
}

// handleInherit takes a connection back from an exiting application.
func (r *Server) handleInherit(t *kern.Thread, req InheritReq) {
	c := t.Cost()
	t.Compute(c.StateTransfer)
	if req.Cap != nil {
		_ = r.nif.Mod.DestroyChannel(r.dom, req.Cap)
	}
	delete(r.transferred, tcp.FourTuple{Local: req.Snap.Local, Peer: req.Snap.Peer})
	hc := r.newConn()
	hc.peerHW, hc.peerBQI = req.PeerHW, req.PeerBQI
	tc := &hc.tc
	tcp.RestoreInto(tc, req.Snap, tcp.Callbacks{})
	r.attach(hc)
	if tc.State() != tcp.Closed {
		if err := r.owned.Insert(tc); err != nil {
			return
		}
	}
	if req.Abort {
		// "To guard against an abnormal application termination, the
		// protocol server issues a reset message to the remote peer."
		r.runConn(t, hc, func() { tc.Abort() })
		return
	}
	// Orderly inheritance: close if the application had not, and drive the
	// remaining states (FIN exchange, TIME_WAIT) from the registry.
	r.runConn(t, hc, func() { tc.Close() })
}

// ---------------------------------------------------------------------------
// Channel setup and handoff
// ---------------------------------------------------------------------------

// setupChannel creates the shared region, ring, capability, template and
// demux binding for an endpoint ("nearly 3.4 ms are spent in setting up
// user channels to the network device").
func (r *Server) setupChannel(t *kern.Thread, hc *hsConn, local, remote tcp.Endpoint) error {
	c := t.Cost()
	t.Compute(c.ChannelSetup)
	spec := filter.Spec{
		LinkHdrLen: r.nif.Mod.Device().HdrLen(),
		Proto:      ipv4.ProtoTCP,
		LocalIP:    local.IP, LocalPort: local.Port,
		RemoteIP: remote.IP, RemotePort: remote.Port,
	}
	tmpl := netio.Template{
		LinkSrc: r.nif.HW, Type: link.TypeIPv4,
		Proto:   ipv4.ProtoTCP,
		LocalIP: local.IP, LocalPort: local.Port,
		RemoteIP: remote.IP, RemotePort: remote.Port,
	}
	cap, ch, err := r.nif.Mod.CreateChannelBQI(r.dom, spec, tmpl, 32, hc.ourBQI)
	if err != nil {
		return err
	}
	hc.ourCap, hc.ourCh = cap, ch
	return nil
}

// newConn returns a blank connection record: a reused one if there is one.
func (r *Server) newConn() *hsConn {
	if hc := r.free.Get(); hc != nil {
		return hc
	}
	return &hsConn{r: r}
}

// attach makes the registry the owner of hc's initialised pcb: on the wheel,
// in the connection map, with the registry-side callbacks.
func (r *Server) attach(hc *hsConn) {
	tc := &hc.tc
	r.conns[tc] = hc
	r.wheel.Init(&hc.went, tc, nil)
	if r.bus.Enabled() {
		tc.SetTrace(r.bus, r.host.Name+" "+tc.Local().String()+">"+tc.Peer().String())
	}
	if hc.cb.Send == nil {
		hc.cb = tcp.Callbacks{Send: hc.send, OnEstablished: hc.established, OnClosed: hc.closed}
	}
	tc.SetCallbacks(hc.cb)
}

// drop ends the registry's ownership of hc's pcb — it closed, its set-up was
// aborted, or it was handed to its library still live — and retires the
// record. This is the one way a record reaches Server.free: the pass that
// dropped it still has it on its stack (the engine returns into the pcb, the
// exit Sync into the wheel entry), so it is put there only when that pass
// ends. Once per attach, however many exit routes cross: a record the
// registry does not own (any more) is not retired (again).
func (r *Server) drop(hc *hsConn) {
	owned := r.conns[&hc.tc] == hc
	r.owned.Remove(&hc.tc)
	delete(r.conns, &hc.tc)
	r.wheel.Drop(&hc.went)
	if owned {
		hc.gen++
		r.retired = append(r.retired, hc)
	}
}

func (hc *hsConn) send(seg *pkt.Buf, h tcp.Header, _ int) { hc.r.transmit(seg, hc, h) }

func (hc *hsConn) established() { hc.r.established(hc) }

// closed is the pcb's OnClosed.
func (hc *hsConn) closed(err error) {
	r, tc := hc.r, &hc.tc
	r.drop(hc)
	hc.leaveBacklog()
	// Passive-side pcbs share the listener's port and hold no
	// reference of their own until handoff; releasing here would
	// strip the listener's reservation.
	if hc.l == nil {
		r.ports.Release(tc.Local().Port)
	}
	if hc.reply != nil && hc.ourCap != nil {
		// Handshake failed before handoff.
		_ = r.nif.Mod.DestroyChannel(r.dom, hc.ourCap)
		hc.ourCap = nil
	}
	// Complete the dedup entry even when no one is listening for
	// the reply (the crash sweep nils hc.reply before aborting):
	// an entry stuck in-flight forever would pin a slot in the
	// never-evict-in-flight cache, and a late retry of the id
	// would wait on a handoff that can no longer come.
	r.finishAsync(hc.reqID, hc.reply,
		kern.Msg{Op: "handoff", Body: Handoff{Err: stacks.MapError(err)}})
	hc.reply = nil
	r.dropBQI(hc)
	r.releaseAdmit(hc)
}

// leaveBacklog returns a passive set-up's listen-backlog slot, exactly once.
func (hc *hsConn) leaveBacklog() {
	if hc.inBacklog {
		hc.inBacklog = false
		hc.l.pending--
	}
}

// releaseAdmit returns a setup's admission-quota slot. The flag guards exactly-once release however many exit paths the setup
// traverses.
func (r *Server) releaseAdmit(hc *hsConn) {
	if hc != nil && hc.admitted {
		hc.admitted = false
		r.fed.release(hc.owner)
	}
}

// transmit is the registry's un-optimized send path.
func (r *Server) transmit(seg *pkt.Buf, hc *hsConn, h tcp.Header) {
	tc := &hc.tc
	t := r.cur
	if t == nil {
		panic("registry: engine transmit outside runEngine")
	}
	c := t.Cost()
	t.Compute(c.RegistrySendPath)
	t.Compute(stacks.SegCost(r.host, seg.Len(), false))
	// Handshake segments advertise our data-phase BQI in the link header
	// but are themselves addressed to the peer's protected kernel queue
	// (BQI zero): only data-phase traffic uses the negotiated rings.
	r.nif.SendTCP(t, seg, tc.Peer().IP, hc.ourBQI)
}

// established completes setup: narrow the template to the negotiated peer,
// transfer the state to the library, and route future default-path strays.
func (r *Server) established(hc *hsConn) {
	tc := &hc.tc
	if tc.State() != tcp.Established {
		// The establishment notification is deferred to the end of segment
		// processing; if the connection died in the meantime (give-up,
		// reset), its OnClosed path owns the cleanup — snapshotting and
		// handing off a dying connection would transfer a corpse and
		// double-release its resources.
		return
	}
	t := r.cur
	c := t.Cost()
	// On Ethernet the channel and its demultiplexing binding are created
	// now, as establishment completes.
	if hc.ourCap == nil {
		if err := r.setupChannel(t, hc, tc.Local(), tc.Peer()); err != nil {
			r.abortSetup(hc, err)
			return
		}
	}
	// Narrow the template now that the peer link address is known.
	if hw, ok := r.nif.ARP.Lookup(r.nif.Now(), tc.Peer().IP); ok {
		hc.peerHW = hw
	}
	tmpl := netio.Template{
		LinkSrc: r.nif.HW, LinkDst: hc.peerHW, Type: link.TypeIPv4,
		Proto:   ipv4.ProtoTCP,
		LocalIP: tc.Local().IP, LocalPort: tc.Local().Port,
		RemoteIP: tc.Peer().IP, RemotePort: tc.Peer().Port,
	}
	_ = r.nif.Mod.UpdateTemplate(r.dom, hc.ourCap, tmpl)

	// Transfer TCP state to user level.
	t.Compute(c.StateTransfer)
	snap := tc.Snapshot()
	r.drop(hc)
	hc.leaveBacklog()
	if hc.l != nil {
		// The accepted connection shares its listener's port; the handoff
		// takes a reference of its own, balanced by Teardown/Inherit/crash
		// reclamation.
		r.ports.Retain(tc.Local().Port)
	}
	if hc.owner != nil {
		_ = r.nif.Mod.AssignOwner(r.dom, hc.ourCap, hc.owner)
	}
	r.transferred[tcp.FourTuple{Local: tc.Local(), Peer: tc.Peer()}] = &xferConn{
		owner:   hc.owner,
		cap:     hc.ourCap,
		local:   tc.Local(),
		peer:    tc.Peer(),
		peerHW:  hc.peerHW,
		peerBQI: hc.peerBQI,
		sndNxt:  snap.SndNxt,
		rcvNxt:  snap.RcvNxt,
	}

	r.releaseAdmit(hc) // setup complete: free the admission-quota slot

	ho := Handoff{
		Snap:    snap,
		Cap:     hc.ourCap,
		Channel: hc.ourCh,
		PeerHW:  hc.peerHW,
		PeerBQI: hc.peerBQI,
	}
	r.handoff(hc, kern.Msg{Op: "handoff", Body: ho, Size: snap.Size()})
}

// handoff delivers the outcome of a set-up: to the listener's accept port, or
// to the connect request's reply port and dedup entry — the entry also when
// nobody waits for the reply any more (the crash sweep cleared hc.reply), for
// it must not go on naming a record that is about to be reused.
func (r *Server) handoff(hc *hsConn, msg kern.Msg) {
	if hc.l != nil {
		hc.l.accept.SendAsync(msg)
		return
	}
	r.finishAsync(hc.reqID, hc.reply, msg)
	hc.reply = nil
}

// dropBQI returns a reserved-but-unconsumed ring index to the module. A
// BQI that made it into a channel is recycled by DestroyChannel instead;
// this covers handshakes that die between reservation and channel
// creation, which under connection churn would otherwise drain the
// hardware index space.
func (r *Server) dropBQI(hc *hsConn) {
	if hc.ourCap == nil && hc.ourBQI != 0 {
		_ = r.nif.Mod.ReleaseBQI(r.dom, hc.ourBQI)
	}
	hc.ourBQI = 0
}

// abortSetup unwinds a connection whose channel could not be created at
// establishment time: without it the port, pcb-table entry and backlog
// slot stayed allocated forever and the client never got an answer.
func (r *Server) abortSetup(hc *hsConn, err error) {
	tc := &hc.tc
	tc.SetCallbacks(tcp.Callbacks{})
	r.drop(hc)
	if hc.ourCap != nil {
		// A channel that was created before the failure (e.g. the
		// template update path) would otherwise leave its lease, BQI and
		// pinned region installed forever.
		_ = r.nif.Mod.DestroyChannel(r.dom, hc.ourCap)
		hc.ourCap = nil
	}
	r.dropBQI(hc)
	r.releaseAdmit(hc)
	hc.leaveBacklog()
	if hc.l == nil {
		r.ports.Release(tc.Local().Port)
	}
	r.handoff(hc, kern.Msg{Op: "handoff", Body: Handoff{Err: err}})
}

func (r *Server) runEngine(t *kern.Thread, fn func()) {
	r.lock.P(t.Proc)
	r.cur = t
	fn()
	r.cur = nil
	// The pass has unwound: nothing on this stack touches the records it
	// dropped again, and nothing else can name them (drop) — unless a wheel
	// driver is still part-way through firing one, which then stays the
	// collector's.
	for i, hc := range r.retired {
		if hc.went.Idle() {
			r.free.Put(hc)
		}
		r.retired[i] = nil
	}
	r.retired = r.retired[:0]
	r.lock.V()
}

// runConn runs an engine operation on one owned pcb: its tick counters are
// caught up to the wheel clock before fn reads them, and whatever fn arms
// goes onto the wheel afterwards. The exit Sync does nothing if a callback
// inside fn dropped the entry — the engine closed, or established() handed
// the still-live connection to its library. And the whole pass does nothing
// if the registry dropped the connection while the caller waited for the
// engine: the record may be another connection's by now.
func (r *Server) runConn(t *kern.Thread, hc *hsConn, fn func()) {
	gen := hc.gen
	r.runEngine(t, func() {
		if hc.gen != gen {
			return
		}
		r.wheel.Sync(&hc.went)
		fn()
		r.wheel.Sync(&hc.went)
	})
}

// ---------------------------------------------------------------------------
// Crash-failure reclamation
// ---------------------------------------------------------------------------

// watch arranges for the registry to learn of an application domain's
// death. The hook runs in whatever context performed the kill, so it only
// posts an async notification; real reclamation happens on the service
// thread. One hook per domain, however many connections it opens.
func (r *Server) watch(dom *kern.Domain) {
	if dom == nil || r.watched[dom] {
		return
	}
	r.watched[dom] = true
	dom.OnDeath(func() {
		r.Svc.SendAsync(kern.Msg{Op: "crash", Body: crashReq{dom: dom}})
	})
}

// handleCrash reclaims everything a crashed application held: handshaking
// connections are aborted (RST through the engine), transferred connections
// have their channels destroyed, ports released and a best-effort reset sent
// to the peer, listeners and UDP bindings are removed, and finally the
// network I/O module sweeps any capability still recorded against the dead
// domain. "To guard against an abnormal application termination, the
// protocol server issues a reset message to the remote peer" — here with no
// cooperation from the application at all.
func (r *Server) handleCrash(t *kern.Thread, dom *kern.Domain) {
	c := t.Cost()
	t.Compute(c.StateTransfer)
	delete(r.watched, dom)

	// Registry-owned pcbs (handshakes in flight for the dead app): abort.
	var dead []*hsConn
	for _, hc := range r.conns {
		if hc.owner == dom {
			hc.reply = nil // no one is listening for the handoff
			dead = append(dead, hc)
		}
	}
	for _, hc := range dead {
		// Each abort may wait for the engine, and what held it may have
		// dropped a later victim, whose record may be on its next connection
		// already: abort only what is still a set-up of the dead application.
		if r.conns[&hc.tc] != hc || hc.owner != dom {
			continue
		}
		r.runConn(t, hc, func() {
			hc.tc.Abort()
			// Inside the pass the record is still this connection's.
			if hc.ourCap != nil {
				_ = r.nif.Mod.DestroyChannel(r.dom, hc.ourCap)
				hc.ourCap = nil
			}
			r.dropBQI(hc)
		})
	}

	// Transferred connections: revoke the channel, release the port, reset
	// the peer. The sequence numbers recorded at handoff time may be stale
	// if the application moved data afterwards; if the peer answers the
	// stale reset with a challenge ACK, that ACK lands on the (now
	// reclaimed) default path below and is answered with an exactly-aimed
	// RST by the receive pipeline's no-endpoint case — so the peer converges
	// to reset either way.
	for ft, xc := range r.transferred {
		if xc.owner != dom {
			continue
		}
		if xc.cap != nil {
			_ = r.nif.Mod.DestroyChannel(r.dom, xc.cap)
		}
		delete(r.transferred, ft)
		r.ports.Release(ft.Local.Port)
		r.sendCrashRST(t, xc)
	}

	// Listeners and datagram bindings.
	for port, l := range r.listeners {
		if l.owner == dom {
			delete(r.listeners, port)
			r.ports.Release(port)
		}
	}
	for port, ub := range r.udpChannels {
		if ub.owner == dom {
			if ub.cap != nil {
				_ = r.nif.Mod.DestroyChannel(r.dom, ub.cap)
			}
			delete(r.udpChannels, port)
			r.udpPorts.Release(port)
		}
	}

	// Final sweep: the module revokes anything still issued to the dead
	// domain, even if the registry's own records were incomplete.
	_, _ = r.nif.Mod.RevokeOwner(r.dom, dom)
}

// sendCrashRST issues the proactive reset for a crashed application's
// connection, from the state recorded at handoff time.
//
// The sequence numbers may be stale: the library moved data after handoff
// without the registry seeing it. A stale RST is silently discarded by the
// peer (it elicits no challenge), so the RST alone only covers a connection
// that never advanced. The bare ACK sent after it covers the rest: an
// out-of-window ACK makes the peer respond with its own ACK, which lands on
// this host's default path — the tuple is already reclaimed — and is
// answered by the receive pipeline's no-endpoint case with a reset aimed
// exactly at the peer's expected sequence. Either way the peer converges to
// a reset.
func (r *Server) sendCrashRST(t *kern.Thread, xc *xferConn) {
	for _, flags := range []uint8{tcp.FlagRST | tcp.FlagACK, tcp.FlagACK} {
		h := tcp.Header{
			SrcPort: xc.local.Port, DstPort: xc.peer.Port,
			Seq: xc.sndNxt, Ack: xc.rcvNxt,
			Flags: flags,
		}
		b := pkt.FromBytes(r.nif.Headroom()+tcp.HeaderLen, nil)
		h.Encode(b, xc.local.IP, xc.peer.IP)
		c := t.Cost()
		t.Compute(c.RegistrySendPath)
		t.Compute(stacks.SegCost(r.host, b.Len(), false))
		r.nif.SendTCP(t, b, xc.peer.IP, 0)
	}
}

// ---------------------------------------------------------------------------
// Crash recovery: state rebuild and re-registration
// ---------------------------------------------------------------------------

// rebuild reconstructs the port table and connection map of a restarted
// registry from the network I/O module's installed header templates — the
// in-kernel module, not the crashed server's memory, is the authoritative
// record of what endpoints exist (the paper's trust split: the module is
// trusted, everything above it is reconstructible).
//
// What is deliberately NOT rebuilt: listeners and in-flight handshakes
// (the library's RPC retry re-creates them), inherited TIME_WAIT pcbs
// (strays for them get RSTs from the no-endpoint path, which is the
// correct terminal outcome for a half-dead connection), and the dedup
// cache (a request older than a registry crash has long exhausted its
// retry budget).
func (r *Server) rebuild(t *kern.Thread) {
	eps, err := r.nif.Mod.InstalledEndpoints(r.dom)
	if err != nil {
		return
	}
	c := t.Cost()
	n := 0
	for _, ep := range eps {
		tmpl := ep.Template
		if tmpl.LocalIP != r.nif.IP {
			continue
		}
		switch tmpl.Proto {
		case ipv4.ProtoTCP:
			if tmpl.RemotePort == 0 {
				continue // not a fully specified connection endpoint
			}
			local := tcp.Endpoint{IP: tmpl.LocalIP, Port: tmpl.LocalPort}
			peer := tcp.Endpoint{IP: tmpl.RemoteIP, Port: tmpl.RemotePort}
			// A shard adopts only the endpoints it statically owns; its
			// siblings' slices are theirs to rebuild. Re-issuing moves
			// lease-renewal responsibility to this incarnation, away from
			// its dead predecessor or a survivor that adopted the endpoint
			// during the outage.
			if r.fed.ownerEndpoints(local, peer) != r.shardIdx {
				continue
			}
			_ = r.nif.Mod.Reissue(r.dom, ep.Cap)
			t.Compute(c.RegistryPortAlloc)
			if !r.ports.Reserve(local.Port) {
				r.ports.Retain(local.Port) // accepted conns share a port
			}
			r.transferred[tcp.FourTuple{Local: local, Peer: peer}] = &xferConn{
				owner: ep.Owner, cap: ep.Cap,
				local: local, peer: peer,
				peerHW: tmpl.LinkDst, peerBQI: 0,
				// Sequence numbers are unknown until the library
				// re-registers; sendCrashRST's ACK-probe half still
				// converges the peer if the owner dies before then.
			}
			r.watch(ep.Owner)
			n++
		case ipv4.ProtoUDP:
			if r.shardIdx != 0 {
				continue // shard 0 owns all datagram endpoints
			}
			_ = r.nif.Mod.Reissue(r.dom, ep.Cap)
			t.Compute(c.RegistryPortAlloc)
			r.udpPorts.Reserve(tmpl.LocalPort)
			r.udpChannels[tmpl.LocalPort] = &udpBinding{owner: ep.Owner, ch: ep.Channel, cap: ep.Cap}
			r.watch(ep.Owner)
			n++
		}
	}
	r.rebuilt = n
	// Resume renewing before anything can expire further: re-adopted
	// endpoints leave quarantine immediately.
	_, _ = r.nif.Mod.RenewLeasesIssued(r.dom)
	if r.bus.Enabled() {
		r.bus.Emit(trace.Event{Kind: trace.RegistryRestart, Node: r.host.Name,
			A: int64(r.epoch), B: int64(n)})
	}
}

// handleReRegister re-adopts a library's live connection after a registry
// restart. The claim is verified against the module: the capability must
// be installed and its template must name exactly the claimed four-tuple —
// a library cannot talk its way into a connection the kernel never gave
// it.
func (r *Server) handleReRegister(t *kern.Thread, m kern.Msg, req ReRegisterReq) {
	t.Compute(t.Cost().StateTransfer)
	mod := r.nif.Mod
	if !mod.Installed(req.Cap) {
		r.finish(t, m, kern.Msg{Op: "reregister-ack", Body: netio.ErrBadCapability})
		return
	}
	tmpl := req.Cap.Template()
	if tmpl.Proto != ipv4.ProtoTCP ||
		tmpl.LocalIP != req.Local.IP || tmpl.LocalPort != req.Local.Port ||
		tmpl.RemoteIP != req.Peer.IP || tmpl.RemotePort != req.Peer.Port {
		r.finish(t, m, kern.Msg{Op: "reregister-ack", Body: netio.ErrTemplateMismatch})
		return
	}
	ft := tcp.FourTuple{Local: req.Local, Peer: req.Peer}
	xc, ok := r.transferred[ft]
	if !ok {
		if !r.ports.Reserve(req.Local.Port) {
			r.ports.Retain(req.Local.Port)
		}
		xc = &xferConn{local: req.Local, peer: req.Peer}
		r.transferred[ft] = xc
	}
	xc.owner = req.Owner
	xc.cap = req.Cap
	xc.peerHW = req.PeerHW
	xc.peerBQI = req.PeerBQI
	xc.sndNxt, xc.rcvNxt = req.SndNxt, req.RcvNxt
	r.watch(req.Owner)
	// Adopting a connection takes over its lease renewal too (from a dead
	// predecessor or, across shards, a crashed sibling), or the endpoint
	// would quarantine again at the next TTL despite being re-registered.
	_ = mod.Reissue(r.dom, req.Cap)
	_ = mod.RenewLease(r.dom, req.Cap)
	r.reregistered++
	r.finish(t, m, kern.Msg{Op: "reregister-ack", Body: nil})
}

// ---------------------------------------------------------------------------
// Introspection for tests and diagnostics
// ---------------------------------------------------------------------------

// OwnedConns returns how many pcbs the registry currently owns
// (handshaking, inherited, TIME_WAIT).
func (r *Server) OwnedConns() int { return r.owned.Len() }

// TransferredConns returns how many connections are handed off to
// libraries and not yet reclaimed.
func (r *Server) TransferredConns() int { return len(r.transferred) }

// PortsInUse returns allocated TCP plus UDP ports. Crash and orderly-exit
// tests assert this returns to zero.
func (r *Server) PortsInUse() int { return r.ports.InUse() + r.udpPorts.InUse() }

// ListenerCount returns registered passive endpoints.
func (r *Server) ListenerCount() int { return len(r.listeners) }

// Epoch returns the incarnation number (1 = first boot on this host).
func (r *Server) Epoch() int { return r.epoch }

// SynDrops returns SYNs dropped by full listen backlogs.
func (r *Server) SynDrops() int { return r.synDrops }

// DedupHits returns duplicate control-plane requests answered from the
// request-ID cache instead of being re-executed.
func (r *Server) DedupHits() int { return r.dedupHits }

// ReRegistered returns connections re-adopted after a restart.
func (r *Server) ReRegistered() int { return r.reregistered }

// RebuiltEndpoints returns endpoints reconstructed from module templates
// at restart.
func (r *Server) RebuiltEndpoints() int { return r.rebuilt }
