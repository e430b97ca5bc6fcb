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
	"sort"

	"ulp/internal/chaos"
	"ulp/internal/ctl"
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

// hsConn is a connection the registry currently owns: handshaking, or
// inherited and closing. The pcb and its wheel entry are part of the record,
// which the shard reuses (DESIGN §5.5): release retires it when the registry
// stops owning the connection, and the engine pass that did so puts it on
// Server.free once it has unwound.
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

	owner   *kern.Domain // application the connection is destined for
	peerBQI uint16       // peer's advertised data-phase BQI
	ourBQI  uint16       // reserved before the handshake on the AN1
	reply   *kern.Port   // where the outcome goes: the connect's reply port or the listener's accept port
	l       *listener    // set for passive-side pcbs
	// slot and reqID name the originating request, whose entry it completes.
	slot, reqID uint32
}

// Scrub leaves a closed pcb with no callbacks, a dropped wheel entry and no
// connection state; the socket buffers' arrays, the bound callbacks and the
// retirement count stay.
func (hc *hsConn) Scrub() {
	hc.tc.Scrub()
	hc.went.Scrub()
	*hc = hsConn{r: hc.r, tc: hc.tc, went: hc.went, cb: hc.cb, gen: hc.gen}
}

// listener is a registered passive endpoint: the host's one record of it
// (Federation.listeners). It holds its port, and its backlog bounds the
// handshakes every shard holds for it together.
type listener struct {
	opts    stacks.Options
	accept  *kern.Port
	owner   *kern.Domain
	backlog int // max concurrent handshakes
	pending int // handshakes currently held
}

// Server is one shard of a host's registry (see Federation; the paper's
// single registry is the only shard of a one-shard federation).
type Server struct {
	host *kern.Host
	dom  *kern.Domain
	nif  *stacks.Netif
	Svc  *kern.Port

	// ports holds the references of set-ups and inherited pcbs; a listener
	// holds its own port, and a handed-off connection's is held by its
	// endpoint in the module (Federation.portAlloc).
	ports *tcp.PortAlloc
	iss   tcp.Seq
	conns map[tcp.FourTuple]*hsConn // owned pcbs: set-ups and inherited

	// epoch counts registry incarnations on this host (1 = first boot).
	epoch int
	// rebuildPending marks a restarted server that must reconstruct its
	// state from the module before serving requests.
	rebuildPending bool

	// Counters (introspection and stats).
	synDrops  int // SYNs dropped by a full listen backlog
	dedupHits int // duplicate requests answered from the cache
	rebuilt   int // endpoints adopted from the module's installed templates

	// faults is the control-plane fault injector; nil injects nothing.
	faults *chaos.Injector

	// wheel holds the TCP timers of every owned pcb. Each incarnation has
	// its own: owned pcbs die with the old one, and rebuild() only re-issues
	// handed-off endpoints.
	wheel *stacks.TCPWheel

	rxq  *sim.Queue[*pkt.Buf]
	cur  *kern.Thread
	lock *sim.Semaphore

	// free holds connection records for reuse; retired those the engine pass
	// under way has dropped, which go onto free when it ends (runEngine).
	// Both start empty in every incarnation.
	free    freelist.List[*hsConn]
	retired []*hsConn
	// handoffs holds hand-off records no message or dedup entry holds.
	handoffs freelist.List[*ctl.Handoff]

	// fed is the federation this server is shard shardIdx of: it owns a
	// static slice of the port space and shares the Netif with its sibling
	// shards.
	fed      *Federation
	shardIdx int
}

// crashReq is the internal notification a domain-death hook posts to the
// service loop so reclamation runs on a registry thread with normal cost
// accounting (the hook itself runs in engine context and must not block).
type crashReq struct {
	dom *kern.Domain
}

// adoptReq is the internal notification CrashShard posts to the shard that
// covers a dead sibling once the sibling's endpoints quarantine: the shard
// runs the recovery sweep (adopt), which takes them over.
type adoptReq struct{}

// call is a caller's entry in the host's table (Federation.calls): its latest
// request's id, the shard that runs it, the set-up of a connect under way,
// and the cached reply once the request completed.
type call struct {
	id    uint32
	done  bool
	reply kern.Msg
	r     *Server // the shard running the request
	hc    *hsConn // in-flight connect, on r
}

// callerKey is a caller's key: its sender's index on the host and its slot.
func callerKey(from *kern.Domain, slot uint32) uint64 {
	return uint64(from.Index())<<32 | uint64(slot)
}

// sender is the host index of the domain whose call key is.
func sender(key uint64) int { return int(key >> 32) }

// entry returns request id's entry, nil if id is zero (a passive set-up's)
// or its caller has made a later call since.
func (f *Federation) entry(from *kern.Domain, slot, id uint32) *call {
	if id == 0 {
		return nil
	}
	if e := f.calls[callerKey(from, slot)]; e != nil && e.id == id {
		return e
	}
	return nil
}

// newShard boots shard i. prev is the crashed incarnation it replaces, nil
// at first boot. The shard's one service port moves to each incarnation —
// libraries hold send rights to it, and a Mach-style port queue outlives the
// domain that was receiving from it, so requests queued across the outage
// drain into the new server — and a restarted shard rebuilds its port table
// and connection map from the module's installed header templates before the
// first request is served.
func (f *Federation) newShard(i int, prev *Server) *Server {
	r := &Server{
		fed:      f,
		shardIdx: i,
		Svc:      f.Svc[i],
		host:     f.host,
		nif:      f.nif, // one ARP cache and reassembler for all shards
		ports:    f.portAlloc(i),
		// Per-host ISS sequence, perturbed per shard so concurrent actives
		// from different shards start in distinct sequence regions.
		iss:    tcp.Seq(30000 + 7919*uint32(f.ip[3]) + 1000003*uint32(i)),
		wheel:  stacks.NewTCPWheel(),
		conns:  make(map[tcp.FourTuple]*hsConn),
		epoch:  1,
		faults: f.faults,
	}
	if prev != nil {
		r.epoch = prev.epoch + 1
		r.rebuildPending = true
		// Perturb the ISS base per incarnation so connections the reborn
		// registry opens cannot collide with sequence space the crashed one
		// was using.
		r.iss += tcp.Seq(250007 * uint32(r.epoch-1))
	}
	r.dom = r.host.NewDomain(f.names[i], true)
	r.Svc.SetReceiver(r.dom)
	r.dom.PinCPU(f.cpus[i]) // nil for a lone registry: it stays on the host CPU
	r.lock = f.s.NewSemaphore("registry-engine", 1)
	r.rxq = sim.NewQueue[*pkt.Buf](f.s)
	r.dom.Spawn("service", r.serviceLoop)
	// The default-path receive thread: everything the per-connection
	// demultiplexing did not claim arrives here.
	r.dom.Spawn("input", r.nif.InputLoop(r.rxq, &stacks.Hooks{TCP: r.inputTCP, UDP: r.inputUDP}))
	r.wheel.Drive(r.dom, "tcp", stacks.DriverHooks{
		Bracket:   r.runEngine,
		AfterSlow: r.nif.Expire,
	})
	return r
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
			if r.host.S.Bus.Enabled() {
				r.host.S.Bus.Emit(trace.Event{Kind: trace.RegistryRPC, Node: r.host.Name,
					Conn: cr.dom.String(), Text: "crash-sweep"})
			}
			r.handleCrash(t, cr.dom)
			continue
		}
		if _, ok := m.Body.(adoptReq); ok {
			r.adopt(t)
			continue
		}
		r.dispatch(t, m)
	}
}

// dispatch watches the request's sender and runs the request through fault
// injection, admission and its caller's entry (requests the registry answers
// only), and the handler switch. A body no handler takes is dropped, as a lost
// request is; one naming an endpoint by capability acts only on one issued to
// it.
func (r *Server) dispatch(t *kern.Thread, m kern.Msg) {
	if r.host.S.Bus.Enabled() {
		r.host.S.Bus.Emit(trace.Event{Kind: trace.RegistryRPC, Node: r.host.Name, Text: m.Op})
	}
	r.fed.watch(m.From)
	if r.faults.DropRequest() {
		return // the library's RPC never gets a reply
	}
	if d := r.faults.RequestDelay(); d > 0 {
		t.Sleep(d)
	}
	// Admission: a request the registry answers must be a call (an id, a
	// reply port, a slot below ctl.CallSlots), whose entry bounds what it
	// starts.
	//
	// At-most-once: a retry of a request already seen must not execute
	// twice — a re-run Connect would allocate a second port and run a
	// second handshake. The entry is the host's, so a retry finds it on
	// whichever shard it lands. A completed request's retry is replayed the
	// cached reply; one of a request under way is dropped, for the answer
	// goes to the reply port every attempt of a call shares; so is an
	// attempt of an older call on the slot, one that waited at a shard that
	// was down while its caller moved on.
	if _, answered := m.Body.(ctl.Answered); answered {
		if m.ID == 0 || m.Reply == nil || m.Slot >= ctl.CallSlots {
			r.fed.denied++
			return
		}
		if e := r.fed.calls[callerKey(m.From, m.Slot)]; e != nil && !before(e.id, m.ID) {
			if m.ID != e.id {
				return
			}
			r.dedupHits++
			if r.host.S.Bus.Enabled() {
				r.host.S.Bus.Emit(trace.Event{Kind: trace.RegistryRPC, Node: r.host.Name,
					Text: m.Op + "-dup"})
			}
			if e.done {
				ctl.Hold(e.reply)
				m.ReplyTo(t, e.reply)
			} else if hc := e.hc; hc != nil && len(r.fed.shards) > 1 {
				// Shards run set-ups in parallel, so a full listen backlog
				// drops the SYNs of simultaneous connects together, and
				// again at their retransmissions, armed on one tick, after
				// their callers gave up. The callers' jittered retries spread
				// them: a set-up's retry runs its retransmission time-out now.
				hc.r.runConn(t, hc, hc.tc.RexmtNow)
			}
			return
		}
		r.track(t, m)
	}
	switch req := m.Body.(type) {
	case ctl.ConnectReq:
		r.handleConnect(t, m, req)
	case ctl.ListenReq:
		r.handleListen(t, m, req)
	case ctl.UnlistenReq:
		r.unlisten(req.Port, m.From)
		r.finish(t, m, kern.Msg{Op: "unlisten-ack"})
	case ctl.InheritReq:
		r.handleInherit(t, m, req)
	case ctl.TeardownReq:
		if r.issued(req.Cap, m.From) {
			_ = r.nif.Mod.DestroyChannel(r.dom, req.Cap) // its port goes with it
		}
	case ctl.AbandonReq:
		if e := r.fed.calls[callerKey(m.From, req.Slot)]; e != nil && e.id == req.ID {
			r.abandon(t, e)
		} else if req.Slot < ctl.CallSlots && (e == nil || before(e.id, req.ID)) {
			// The withdrawal overtook every attempt of its call, which wait at
			// another shard: the call is recorded as answered, so that an
			// attempt run later replays that instead of starting a set-up.
			e = r.track(t, kern.Msg{From: m.From, Slot: req.Slot, ID: req.ID})
			e.done, e.reply = true, kern.Msg{Op: m.Op, Body: stacks.ErrRegistryUnavailable}
		}
	case ctl.BindUDPReq:
		r.handleBindUDP(t, m, req)
	case ctl.ResolveReq:
		r.handleResolve(t, m, req)
	case ctl.UDPSendReq:
		r.handleUDPSend(t, m, req)
	}
}

// issued reports whether cap is installed and was issued to domain from.
func (r *Server) issued(cap *netio.Capability, from *kern.Domain) bool {
	return r.nif.Mod.Installed(cap) && cap.Owner() == from
}

// before reports whether a caller's id a was issued before its id b: ids
// rise per caller and wrap, so they compare in serial-number arithmetic
// (RFC 1982), which holds while fewer than 2^31 ids separate them.
func before(a, b uint32) bool { return int32(a-b) < 0 }

// track makes request m its caller's latest call, run by this shard, and
// returns its entry. The caller's previous entry is retired, on whichever
// shard it ran, and the hand-off its reply held given back. A connect of it
// still under way is abandoned: the caller has moved on, and its abandon,
// which may come after this call, would no longer find the entry.
func (r *Server) track(t *kern.Thread, m kern.Msg) *call {
	key := callerKey(m.From, m.Slot)
	e := r.fed.calls[key]
	if e == nil {
		e = new(call)
		r.fed.calls[key] = e
	} else if e.hc != nil {
		r.abandon(t, e)
	}
	ctl.Drop(e.reply)
	*e = call{id: m.ID, r: r}
	return e
}

// finish records request m's reply in its caller's entry and delivers it to
// m's reply port, if it has one: from t, or with a nil t asynchronously (a
// set-up's outcome, sent from an engine callback). A passive set-up (id
// zero), or a call its caller has since moved on from, finds no entry. The
// entry and the reply each hold a hand-off the reply lends; one that neither
// holds goes back.
func (r *Server) finish(t *kern.Thread, m, reply kern.Msg) {
	if e := r.fed.entry(m.From, m.Slot, m.ID); e != nil {
		e.done, e.reply, e.hc = true, reply, nil
		ctl.Hold(reply)
	}
	ctl.Hold(reply)
	switch {
	case m.Reply == nil:
		ctl.Drop(reply) // nobody to deliver it to
	case t == nil:
		m.Reply.SendAsync(r.dom, reply)
	default:
		m.ReplyTo(t, reply)
	}
}

// handoff lends a record from the shard's list carrying ho, in the message
// that answers a connect or an accept.
func (r *Server) handoff(ho ctl.Handoff) kern.Msg {
	msg := kern.Msg{Op: "handoff", Body: ctl.Lend(&r.handoffs, ho)}
	if ho.Cap != nil {
		msg.Size = ho.Snap.Size()
	}
	return msg
}

// handleConnect performs the active open on the library's behalf. The set-up
// starts only under its caller's live entry, through which the slot's next
// call, an abandon or the crash sweep aborts it, so a sender's set-ups are
// bounded by its call slots: a call retired while it computed (the slot's next
// call was tracked on another shard) is answered without one.
func (r *Server) handleConnect(t *kern.Thread, m kern.Msg, req ctl.ConnectReq) {
	c := t.Cost()
	t.Compute(c.RegistryPortAlloc + c.RegistryConnSetup)
	hc := r.newConn()
	hc.owner, hc.reply, hc.slot, hc.reqID = m.From, m.Reply, m.Slot, m.ID
	port, err := r.ports.Ephemeral()
	if err != nil {
		r.release(t, hc, ctl.Handoff{Err: err})
		return
	}
	tc := &hc.tc
	tc.Init(stacks.TCPConfig(r.nif, req.Opts), tcp.Endpoint{IP: r.nif.IP, Port: port}, req.Remote, tcp.Callbacks{})

	// On the AN1 the BQI is reserved before the SYN leaves so it can ride
	// the link header: "before initiating connection the server requests
	// the network I/O module for a BQI that the remote node can use." The
	// channel itself — and on Ethernet the software demultiplexing binding
	// — is activated as establishment completes, so handshake segments
	// reach the registry's default path.
	if r.nif.IsAN1() {
		t.Compute(t.Cost().BQIReserve)
		if hc.ourBQI, err = r.nif.Mod.ReserveBQI(r.dom); err != nil {
			r.release(t, hc, ctl.Handoff{Err: err})
			return
		}
	}
	if err := r.attach(hc, nil); err != nil {
		r.release(t, hc, ctl.Handoff{Err: err})
		return
	}
	// After the last yield, so the entry is still the call's when it takes hc.
	e := r.fed.entry(m.From, m.Slot, m.ID)
	if e == nil {
		r.release(t, hc, ctl.Handoff{Err: stacks.ErrRegistryUnavailable})
		return
	}
	e.hc = hc
	r.runConn(t, hc, func() { tc.OpenActive(r.nextISS()) })
	// The reply is sent by the established/closed callbacks.
}

// handleListen registers a passive endpoint: it writes the host's one record,
// which every shard reads from then on. A port held anywhere on the host is
// refused.
func (r *Server) handleListen(t *kern.Thread, m kern.Msg, req ctl.ListenReq) {
	t.Compute(t.Cost().RegistryPortAlloc)
	f := r.fed
	if f.portTaken(req.Port) {
		r.finish(t, m, kern.Msg{Op: "listen-ack", Body: stacks.ErrPortInUse})
		return
	}
	bl := req.Opts.Backlog
	if bl <= 0 {
		bl = stacks.DefaultBacklog
	}
	f.listeners[req.Port] = &listener{opts: req.Opts, accept: req.AcceptPort, owner: m.From, backlog: bl}
	r.finish(t, m, kern.Msg{Op: "listen-ack", Body: nil})
}

// unlisten deletes owner's listener on port, if there is one, and with it
// the listener's hold on its port.
func (r *Server) unlisten(port uint16, owner *kern.Domain) {
	if l := r.fed.listeners[port]; l != nil && l.owner == owner {
		delete(r.fed.listeners, port)
	}
}

// tuple is the four-tuple a connection capability's template names.
func tuple(cap *netio.Capability) tcp.FourTuple {
	t := cap.Template()
	return tcp.FourTuple{
		Local: tcp.Endpoint{IP: t.LocalIP, Port: t.LocalPort},
		Peer:  tcp.Endpoint{IP: t.RemoteIP, Port: t.RemotePort},
	}
}

// abandon withdraws entry e's call, whose answer nobody will adopt: the
// sender's AbandonReq names it while it is still its slot's latest call (the
// library's RPC budget ran out while the handshake was still retransmitting),
// or the caller's next call retires it under way. A set-up still under way is
// aborted, through the engine of the shard that runs it, and a connection
// already handed off to the abandoned reply port is reclaimed as a crashed
// application's would be. Nothing else would ever free either. The abort runs
// on this shard's thread, which pays for it and for the RST: the request that
// called for it came here.
func (r *Server) abandon(t *kern.Thread, e *call) {
	if hc := e.hc; !e.done && hc != nil {
		// No one is listening for the handoff: abort, and the closed callback
		// releases the set-up.
		hc.reply = nil
		hc.r.runConn(t, hc, hc.tc.Abort)
	}
	// The set-up may have completed before the abandon, or while the abort
	// waited for the engine.
	if !e.done {
		return
	}
	if ho, isHo := e.reply.Body.(*ctl.Handoff); isHo && ho.Err == nil {
		if r.nif.Mod.DestroyChannel(r.dom, ho.Cap) == nil { // only the first succeeds
			r.probePeer(t, ho.Cap)
		}
		ho.Done()
		e.reply = r.handoff(ctl.Handoff{Err: stacks.ErrRegistryUnavailable})
		ctl.Hold(e.reply)
	}
}

// handleInherit takes a connection back from an exiting application. A
// closed one needs no shepherding: its port goes back with its channel. A
// revoked capability, one issued to another domain than the sender, or a
// snapshot of another four-tuple, is refused with nothing done; one on a
// tuple the registry already owns a pcb for, before anything is registered.
func (r *Server) handleInherit(t *kern.Thread, m kern.Msg, req ctl.InheritReq) {
	t.Compute(t.Cost().StateTransfer)
	if !r.issued(req.Cap, m.From) || tuple(req.Cap) != (tcp.FourTuple{Local: req.Snap.Local, Peer: req.Snap.Peer}) {
		return
	}
	_ = r.nif.Mod.DestroyChannel(r.dom, req.Cap)
	if req.Snap.State == tcp.Closed {
		return
	}
	hc := r.newConn()
	tc := &hc.tc
	tcp.RestoreInto(tc, req.Snap, tcp.Callbacks{})
	if err := r.attach(hc, req.Cap.Owner()); err != nil {
		r.free.Put(hc)
		return
	}
	tc.TraceRestored()
	r.ports.Retain(req.Snap.Local.Port) // the pcb's, given back by release
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

// setupChannel creates the shared region, ring, capability and demux binding
// for set-up hc's endpoint, issued to its owner on the BQI it reserved (zero
// for none) — "nearly 3.4 ms are spent in setting up user channels to the
// network device". The template is final: it names the peer's link address
// once ARP knows it.
func (r *Server) setupChannel(t *kern.Thread, hc *hsConn) (*netio.Capability, *netio.Channel, error) {
	t.Compute(t.Cost().ChannelSetup)
	local, remote := hc.tc.Local(), hc.tc.Peer()
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
	tmpl.LinkDst, _ = r.nif.ARP.Lookup(r.nif.Now(), remote.IP)
	return r.nif.Mod.CreateChannelBQI(r.dom, hc.owner, spec, tmpl, 32, hc.ourBQI)
}

// newConn returns a blank connection record: a reused one if there is one.
func (r *Server) newConn() *hsConn {
	if hc := r.free.Get(); hc != nil {
		return hc
	}
	return &hsConn{r: r}
}

// attach makes the registry the owner of hc's initialised pcb: on the wheel,
// in the connection map, with the registry-side callbacks. It refuses a pcb
// whose four-tuple is taken before it registers anything. app, non-nil for an
// inherited pcb, is the application whose connection the pcb continues, and
// names it in trace events as its library did, so the trace reads as one
// connection; a set-up is named by the host.
func (r *Server) attach(hc *hsConn, app *kern.Domain) error {
	tc := &hc.tc
	ft := tc.Tuple()
	if _, dup := r.conns[ft]; dup {
		return tcp.ErrTupleInUse
	}
	r.conns[ft] = hc
	r.wheel.Init(&hc.went, tc, nil)
	if r.host.S.Bus.Enabled() {
		who := r.host.Name
		if app != nil {
			who = app.String()
		}
		tc.SetTrace(r.host.S.Bus, who+" "+tc.Local().String()+">"+tc.Peer().String())
	}
	if hc.cb.Send == nil {
		hc.cb = tcp.Callbacks{Send: hc.send, OnEstablished: hc.established, OnClosed: hc.closed}
	}
	tc.SetCallbacks(hc.cb)
	return nil
}

func (hc *hsConn) send(seg *pkt.Buf, h tcp.Header, _ int) { hc.r.transmit(seg, hc, h) }

func (hc *hsConn) established() { hc.r.established(hc) }

// closed is the pcb's OnClosed: a set-up that failed, was refused, gave up or
// was aborted ends here, and so does an inherited connection once it has
// closed. A failed passive handshake is no news to the listener: only a
// connection, or a failure to hand one off, goes to its accept port.
func (hc *hsConn) closed(err error) {
	if hc.l != nil {
		hc.reply = nil
	}
	hc.r.release(nil, hc, ctl.Handoff{Err: stacks.MapError(err)})
}

// release ends set-up hc — it failed, was refused, gave up, was abandoned or
// crashed, or ho hands it off — and gives back each thing it holds, once:
//   - once attached, its conns and wheel entries and a passive set-up's
//     backlog slot; the record is retired (runEngine frees it when the pass
//     has unwound, and the bumped gen turns away a thread that waited for the
//     engine with it in hand);
//   - its port reference (none for a passive set-up, which shares its
//     listener's, or for an active one whose allocation failed): a handed-off
//     connection's port is held by its endpoint;
//   - unless ho carries a capability, whose channel took it, its reserved
//     BQI;
//   - last, the answer: ho goes to hc.reply, from t or with a nil t
//     asynchronously (an engine callback), and completes the connect's dedup
//     entry even if nobody waits any more: the entry must not name a record
//     about to be reused.
func (r *Server) release(t *kern.Thread, hc *hsConn, ho ctl.Handoff) {
	tc := &hc.tc
	if ft := tc.Tuple(); r.conns[ft] == hc {
		delete(r.conns, ft)
		r.wheel.Drop(&hc.went)
		hc.gen++
		r.retired = append(r.retired, hc)
		if hc.l != nil {
			hc.l.pending--
		}
	}
	if port := tc.Local().Port; hc.l == nil && port != 0 {
		r.ports.Release(port)
	}
	if ho.Cap == nil {
		_ = r.nif.Mod.ReleaseBQI(r.dom, hc.ourBQI)
	}
	r.finish(t, kern.Msg{From: hc.owner, Slot: hc.slot, ID: hc.reqID, Reply: hc.reply}, r.handoff(ho))
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
	t.Compute(stacks.SegCost(r.host, seg.Len()))
	// Handshake segments advertise our data-phase BQI in the link header
	// but are themselves addressed to the peer's protected kernel queue
	// (BQI zero): only data-phase traffic uses the negotiated rings.
	r.nif.SendTCP(t, seg, tc.Peer().IP, hc.ourBQI)
}

// established completes setup: create the channel and transfer the state to
// the library.
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
	cap, _, err := r.setupChannel(t, hc)
	if err != nil {
		// Nothing to hand off: answer the requester with the error. The pcb
		// stays ESTABLISHED, so it must not call back into a record that is
		// no longer this connection's.
		tc.SetCallbacks(tcp.Callbacks{})
		r.release(nil, hc, ctl.Handoff{Err: err})
		return
	}
	// Transfer TCP state to user level.
	t.Compute(t.Cost().StateTransfer)
	r.release(nil, hc, ctl.Handoff{Snap: tc.Snapshot(), Cap: cap, PeerBQI: hc.peerBQI})
}

func (r *Server) runEngine(t *kern.Thread, fn func()) {
	r.lock.P(t.Proc)
	r.cur = t
	fn()
	r.cur = nil
	// The pass has unwound: nothing on this stack touches the records it
	// released again, and nothing else can name them (release) — unless a wheel
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
// inside fn released the set-up — the engine closed, or established() handed
// the still-live connection to its library. And the whole pass does nothing
// if the registry released the connection while the caller waited for the
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

// handleCrash is one shard's sweep of a crashed application (Federation.watch
// posts one to each shard): the shard's handshaking connections for it are
// aborted (RST through the engine), the network I/O module revokes every
// endpoint issued to it, whichever shard issued it, and each revoked
// connection's peer is probed into a reset; its listeners and its callers'
// entries are removed. "To guard against an abnormal application
// termination, the protocol server issues a reset message to the remote
// peer" — here with no cooperation from the application at all.
func (r *Server) handleCrash(t *kern.Thread, dom *kern.Domain) {
	t.Compute(t.Cost().StateTransfer)

	// Every table is walked in key or capability-id order, never map order:
	// each step puts frames on the wire or frees a ring index the next set-up
	// reuses.
	//
	// Registry-owned pcbs (handshakes in flight for the dead app): abort.
	var dead []*hsConn
	for _, hc := range r.conns {
		if hc.owner == dom {
			hc.reply = nil // no one is listening for the handoff
			dead = append(dead, hc)
		}
	}
	sort.Slice(dead, func(i, j int) bool { return dead[i].tc.Tuple().Less(dead[j].tc.Tuple()) })
	for _, hc := range dead {
		// Each abort may wait for the engine, and what held it may have
		// dropped a later victim, whose record may be on its next connection
		// already: abort only what is still a set-up of the dead application.
		if r.conns[hc.tc.Tuple()] != hc || hc.owner != dom {
			continue
		}
		r.runConn(t, hc, hc.tc.Abort) // the closed callback releases the set-up
	}

	// Its endpoints, all revoked before the first probe leaves: a shard
	// that sweeps later finds none, so each peer is probed once.
	revoked, _ := r.nif.Mod.RevokeOwner(r.dom, dom)
	for _, cap := range revoked {
		if cap.Template().Proto == ipv4.ProtoTCP {
			r.probePeer(t, cap)
		}
	}

	// Its listeners, in any order: the first shard to sweep deletes them,
	// and a deletion sends nothing.
	for port := range r.fed.listeners {
		r.unlisten(port, dom)
	}

	// Its callers' entries, in any order: the first shard to sweep deletes
	// them, and a dropped hold lists a record.
	for key, e := range r.fed.calls {
		if sender(key) == dom.Index() {
			ctl.Drop(e.reply)
			delete(r.fed.calls, key)
		}
	}
}

// probePeer resets the peer of reclaimed connection cap — one its
// application dropped by crashing or abandoning it — without knowing the
// sequence numbers, which the library moved after the hand-off unseen. It
// sends a bare segment: the peer tests its sequence number before anything
// else (RFC 793 p. 69) and answers an unacceptable one with its own ACK,
// which lands on this host's default path, where the tuple is gone, and is
// answered by the receive pipeline's no-endpoint case with a reset aimed
// exactly at the peer's expected sequence. The probe carries no ACK bit, so
// it claims nothing about data it never saw.
func (r *Server) probePeer(t *kern.Thread, cap *netio.Capability) {
	ft := tuple(cap)
	h := tcp.Header{SrcPort: ft.Local.Port, DstPort: ft.Peer.Port}
	b := pkt.FromBytes(r.nif.Headroom()+tcp.HeaderLen, nil)
	h.Encode(b, ft.Local.IP, ft.Peer.IP)
	c := t.Cost()
	t.Compute(c.RegistrySendPath)
	t.Compute(stacks.SegCost(r.host, b.Len()))
	r.nif.SendTCP(t, b, ft.Peer.IP, 0)
}

// ---------------------------------------------------------------------------
// Crash recovery: rebuild and adoption from the module
// ---------------------------------------------------------------------------

// rebuild re-issues, to a restarted registry, the endpoints the network I/O
// module holds for it — the in-kernel module, not the crashed server's
// memory, is the authoritative record of what endpoints exist (the paper's
// trust split: the module is trusted, everything above it is
// reconstructible).
//
// Listeners, callers' entries and death hooks need no rebuilding: they are
// the host's and outlive a shard. What is deliberately NOT rebuilt:
// in-flight handshakes (the library's RPC retry re-creates an active one, the
// peer's SYN retransmission a passive one), and inherited TIME_WAIT pcbs
// (strays for them get RSTs from the no-endpoint path, which is the correct
// terminal outcome for a half-dead connection).
func (r *Server) rebuild(t *kern.Thread) {
	n := r.adopt(t)
	if r.host.S.Bus.Enabled() {
		r.host.S.Bus.Emit(trace.Event{Kind: trace.RegistryRestart, Node: r.host.Name,
			A: int64(r.epoch), B: int64(n)})
	}
}

// adopt is the one recovery sweep, run by a restarted shard and by the shard
// that covers a dead sibling once its endpoints quarantine. It re-issues, in
// capability-id order, every installed endpoint the shard stands for and did
// not issue — of TCP, the connection endpoints of each slice it covers
// (Shards.Cover); shard 0 all datagram endpoints. Re-issuing makes this
// incarnation the endpoint's issuer, away from a dead shard or a survivor
// that held it during an outage, and so lifts any quarantine. It returns how
// many it took.
func (r *Server) adopt(t *kern.Thread) int {
	caps, err := r.nif.Mod.InstalledEndpoints(r.dom)
	if err != nil {
		return 0
	}
	c := t.Cost()
	n := 0
	for _, cap := range caps {
		tmpl, ft := cap.Template(), tuple(cap)
		conn := tmpl.Proto == ipv4.ProtoTCP && tmpl.RemotePort != 0 &&
			r.fed.Cover(r.fed.Owner(ft.Local, ft.Peer)) == r.shardIdx
		if tmpl.LocalIP != r.nif.IP || cap.Issuer() == r.dom ||
			!conn && (tmpl.Proto != ipv4.ProtoUDP || r.shardIdx != 0) {
			continue // not this shard's, or held already
		}
		_ = r.nif.Mod.Reissue(r.dom, cap)
		t.Compute(c.RegistryPortAlloc)
		n++
	}
	r.rebuilt += n
	return n
}

// ---------------------------------------------------------------------------
// Introspection for tests and diagnostics
// ---------------------------------------------------------------------------

// OwnedConns returns how many pcbs the registry currently owns
// (handshaking, inherited, TIME_WAIT).
func (r *Server) OwnedConns() int { return len(r.conns) }

// endpoints returns the module's endpoints of protocol proto that this shard
// issued, or adopted, and the module still holds.
func (r *Server) endpoints(proto uint8) []*netio.Capability {
	caps, _ := r.nif.Mod.InstalledEndpoints(r.dom)
	mine := caps[:0]
	for _, cap := range caps {
		if cap.Issuer() == r.dom && cap.Template().Proto == proto {
			mine = append(mine, cap)
		}
	}
	return mine
}

// TransferredConns returns how many connections this shard handed off to
// libraries, or adopted, and the module still holds.
func (r *Server) TransferredConns() int { return len(r.endpoints(ipv4.ProtoTCP)) }

// PortsInUse returns the TCP ports this shard's tables or its connections'
// endpoints hold, but not a listener's (Federation.PortsInUse counts those),
// plus its bound UDP ports. Crash and orderly-exit tests assert this returns
// to zero.
func (r *Server) PortsInUse() int {
	n := r.ports.InUse() + len(r.endpoints(ipv4.ProtoUDP))
	seen := make(map[uint16]bool)
	for _, cap := range r.endpoints(ipv4.ProtoTCP) {
		if p := cap.Template().LocalPort; !seen[p] && !r.ports.Holds(p) && r.fed.listeners[p] == nil {
			seen[p] = true
			n++
		}
	}
	for p := range r.fed.listeners {
		if r.ports.Holds(p) {
			n--
		}
	}
	return n
}
