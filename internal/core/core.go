// Package core implements the paper's primary contribution: the user-level
// protocol library. TCP, IP and (implicitly, via setup-time resolution) ARP
// functionality is linked into the application's address space. The library
//
//   - asks the registry server to allocate end-points and complete the
//     three-way handshake, then receives the established connection's TCP
//     state, a send capability, and a shared-memory channel;
//   - thereafter runs the entire data path itself: "the server is bypassed
//     in the common path of data transmission and reception";
//   - is multithreaded: a per-connection input thread is upcalled from the
//     channel's lightweight semaphore ("protocol control block lookups are
//     eliminated by having separate threads per connection"), and fast/slow
//     timer threads drive the BSD tick machinery;
//   - moves user data through the shared region, avoiding per-byte copies
//     on the send path ("a buffer organization that eliminates byte
//     copying");
//   - on exit hands open connections back to the registry, which preserves
//     TIME_WAIT semantics or resets the peer on abnormal termination.
package core

import (
	"hash/fnv"
	"sort"
	"time"

	"ulp/internal/freelist"
	"ulp/internal/ipv4"
	"ulp/internal/kern"
	"ulp/internal/link"
	"ulp/internal/netio"
	"ulp/internal/pkt"
	"ulp/internal/registry"
	"ulp/internal/sim"
	"ulp/internal/stacks"
	"ulp/internal/tcp"
)

// Library is one application's protocol library instance.
type Library struct {
	s    *sim.Sim
	host *kern.Host
	app  *kern.Domain
	reg  *registry.Federation
	mod  *netio.Module
	nif  *stacks.Netif

	// meta is the metaregistry index: control-plane requests are routed to
	// the authoritative registry shard through it.
	meta *registry.Meta
	// rr sequences round-robin connect routing across live shards.
	rr uint64
	// batchq feeds the batcher thread; nil when the registry is one shard
	// and requests go to it one IPC each.
	batchq *sim.Queue[batchItem]

	conns map[*Conn]struct{}
	ids   ipv4.IDGen
	// free holds the records of closed connections nobody is inside any more.
	free freelist.List[*connRec]
	// The socket-call cost hooks are the same for every connection.
	entry               func(t *kern.Thread)
	writeMove, readMove func(t *kern.Thread, n int)

	// wheel holds every connection's TCP timers.
	wheel *stacks.TCPWheel

	// backoff drives control-plane retry delays (capped exponential with
	// seeded jitter, shared schedule with the reconnect path).
	backoff *stacks.Backoff

	// idBase/reqSeq generate request IDs: the per-app hash base keeps IDs
	// from different libraries on one registry distinct, the counter keeps
	// them unique within the app. A retry reuses its request's ID, which
	// is what lets the registry deduplicate.
	idBase, reqSeq uint64

	// reconnecting guards the single reconnect thread.
	reconnecting bool
}

// Control-plane RPC hardening: every registry call carries a deadline and a
// bounded retry budget, so a dead or wedged registry turns into a clean
// ErrRegistryUnavailable instead of a hung application. Backoff doubles per
// attempt up to a cap with jitter so concurrent retriers do not
// re-synchronize.
const (
	rpcAttempts    = 4
	rpcBaseTimeout = 250 * time.Millisecond
	rpcTimeoutCap  = 2 * time.Second

	// reconnectAttempts bounds how long a library keeps trying to re-adopt
	// its connections with a reborn registry before surfacing a terminal
	// error. With the shared backoff schedule this spans several lease
	// TTLs — long enough for any scheduled restart, finite so a registry
	// that never returns yields ErrRegistryUnavailable, not a hang.
	reconnectAttempts = 10

	// batchWindow is how long the batcher thread holds the first queued
	// control request to coalesce whatever else the application issues in
	// the same tick into one kernel IPC per shard.
	batchWindow = 100 * time.Microsecond

	// admissionRetries bounds how often a quota-denied connect is retried
	// (each retry is a fresh request under the shared backoff schedule —
	// the denial executed nothing, so a new id is correct and required:
	// reusing the id would replay the cached denial forever).
	admissionRetries = 12
)

// nextReqID issues a fresh request id (never zero).
func (l *Library) nextReqID() uint64 {
	l.reqSeq++
	return l.idBase | l.reqSeq
}

// callRegistry issues one control-plane RPC under the deadline/retry policy.
// All attempts carry the same request ID, so a retry whose original was
// executed (reply lost) is answered from the registry's dedup cache rather
// than re-executed.
func (l *Library) callRegistry(t *kern.Thread, m kern.Msg) (kern.Msg, error) {
	return l.callPort(t, nil, m)
}

// callPort is callRegistry aimed at an explicit shard service port. A nil
// svc re-picks the default control port per attempt, so retries fail over
// past a shard that crashed mid-call.
func (l *Library) callPort(t *kern.Thread, svc *kern.Port, m kern.Msg) (kern.Msg, error) {
	m.ID = l.nextReqID()
	timeout := rpcBaseTimeout
	for attempt := 0; attempt < rpcAttempts; attempt++ {
		p := svc
		if p == nil {
			p = l.svcDefault()
		}
		if reply, ok := p.CallTimeout(t, m, timeout); ok {
			return reply, nil
		}
		if attempt < rpcAttempts-1 {
			t.Sleep(l.backoff.Next(attempt))
		}
		if timeout < rpcTimeoutCap {
			timeout *= 2
		}
	}
	return kern.Msg{}, stacks.ErrRegistryUnavailable
}

// svcDefault returns the default control port: the datagram-plane shard (0)
// with live failover.
func (l *Library) svcDefault() *kern.Port {
	return l.meta.Svc(l.meta.Route(0))
}

// svcOwner returns the control port of the shard that owns a tuple,
// failing over to the next live shard while the owner is down.
func (l *Library) svcOwner(local, peer tcp.Endpoint) *kern.Port {
	return l.meta.Svc(l.meta.OwnerOrSuccessor(local, peer))
}

// NewLibrary links the protocol library into an application domain. Control
// RPCs are routed through the registry's metaregistry index.
func NewLibrary(s *sim.Sim, app *kern.Domain, reg *registry.Federation) *Library {
	h := fnv.New64a()
	h.Write([]byte(app.String()))
	l := &Library{
		s:       s,
		host:    app.Host,
		app:     app,
		reg:     reg,
		meta:    reg.Meta(),
		nif:     reg.Netif(),
		mod:     reg.Netif().Mod,
		conns:   make(map[*Conn]struct{}),
		wheel:   stacks.NewTCPWheel(),
		backoff: stacks.NewBackoff(seedFrom(app.Host.Name), rpcBaseTimeout/2, rpcTimeoutCap),
		idBase:  h.Sum64() &^ 0xFFFFF, // low 20 bits carry the counter
	}
	cost := &l.host.Cost
	l.entry = func(t *kern.Thread) { t.Compute(cost.ProcCall) }
	// Send-side data enters the shared region without a per-byte copy.
	l.writeMove = func(t *kern.Thread, n int) { t.Compute(cost.SockbufOp) }
	l.readMove = func(t *kern.Thread, n int) { t.Compute(cost.Copy(n) + cost.SockbufOp) }
	// Policy: against a sharded registry, connects and teardowns are held
	// for batchWindow on a dedicated thread and coalesced into one IPC per
	// shard, which is what keeps N shards fed under churn. A lone registry
	// gets each request as its own IPC from the calling thread, with no
	// added latency: there is one port to send to and the paper's library
	// has no such thread.
	if l.meta.Shards() > 1 {
		l.batchq = sim.NewQueue[batchItem](s)
		app.Spawn("lib-batch", l.batcher)
	}
	// There is no library-wide engine lock to bracket a wheel advance with;
	// each fire takes its connection's own.
	l.wheel.Drive(l.app, "lib", stacks.DriverHooks{
		Fire: func(t *kern.Thread, e *stacks.WheelEnt, fn func(*stacks.WheelEnt)) {
			e.Owner.(*connRec).runWheelFire(t, e, fn)
		},
	})
	return l
}

// batchItem is one control request queued for coalescing.
type batchItem struct {
	svc *kern.Port
	m   kern.Msg
}

// post sends a control request whose reply, if any, comes back on m.Reply:
// through the batcher when there is one (a queue push has no cost and never
// blocks, so engine context may call it), else as one IPC — charged to t, or
// with a nil t from engine context, asynchronously to the host.
func (l *Library) post(t *kern.Thread, svc *kern.Port, m kern.Msg) {
	switch {
	case l.batchq != nil:
		l.batchq.Push(batchItem{svc: svc, m: m})
	case t != nil:
		svc.Send(t, m)
	default:
		svc.SendAsync(m)
	}
}

// batcher coalesces the control requests issued within one window into a
// single kernel IPC per destination shard: under churn, the per-request
// Mach IPC + context-switch cost is paid once per batch instead of once
// per request. Arrival order is preserved within and across batches.
func (l *Library) batcher(t *kern.Thread) {
	// The two lists are scratch, reused from batch to batch. A batch's
	// message list is not: it travels in the IPC and is the registry's.
	var items, rest []batchItem
	for {
		first := l.batchq.Pop(t.Proc)
		t.Sleep(batchWindow)
		items = append(items[:0], first)
		for {
			it, ok := l.batchq.TryPop()
			if !ok {
				break
			}
			items = append(items, it)
		}
		// Group by destination shard in arrival order (first-seen shard
		// flushes first — deterministic, no map iteration).
		for len(items) > 0 {
			svc := items[0].svc
			n, size := 0, 0
			for _, it := range items {
				if it.svc == svc {
					n++
					size += it.m.Size
				}
			}
			var msgs []kern.Msg
			if n > 1 {
				msgs = make([]kern.Msg, 0, n)
			}
			rest = rest[:0]
			for _, it := range items {
				switch {
				case it.svc != svc:
					rest = append(rest, it)
				case n > 1:
					msgs = append(msgs, it.m)
				}
			}
			if n == 1 {
				svc.Send(t, items[0].m)
			} else {
				svc.Send(t, kern.Msg{Op: "batch", Size: size, Body: kern.Batch{Msgs: msgs}})
			}
			items, rest = rest, items
		}
		clear(items[:cap(items)]) // the requests are sent: do not pin them
		clear(rest[:cap(rest)])
	}
}

// seedFrom derives a per-host jitter seed so retry schedules differ across
// hosts but are identical across runs.
func seedFrom(name string) int64 {
	s := int64(17)
	for _, ch := range name {
		s = s*31 + int64(ch)
	}
	return s
}

// Name identifies the organization.
func (l *Library) Name() string { return "userlib" }

// Host returns the host the library runs on.
func (l *Library) Host() *kern.Host { return l.host }

// Conn is the handle an application holds on a library-owned connection. It
// is never reused. The connection's state is in rec, which is (DESIGN §5.5):
// once the engine has closed and the last thread has left the connection, rec
// goes back to the library for its next connection, and the handle answers
// from final what it would have answered from the closed engine.
type Conn struct {
	lib   *Library
	rec   *connRec
	final *closedConn
	ch    *netio.Channel
	done  bool
}

// closedConn is what a handle remembers of a connection whose record is gone.
type closedConn struct {
	stats tcp.Stats
	err   error // the socket's close reason
	eof   bool  // the peer's FIN was read
}

// connRec is the reusable part of a connection: the engine with its socket
// buffers, the blocking wrapper and its condition variables, the engine
// lock, the wheel entry, and the framing parameters negotiated at setup.
type connRec struct {
	c    *Conn // the handle of the connection the record currently is
	tc   tcp.Conn
	sock stacks.Sock
	lock sim.Semaphore
	went stacks.WheelEnt // timing-wheel registration
	// cbs holds the engine callbacks, bound to the record once.
	cbs tcp.Callbacks

	cap  *netio.Capability
	opts stacks.Options

	peerHW  link.Addr
	peerBQI uint16

	cur *kern.Thread
	// pins counts the threads inside the record: every application call
	// under way and the input thread. closed marks that the engine reached
	// CLOSED and teardown ran. The last thread to leave a closed connection
	// recycles the record (unpin).
	pins   int
	closed bool
}

// Scrub leaves a closed pcb with no callbacks, a dropped wheel entry and a
// socket and lock that belong to no simulation; the socket buffers' and the
// waiter lists' arrays and the bound callbacks stay.
func (r *connRec) Scrub() {
	r.tc.Scrub()
	r.went.Scrub()
	r.sock.Init(nil, nil)
	r.lock.Init(nil, "", 0)
	*r = connRec{tc: r.tc, sock: r.sock, lock: r.lock, went: r.went, cbs: r.cbs}
}

// unpin ends the calling thread's stay in r. If it is the last one out and
// the connection is closed, the record is recycled: teardown took it out of
// the library's tables and off the wheel, so the handle's pointer is the only
// one left — unless a wheel driver is part-way through firing the entry, or
// the application has yet to read what the peer sent, in which case the
// record stays with the handle (a later call's unpin looks again).
func (c *Conn) unpin(r *connRec) {
	r.pins--
	if r.pins > 0 || !r.closed || !r.went.Idle() || r.tc.Readable() > 0 {
		return
	}
	_, err := r.sock.Closed()
	c.final = &closedConn{stats: r.tc.Stats(), err: err, eof: r.tc.EOF()}
	c.rec = nil
	c.lib.free.Put(r)
}

// Connect implements the stacks.Stack interface: active open via the
// registry, then adopt the established connection.
func (l *Library) Connect(t *kern.Thread, remote tcp.Endpoint, opts stacks.Options) (stacks.Conn, error) {
	t.Compute(t.Cost().ProcCall)
	reply, err := l.callConnect(t, registry.ConnectReq{Remote: remote, Opts: opts, Owner: l.app})
	if err != nil {
		return nil, err
	}
	ho, ok := reply.Body.(registry.Handoff)
	if !ok {
		return nil, stacks.ErrClosed
	}
	if ho.Err != nil {
		return nil, ho.Err
	}
	return l.adopt(t, ho, opts), nil
}

// callConnect issues an active open under callPort's deadline/retry policy:
// round-robin over live shards (re-picked per retry, so a crashed shard's
// retries fail over), posted with a private reply port per attempt. A quota
// denial is retried as a fresh request under backoff — the denied attempt
// executed nothing, and reusing its id would only replay the cached denial.
func (l *Library) callConnect(t *kern.Thread, req registry.ConnectReq) (kern.Msg, error) {
	id := l.nextReqID()
	timeout := rpcBaseTimeout
	denied := 0
	for attempt := 0; attempt < rpcAttempts; {
		shard := l.meta.Route(l.rr)
		l.rr++
		replyPort := kern.NewPort(l.host, "connect-reply")
		l.post(t, l.meta.Svc(shard),
			kern.Msg{Op: "connect", ID: id, Reply: replyPort, Body: req})
		m, ok := replyPort.ReceiveTimeout(t, timeout)
		if ok {
			if ho, isHo := m.Body.(registry.Handoff); isHo && ho.Err == stacks.ErrAdmissionDenied {
				denied++
				if denied > admissionRetries {
					return m, nil // surface the denial to the application
				}
				id = l.nextReqID()
				t.Sleep(l.backoff.Next(denied - 1))
				continue // denied retries do not burn the deadline budget
			}
			return m, nil
		}
		attempt++
		if attempt < rpcAttempts {
			t.Sleep(l.backoff.Next(attempt - 1))
		}
		if timeout < rpcTimeoutCap {
			timeout *= 2
		}
	}
	return kern.Msg{}, stacks.ErrRegistryUnavailable
}

// Listener is the library side of a passive open.
type Listener struct {
	lib    *Library
	port   uint16
	opts   stacks.Options
	accept *kern.Port
}

// Listen implements stacks.Stack. The listener is replicated to every
// registry shard — a passive tuple's handshake runs on the shard its hash
// selects, and any shard must be able to answer a SYN — so the effective
// backlog is per shard (N× the single-registry bound). A dead shard a live
// sibling covers for is skipped: its next incarnation re-replicates from a
// survivor.
func (l *Library) Listen(t *kern.Thread, port uint16, opts stacks.Options) (stacks.Listener, error) {
	t.Compute(t.Cost().ProcCall)
	acceptPort := kern.NewPort(l.host, "accept")
	req := registry.ListenReq{Port: port, Opts: opts, AcceptPort: acceptPort, Owner: l.app}
	var firstErr error
	n := 0
	for i := 0; i < l.meta.Shards(); i++ {
		if l.meta.Covered(i) {
			continue
		}
		reply, err := l.callPort(t, l.meta.Svc(i), kern.Msg{Op: "listen", Body: req})
		if err == nil {
			err, _ = reply.Body.(error)
		}
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		n++
	}
	if n == 0 {
		return nil, firstErr
	}
	return &Listener{lib: l, port: port, opts: opts, accept: acceptPort}, nil
}

// Accept blocks for the next established connection handed off by the
// registry.
func (ln *Listener) Accept(t *kern.Thread) (stacks.Conn, error) {
	m := ln.accept.Receive(t)
	t.Compute(t.Cost().ContextSwitch) // handoff message receipt
	ho := m.Body.(registry.Handoff)
	if ho.Err != nil {
		return nil, ho.Err
	}
	return ln.lib.adopt(t, ho, ln.opts), nil
}

// Close stops listening. A registry that has become unavailable is
// tolerated: the endpoint is abandoned and reclaimed by crash cleanup. The
// unlisten goes to every shard the listen went to.
func (ln *Listener) Close(t *kern.Thread) {
	t.Compute(t.Cost().ProcCall)
	l := ln.lib
	m := kern.Msg{Op: "unlisten", Body: registry.UnlistenReq{Port: ln.port}}
	for i := 0; i < l.meta.Shards(); i++ {
		if !l.meta.Covered(i) {
			_, _ = l.callPort(t, l.meta.Svc(i), m)
		}
	}
}

// adopt turns a registry handoff into a live library connection.
func (l *Library) adopt(t *kern.Thread, ho registry.Handoff, opts stacks.Options) *Conn {
	r := l.free.Get()
	if r == nil {
		r = new(connRec)
	}
	c := &Conn{lib: l, rec: r, ch: ho.Channel}
	r.c = c
	r.cap, r.opts = ho.Cap, opts
	r.peerHW, r.peerBQI = ho.PeerHW, ho.PeerBQI
	r.lock.Init(l.s, "conn-engine", 1)
	tc := &r.tc
	tcp.RestoreInto(tc, ho.Snap, tcp.Callbacks{})
	if bus := l.reg.Bus(); bus.Enabled() {
		tc.SetTrace(bus, l.app.String()+" "+tc.Local().String()+">"+tc.Peer().String())
	}
	sock := &r.sock
	sock.Init(l.s, tc)
	sock.Entry, sock.WriteMove, sock.ReadMove = l.entry, l.writeMove, l.readMove
	sock.Eng = r
	if r.cbs.Send == nil {
		r.cbs = sock.Callbacks(r.transmit)
		innerClosed := r.cbs.OnClosed
		r.cbs.OnClosed = func(err error) {
			innerClosed(err)
			r.teardown()
		}
	}
	tc.SetCallbacks(r.cbs)
	sock.MarkEstablished()

	l.conns[c] = struct{}{}
	l.wheel.Init(&r.went, tc, r)
	// An empty engine pass syncs the restored counters (the handshake may
	// have left the keepalive or retransmit timer armed) onto the wheel.
	r.EnterEngine(t)
	r.LeaveEngine(t)
	r.pins = 1 // the input thread, until it returns
	l.app.Spawn("conn-input", c.inputThread)
	return c
}

// transmit is the library's data-path output: protocol processing in the
// calling thread, headers built in the shared region, then the specialized
// kernel entry with the send capability.
func (r *connRec) transmit(seg stacks.Seg) {
	t, l := r.cur, r.c.lib
	if t == nil {
		panic("core: engine transmit outside EnterEngine/LeaveEngine")
	}
	t.Compute(stacks.SegCost(l.host, seg.PayloadLen, r.opts.NoChecksum))
	ih := ipv4.Header{
		ID: l.ids.Next(), DF: true, TTL: 64,
		Proto: ipv4.ProtoTCP, Src: r.tc.Local().IP, Dst: r.tc.Peer().IP,
	}
	ih.Encode(seg.Buf)
	l.nif.Frame(seg.Buf, r.peerHW, link.TypeIPv4, r.peerBQI, 0)
	// Template violations cannot happen from this code path; a buggy or
	// malicious library would be stopped here by the kernel. A lease
	// rejection is different: it means the control plane died and our
	// endpoint is quarantined — kick off re-registration with the (to-be-)
	// reborn registry. The rejected segment is recovered by ordinary TCP
	// retransmission once the quarantine lifts.
	if err := l.mod.Send(t, r.cap, seg.Buf); err == netio.ErrLeaseExpired {
		l.scheduleReconnect()
	}
}

// scheduleReconnect starts the (single) reconnect thread. Called from
// engine context, so it only spawns; the loop does the blocking work.
func (l *Library) scheduleReconnect() {
	if l.reconnecting {
		return
	}
	l.reconnecting = true
	l.app.Spawn("reconnect", l.reconnectLoop)
}

// reconnectLoop retries re-registration of every live connection with
// capped exponential backoff + seeded jitter (the schedule shared with
// callRegistry). When the budget is spent without reaching a registry, a
// terminal ErrRegistryUnavailable is surfaced on every connection.
func (l *Library) reconnectLoop(t *kern.Thread) {
	defer func() { l.reconnecting = false }()
	for attempt := 0; attempt < reconnectAttempts; attempt++ {
		t.Sleep(l.backoff.Next(attempt))
		if l.reregisterAll(t) {
			return
		}
		if len(l.conns) == 0 {
			return // nothing left to re-adopt
		}
	}
	for _, c := range l.sortedConns() {
		c.fail(stacks.ErrRegistryUnavailable)
	}
}

// reregisterAll re-claims every live connection with the registry. It
// reports whether the registry answered; a refused claim (capability
// revoked, template mismatch) fails that connection but counts as contact.
func (l *Library) reregisterAll(t *kern.Thread) bool {
	for _, c := range l.sortedConns() {
		if c.done {
			continue // closed or failed while an earlier claim waited for its answer
		}
		r := c.rec
		snap := r.tc.Snapshot()
		m := kern.Msg{Op: "reregister", ID: l.nextReqID(), Body: registry.ReRegisterReq{
			Local: r.tc.Local(), Peer: r.tc.Peer(), Cap: r.cap,
			PeerHW: r.peerHW, PeerBQI: r.peerBQI,
			SndNxt: snap.SndNxt, RcvNxt: snap.RcvNxt,
			Owner: l.app,
		}}
		reply, ok := l.svcOwner(r.tc.Local(), r.tc.Peer()).CallTimeout(t, m, rpcBaseTimeout)
		if !ok {
			return false
		}
		if err, _ := reply.Body.(error); err != nil {
			// The reborn registry refused the claim: this endpoint no
			// longer exists as far as the kernel is concerned.
			c.fail(stacks.ErrReset)
		}
	}
	return true
}

// sortedConns returns the live connections in four-tuple order, so map
// iteration cannot perturb the deterministic schedule. The whole tuple is
// the key: connections accepted through one listener share a local port.
// A caller that blocks between one connection and the next must skip those
// that are done by the time it gets to them: they have left Library.conns,
// and their record and channel may be another connection's.
func (l *Library) sortedConns() []*Conn {
	out := make([]*Conn, 0, len(l.conns))
	for c := range l.conns {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].tuple().Less(out[j].tuple()) })
	return out
}

// tuple is for a connection in Library.conns, which has its record.
func (c *Conn) tuple() tcp.FourTuple {
	return tcp.FourTuple{Local: c.rec.tc.Local(), Peer: c.rec.tc.Peer()}
}

// fail terminates a connection without driving the engine: the control
// plane is unreachable (or repudiated the connection), so there is nothing
// orderly left to do. Blocked readers and writers wake with err.
func (c *Conn) fail(err error) {
	if c.done {
		return
	}
	c.done = true
	c.ch.Poke()
	delete(c.lib.conns, c)
	c.lib.wheel.Drop(&c.rec.went)
	c.rec.tc.SetCallbacks(tcp.Callbacks{})
	c.rec.sock.Fail(err)
}

// inputThread is the per-connection upcalled thread: it waits on the
// channel's lightweight semaphore and feeds batches to the engine.
//
// Zero-copy interplay: on a ZeroCopyRx channel the batch frames are the
// module's pool buffers handed over by reference, with the channel holding
// a lien that settles at the next Wait. The contract this loop satisfies is
// that a batch is fully consumed before Wait is called again — inputFrame
// releases each frame after TCP reassembly copies what it keeps, and the
// deferred sweep below covers a mid-batch kill — so the lien settling
// underneath us can never free storage we still read.
func (c *Conn) inputThread(t *kern.Thread) {
	r := c.rec // adopt pinned it for this thread
	cost := &c.lib.host.Cost
	// If the domain is killed mid-batch (Kill unwinds the thread, running
	// its deferred functions), the frame being processed is released by
	// inputFrame's own defer — but the rest of the drained batch would
	// leak: it has already left the channel, so no sweep can see it. Hold
	// the batch in function scope and release the unprocessed tail on the
	// way out.
	var batch []*pkt.Buf
	next := 0
	defer func() {
		for _, b := range batch[next:] {
			b.Release()
		}
	}()
	for !c.done {
		batch = c.ch.Wait(t)
		next = 0
		if len(batch) == 0 {
			continue // poked for shutdown or spurious wakeup
		}
		for i, b := range batch {
			next = i + 1
			r.inputFrame(t, b)
		}
		if r.sock.ReadableWaiters() > 0 {
			// Hand off to the blocked application thread.
			t.Compute(cost.ThreadSwitch)
		}
	}
	// This thread was the channel's only consumer and is done with it. A
	// killed thread never gets here: its channel and record are never reused.
	batch, next = nil, 0
	c.ch.Disown()
	c.unpin(r)
}

// inputFrame processes one frame from the shared region. The frame dies
// here on every path — tcp.Conn.Input copies the payload bytes it keeps —
// so the buffer goes back to the free list when processing completes.
func (r *connRec) inputFrame(t *kern.Thread, b *pkt.Buf) {
	defer b.Release()
	if et, _, err := r.c.lib.nif.StripLink(b); err != nil || et != link.TypeIPv4 {
		return
	}
	ih, err := ipv4.Decode(b)
	if err != nil || ih.Proto != ipv4.ProtoTCP || ih.Dst != r.tc.Local().IP {
		return
	}
	if th, ok := stacks.DecodeSegment(t, ih, b, r.opts.NoChecksum, 0); ok {
		r.EnterEngine(t)
		r.tc.Input(th, b.Bytes())
		r.LeaveEngine(t)
	}
}

// EnterEngine and LeaveEngine bracket every engine operation
// (stacks.Engine): under the connection's lock, with t bound for transmit
// charging, the tick counters are caught up to the wheel clock before the
// engine reads them, and whatever the operation arms goes onto the wheel
// afterwards.
func (r *connRec) EnterEngine(t *kern.Thread) {
	r.lock.P(t.Proc)
	r.cur = t
	r.c.lib.wheel.Sync(&r.went)
}

func (r *connRec) LeaveEngine(t *kern.Thread) {
	r.c.lib.wheel.Sync(&r.went)
	r.cur = nil
	r.lock.V()
}

// teardown releases registry-held resources once the engine fully closes.
// Fire-and-forget to the owning shard, from engine context. It is the one
// place a record is marked for reuse — Exit and fail leave theirs to the
// collector — and the reuse itself waits for the engine pass under way, and
// every other thread inside the record, to leave (unpin).
func (r *connRec) teardown() {
	c := r.c
	c.done = true
	c.ch.Poke()
	l := c.lib
	delete(l.conns, c)
	l.wheel.Drop(&r.went)
	l.post(nil, l.svcOwner(r.tc.Local(), r.tc.Peer()), kern.Msg{
		Op: "teardown", ID: l.nextReqID(),
		Body: registry.TeardownReq{
			Local: r.tc.Local(), Peer: r.tc.Peer(), Cap: r.cap,
		}})
	r.closed = true
}

// Read implements stacks.Conn.
func (c *Conn) Read(t *kern.Thread, p []byte) (int, error) {
	r := c.rec
	if r == nil {
		// What Sock.Read does on a closed, drained engine.
		c.lib.entry(t)
		if c.final.eof {
			return 0, nil
		}
		return 0, c.final.err
	}
	r.pins++
	n, err := r.sock.Read(t, p)
	c.unpin(r)
	return n, err
}

// Write implements stacks.Conn.
func (c *Conn) Write(t *kern.Thread, p []byte) (int, error) {
	r := c.rec
	if r == nil {
		// What Sock.Write does on a closed engine.
		c.lib.entry(t)
		switch {
		case len(p) == 0:
			return 0, nil
		case c.final.err != nil:
			return 0, c.final.err
		}
		return 0, stacks.ErrClosed
	}
	r.pins++
	n, err := r.sock.Write(t, p)
	c.unpin(r)
	return n, err
}

// Close implements stacks.Conn: the orderly release runs entirely in the
// library ("under normal operation, connection shutdown is done by the
// protocol library").
func (c *Conn) Close(t *kern.Thread) error {
	t.Compute(t.Cost().ProcCall) // the socket-call entry
	r := c.rec
	if r == nil {
		return nil // closing a closed engine does nothing
	}
	r.pins++
	r.EnterEngine(t)
	r.tc.Close()
	r.LeaveEngine(t)
	c.unpin(r)
	return nil
}

// Stats implements stacks.Conn.
func (c *Conn) Stats() tcp.Stats {
	if r := c.rec; r != nil {
		return r.tc.Stats()
	}
	return c.final.stats
}

// State implements stacks.Conn.
func (c *Conn) State() tcp.State {
	if r := c.rec; r != nil {
		return r.tc.State()
	}
	return tcp.Closed
}

// Channel exposes the netio channel (experiments measure batching). Once the
// connection is closed the channel is the module's to destroy and reuse: the
// pointer stays what it was, what it points to does not.
func (c *Conn) Channel() *netio.Channel { return c.ch }

// Exit hands every open connection back to the registry. With abnormal set
// the registry resets the peers; otherwise it shepherds the orderly-close
// states (including TIME_WAIT) on the application's behalf.
func (l *Library) Exit(t *kern.Thread, abnormal bool) {
	for _, c := range l.sortedConns() {
		if c.done {
			continue // closed while an earlier hand-back was being sent: nothing to inherit
		}
		r := c.rec
		c.done = true
		c.ch.Poke()
		delete(l.conns, c)
		l.wheel.Drop(&r.went)
		snap := r.tc.Snapshot()
		r.tc.SetCallbacks(tcp.Callbacks{}) // detach: the registry owns it now
		l.svcOwner(r.tc.Local(), r.tc.Peer()).Send(t, kern.Msg{
			Op:   "inherit",
			ID:   l.nextReqID(),
			Size: snap.Size(),
			Body: registry.InheritReq{
				Snap: snap, Cap: r.cap, Abort: abnormal,
				PeerHW: r.peerHW, PeerBQI: r.peerBQI,
			},
		})
	}
}

// runWheelFire runs a wheel-fire callback under the engine lock. The fire
// fn does its own Sync, so this bypasses EnterEngine's and LeaveEngine's
// (which would double-fire the due counter before fn observes it —
// harmless but wasteful).
func (r *connRec) runWheelFire(t *kern.Thread, e *stacks.WheelEnt, fn func(*stacks.WheelEnt)) {
	r.lock.P(t.Proc)
	r.cur = t
	fn(e)
	r.cur = nil
	r.lock.V()
}
