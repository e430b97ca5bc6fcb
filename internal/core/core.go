// Package core implements the paper's primary contribution: the user-level
// protocol library. TCP, IP and (implicitly, via setup-time resolution) ARP
// functionality is linked into the application's address space. The library
//
//   - asks the registry server to allocate end-points and complete the
//     three-way handshake, then receives the established connection's TCP
//     state, a send capability, and a shared-memory channel;
//   - thereafter runs the entire data path itself: "the server is bypassed
//     in the common path of data transmission and reception";
//   - is multithreaded: one input thread is upcalled from the lightweight
//     semaphore every connection's channel rings, so frames for several
//     connections cost one wakeup ("multiple network packets per semaphore
//     notification"); the channel that rang names its connection, so
//     protocol control block lookups stay eliminated, as the paper's
//     separate threads per connection eliminated them; and fast/slow timer
//     threads drive the BSD tick machinery;
//   - moves user data through the shared region, avoiding per-byte copies
//     on the send path ("a buffer organization that eliminates byte
//     copying");
//   - on exit hands open connections back to the registry, which preserves
//     TIME_WAIT semantics or resets the peer on abnormal termination.
package core

import (
	"slices"
	"sort"
	"time"

	"ulp/internal/ctl"
	"ulp/internal/freelist"
	"ulp/internal/ipv4"
	"ulp/internal/kern"
	"ulp/internal/link"
	"ulp/internal/netio"
	"ulp/internal/pkt"
	"ulp/internal/sim"
	"ulp/internal/stacks"
	"ulp/internal/tcp"
)

// Library is one application's protocol library instance.
type Library struct {
	s    *sim.Sim
	host *kern.Host
	app  *kern.Domain
	mod  *netio.Module
	nif  *stacks.Netif

	// reg is the host's registry as the library reaches it: the shards'
	// service ports, and the slices by which a tuple's shard is known.
	reg ctl.Shards
	// rr sequences round-robin connect routing across live shards.
	rr uint64

	// live heads the list, through Conn.prev and next, of every connection
	// from adopt to detach, with its full record or compacted for TIME_WAIT
	// (DESIGN §5.5); twEnded wakes the writers waiting on a compacted
	// connection for its end.
	live    *Conn
	twEnded sim.Cond
	// bell is what the input thread sleeps on: adopt attaches every
	// connection's channel to it. inputUp marks that the thread was spawned:
	// with the first connection, so that a library with none has no thread
	// and one with a single connection keeps the schedule the paper tables
	// were measured on. closing lists the connections that left the library
	// (detach) whose channel and input pin the thread has yet to let go of.
	// serving is the channel the thread is draining, whose connection no
	// other thread may compact.
	bell    netio.Doorbell
	inputUp bool
	closing []*Conn
	serving *netio.Channel

	ids ipv4.IDGen
	// free holds the records of closed connections nobody is inside any more,
	// replies the reply ports of calls none of whose waits timed out.
	free    freelist.List[*connRec]
	replies freelist.List[*kern.Port]
	// The socket-call cost hooks are the same for every connection.
	entry               func(t *kern.Thread)
	writeMove, readMove func(t *kern.Thread, n int)

	// wheel holds every connection's TCP timers.
	wheel *stacks.TCPWheel

	// backoff drives control-plane retry delays (capped exponential with
	// seeded jitter).
	backoff *stacks.Backoff

	// reqSeq counts request IDs, which the registry compares only within a
	// call slot of this library's. A retry reuses its request's ID, which is
	// what lets the registry deduplicate. slots holds the call slots: a call
	// holds one for its length. slotFreed wakes a caller waiting for one.
	reqSeq    uint32
	slots     []callSlot
	slotFreed sim.Cond
}

// callSlot is one call slot: whether a call holds it, and the id of the
// slot's last call and the port its withdrawal went to, if that call gave
// up (gaveUpSvc nil if it did not).
type callSlot struct {
	busy      bool
	gaveUpID  uint32
	gaveUpSvc *kern.Port
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
)

// nextReqID issues a fresh request id. Ids rise per library, and so per
// sender and slot, which is how the registry tells a caller's later call
// from an earlier one: in serial-number arithmetic (RFC 1982), so they wrap,
// past zero, which marks a request the registry does not track.
func (l *Library) nextReqID() uint32 {
	if l.reqSeq++; l.reqSeq == 0 {
		l.reqSeq++
	}
	return l.reqSeq
}

// takeSlot lends the lowest free call slot for the length of one call,
// waiting while all ctl.CallSlots are lent; putSlot takes it back.
func (l *Library) takeSlot(t *kern.Thread) uint32 {
	free := func(s callSlot) bool { return !s.busy }
	i := slices.IndexFunc(l.slots, free)
	for ; i < 0 && len(l.slots) == ctl.CallSlots; i = slices.IndexFunc(l.slots, free) {
		l.slotFreed.Wait(t.Proc)
	}
	if i < 0 {
		i, l.slots = len(l.slots), append(l.slots, callSlot{})
	}
	l.slots[i].busy = true
	return uint32(i)
}

func (l *Library) putSlot(s uint32) {
	l.slots[s].busy = false
	l.slotFreed.Signal()
}

// call issues one control-plane RPC to registry shard shard, or while it is
// down to the next live one, under the deadline/retry policy. It holds one of
// the library's ctl.CallSlots for its length, which is what the registry
// admits a request on and bounds the library's set-ups by. Every attempt
// carries the call's one id and slot and waits on its one reply port: an
// answer that arrives after its attempt's deadline is taken by the next, and
// the host's entry for the caller runs no retry twice. The port is reused
// only if no wait timed out, for a late answer may still land there. A call
// that gives up withdraws its id, so that a set-up nobody will adopt gives
// back its port and channel; the slot's next call, which retires the entry
// through which the registry finds what to give back, withdraws it once more
// ahead of itself if it goes to another shard.
func (l *Library) call(t *kern.Thread, shard int, m kern.Msg) (kern.Msg, error) {
	m.ID, m.Slot = l.nextReqID(), l.takeSlot(t)
	defer l.putSlot(m.Slot)
	if last := l.slots[m.Slot]; last.gaveUpSvc != nil && last.gaveUpSvc != l.svc(shard) {
		l.svc(shard).SendAsync(l.app, kern.Msg{Op: "abandon", Body: ctl.AbandonReq{Slot: m.Slot, ID: last.gaveUpID}})
	}
	l.slots[m.Slot].gaveUpSvc = nil
	if m.Reply = l.replies.Get(); m.Reply == nil {
		m.Reply = kern.NewPort(l.host, "reply")
	}
	timeout := rpcBaseTimeout
	for attempt := range rpcAttempts {
		l.svc(shard).Send(t, m)
		if reply, ok := m.Reply.ReceiveTimeout(t, timeout); ok {
			if attempt == 0 {
				l.replies.Put(m.Reply)
			}
			return reply, nil
		}
		if attempt+1 < rpcAttempts {
			t.Sleep(l.backoff.Next(attempt))
		}
		timeout = min(2*timeout, rpcTimeoutCap)
	}
	// Posted, not sent: the caller does not wait for the withdrawal.
	l.svc(shard).SendAsync(l.app, kern.Msg{Op: "abandon", Body: ctl.AbandonReq{Slot: m.Slot, ID: m.ID}})
	l.slots[m.Slot] = callSlot{busy: true, gaveUpID: m.ID, gaveUpSvc: l.svc(shard)}
	return kern.Msg{}, stacks.ErrRegistryUnavailable
}

// svc returns the service port of shard i, or while it is down of the next
// live shard (cross-shard migration); with every shard down it stays on i's,
// which queues a request for the next incarnation while the RPC deadline
// runs.
func (l *Library) svc(i int) *kern.Port {
	if c := l.reg.Cover(i); c >= 0 {
		i = c
	}
	return l.reg.Svc[i]
}

// svcOwner returns the control port of the shard that owns a tuple,
// failing over to the next live shard while the owner is down.
func (l *Library) svcOwner(local, peer tcp.Endpoint) *kern.Port {
	return l.svc(l.reg.Owner(local, peer))
}

// NewLibrary links the protocol library into an application domain, over
// its host's network interface. It reaches the registry only through reg's
// service ports, and reads a shard's liveness from its port.
func NewLibrary(s *sim.Sim, app *kern.Domain, nif *stacks.Netif, reg ctl.Shards) *Library {
	l := &Library{
		s:       s,
		host:    app.Host,
		app:     app,
		reg:     reg,
		nif:     nif,
		mod:     nif.Mod,
		wheel:   stacks.NewTCPWheel(),
		backoff: stacks.NewBackoff(seedFrom(app.Host.Name), rpcBaseTimeout/2, rpcTimeoutCap),
	}
	l.bell.Init(l.host)
	l.twEnded.Init(s)
	l.slotFreed.Init(s)
	cost := &l.host.Cost
	l.entry = func(t *kern.Thread) { t.Compute(cost.ProcCall) }
	// Send-side data enters the shared region without a per-byte copy.
	l.writeMove = func(t *kern.Thread, n int) { t.Compute(cost.SockbufOp) }
	l.readMove = func(t *kern.Thread, n int) { t.Compute(cost.Copy(n) + cost.SockbufOp) }
	// There is no library-wide engine lock to bracket a wheel advance with;
	// each fire takes its connection's own.
	l.wheel.Drive(l.app, "lib", stacks.DriverHooks{
		Fire: func(t *kern.Thread, e *stacks.WheelEnt, fn func(*stacks.WheelEnt)) {
			e.Owner.(*connRec).runWheelFire(t, e, fn)
		},
	})
	return l
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
// is never reused. The connection's state is in rec, which is recycled
// (DESIGN §5.5): once the engine has closed, or has entered TIME_WAIT and
// been compacted into tw, and the last thread has left the connection, rec
// goes back to the library for its next connection, and the handle answers
// from final what it would have answered from the engine.
type Conn struct {
	lib        *Library
	rec        *connRec
	tw         *twRec
	final      *closedConn
	ch         *netio.Channel
	done       bool
	prev, next *Conn // Library.live
}

// closedConn is what a handle remembers of a connection whose record is gone.
type closedConn struct {
	stats tcp.Stats
	err   error // the socket's close reason
	eof   bool  // the peer's FIN was read
}

// connRec is the reusable part of a connection: the engine with its socket
// buffers, the blocking wrapper and its condition variables, the engine
// lock, the wheel entry, and the route negotiated at setup.
type connRec struct {
	c    *Conn // the handle of the connection the record currently is
	tc   tcp.Conn
	sock stacks.Sock
	lock sim.Semaphore
	went stacks.WheelEnt // timing-wheel registration
	// cbs holds the engine callbacks, bound to the record once.
	cbs tcp.Callbacks
	route

	cur *kern.Thread
	// pins counts the threads inside the record: every application call
	// under way, and the input thread until it has let go of the connection.
	// closed marks that the engine reached CLOSED and teardown ran. The last
	// thread to leave a closed connection recycles the record (unpin).
	pins   int
	closed bool
}

// route is what a connection's segments need on their way out: the send
// capability and the link framing toward the peer.
type route struct {
	cap     *netio.Capability
	peerHW  link.Addr
	peerBQI uint16
}

// twRec is a connection in TIME_WAIT once its full record has gone back to
// the free list (DESIGN §5.5): TIME_WAIT's rule and state (tcp.TW), its 2MSL
// timer, where it stood on the wheel, the route its answers take, and what
// its handle answers from. It owns the connection's channel until the 2MSL
// ends, and is never reused.
type twRec struct {
	c    *Conn
	tw   tcp.TW
	went stacks.TimeWaitEnt
	route
	final closedConn
	// busy marks the input thread inside the rule or sending its answer; an
	// expiry due meanwhile waits for it (expired), as a full record's waits
	// for the engine lock.
	busy, expired bool
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
// record stays with the handle (a later call's unpin looks again). If only
// the input thread's pin is left on a connection in TIME_WAIT, the
// connection may be compacted, which recycles the record the same way.
func (c *Conn) unpin(r *connRec) {
	r.pins--
	if r.pins == 1 && c.lib.compact(r) {
		return
	}
	if r.pins > 0 || !r.closed || !r.went.Idle() || r.tc.Readable() > 0 {
		return
	}
	if c.final == nil {
		_, err := r.sock.Closed()
		c.final = &closedConn{stats: r.tc.Stats(), err: err, eof: r.tc.EOF()}
	}
	c.rec = nil
	c.lib.free.Put(r)
}

// compact replaces r's connection, if it is in TIME_WAIT, with a compact
// record, and gives r back to the free list through the input thread's pin.
// It is bookkeeping only — nothing is computed, sent or woken — so it may
// happen on any thread. It waits, and reports false, while any thread but
// the input thread is inside r, a wheel fire of r is under way, the
// application has bytes to read, or the input thread is draining the
// connection's channel; the input thread tries again when it is done with
// the channel, and the application's last thread when it leaves (unpin).
func (l *Library) compact(r *connRec) bool {
	c := r.c
	if r.pins != 1 || c.done || r.tc.State() != tcp.TimeWait || r.tc.Readable() > 0 ||
		!r.went.Idle() || c.ch == l.serving {
		return false
	}
	tr := &twRec{c: c, tw: r.tc.Compact(), route: r.route, final: closedConn{stats: r.tc.Stats(), eof: true}}
	l.wheel.Compact(&r.went, &tr.went, tr.expire)
	c.ch.Attach(&l.bell, tr)
	c.tw, c.final = tr, &tr.final
	r.closed = true
	c.unpin(r)
	return true
}

// Connect implements the stacks.Stack interface: active open via the
// registry, then adopt the established connection.
func (l *Library) Connect(t *kern.Thread, remote tcp.Endpoint, opts stacks.Options) (stacks.Conn, error) {
	t.Compute(t.Cost().ProcCall)
	shard := int(l.rr % uint64(len(l.reg.Svc)))
	l.rr++
	reply, err := l.call(t, shard, kern.Msg{Op: "connect", Body: ctl.ConnectReq{Remote: remote, Opts: opts}})
	if err != nil {
		return nil, err
	}
	ho, ok := reply.Body.(*ctl.Handoff)
	if !ok {
		return nil, stacks.ErrClosed
	}
	return l.adoptHandoff(t, ho, opts)
}

// adoptHandoff adopts the connection a hand-off carries, or returns its
// error, and gives the record back.
func (l *Library) adoptHandoff(t *kern.Thread, ho *ctl.Handoff, opts stacks.Options) (stacks.Conn, error) {
	defer ho.Done()
	if ho.Err != nil {
		return nil, ho.Err
	}
	return l.adopt(t, ho, opts), nil
}

// Listener is the library side of a passive open.
type Listener struct {
	lib    *Library
	port   uint16
	opts   stacks.Options
	accept *kern.Port
}

// Listen implements stacks.Stack. The listen is one call, to the default
// shard: it writes the host's one listener record, which every shard reads,
// so a SYN is answered whichever shard its hash selects.
func (l *Library) Listen(t *kern.Thread, port uint16, opts stacks.Options) (stacks.Listener, error) {
	t.Compute(t.Cost().ProcCall)
	acceptPort := kern.NewPort(l.host, "accept")
	req := ctl.ListenReq{Port: port, Opts: opts, AcceptPort: acceptPort}
	reply, err := l.call(t, 0, kern.Msg{Op: "listen", Body: req})
	if err == nil {
		err, _ = reply.Body.(error)
	}
	if err != nil {
		return nil, err
	}
	return &Listener{lib: l, port: port, opts: opts, accept: acceptPort}, nil
}

// Accept blocks for the next established connection handed off by the
// registry.
func (ln *Listener) Accept(t *kern.Thread) (stacks.Conn, error) {
	m := ln.accept.Receive(t)
	t.Compute(t.Cost().ContextSwitch) // handoff message receipt
	return ln.lib.adoptHandoff(t, m.Body.(*ctl.Handoff), ln.opts)
}

// Close stops listening. A registry that has become unavailable is
// tolerated: the endpoint is abandoned and reclaimed by crash cleanup.
func (ln *Listener) Close(t *kern.Thread) {
	t.Compute(t.Cost().ProcCall)
	_, _ = ln.lib.call(t, 0, kern.Msg{Op: "unlisten", Body: ctl.UnlistenReq{Port: ln.port}})
}

// adopt turns a registry handoff into a live library connection. It copies
// what it keeps out of ho.
func (l *Library) adopt(t *kern.Thread, ho *ctl.Handoff, opts stacks.Options) *Conn {
	r := l.free.Get()
	if r == nil {
		r = new(connRec)
	}
	c := &Conn{lib: l, rec: r, ch: ho.Cap.Chan()}
	r.c = c
	r.route = route{cap: ho.Cap, peerHW: ho.Cap.Template().LinkDst, peerBQI: ho.PeerBQI}
	r.lock.Init(l.s, "conn-engine", 1)
	tc := &r.tc
	tcp.RestoreInto(tc, ho.Snap, tcp.Callbacks{})
	if bus := l.s.Bus; bus.Enabled() {
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

	c.next = l.live
	if l.live != nil {
		l.live.prev = c
	}
	l.live = c
	l.wheel.Init(&r.went, tc, r)
	// An empty engine pass syncs the restored counters (the handshake may
	// have left the keepalive or retransmit timer armed) onto the wheel.
	r.EnterEngine(t)
	r.LeaveEngine(t)
	r.pins = 1 // the input thread's, until it lets go of the connection
	c.ch.Attach(&l.bell, r)
	if !l.inputUp {
		l.inputUp = true
		l.app.Spawn("lib-input", l.inputThread)
	}
	return c
}

// transmit is the engine's output (tcp.Callbacks.Send), charged to the
// thread inside the engine.
func (r *connRec) transmit(seg stacks.Seg) {
	if r.cur == nil {
		panic("core: engine transmit outside EnterEngine/LeaveEngine")
	}
	r.c.lib.send(r.cur, &r.route, r.tc.Local().IP, r.tc.Peer().IP, seg.Buf, seg.PayloadLen)
}

// send is the library's data-path output: protocol processing in the
// calling thread, headers built in the shared region, then the specialized
// kernel entry with the send capability.
func (l *Library) send(t *kern.Thread, rt *route, src, dst ipv4.Addr, b *pkt.Buf, payloadLen int) {
	t.Compute(stacks.SegCost(l.host, payloadLen))
	ih := ipv4.Header{
		ID: l.ids.Next(), DF: true, TTL: 64,
		Proto: ipv4.ProtoTCP, Src: src, Dst: dst,
	}
	ih.Encode(b)
	l.nif.Frame(b, rt.peerHW, link.TypeIPv4, rt.peerBQI, 0)
	// Template violations cannot happen from this code path; a buggy or
	// malicious library would be stopped here by the kernel. A quarantine
	// rejection means the shard that issued the endpoint died: the frame is
	// dropped, and TCP retransmits it once a shard re-issues the channel, or
	// gives up at R2 if none does. The library tells the registry nothing.
	if err := l.mod.Send(t, rt.cap, b); err != nil {
		b.Release()
	}
}

// sortedConns returns the live connections, full and compacted, in
// four-tuple order, so map iteration cannot perturb the deterministic
// schedule. The whole tuple is the key: connections accepted through one
// listener share a local port. A caller that blocks between one connection
// and the next must skip those that are done by the time it gets to them:
// they have left the library, and their channel may be another connection's.
func (l *Library) sortedConns() []*Conn {
	var out []*Conn
	for c := l.live; c != nil; c = c.next {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].tuple().Less(out[j].tuple()) })
	return out
}

// tuple is for a live connection, which has its full or its compact record.
func (c *Conn) tuple() tcp.FourTuple {
	if r := c.rec; r != nil {
		return r.tc.Tuple()
	}
	return tcp.FourTuple{Local: c.tw.tw.Local(), Peer: c.tw.tw.Peer()}
}

// snapshot is a live connection's transferable state and route.
func (c *Conn) snapshot() (tcp.Snapshot, *route) {
	if r := c.rec; r != nil {
		return r.tc.Snapshot(), &r.route
	}
	return c.tw.tw.Snapshot(), &c.tw.route
}

// detach takes a connection out of the library, on either way it leaves
// (teardown or the end of its TIME_WAIT; Exit): it is
// done, it is queued for the input thread to let go of, the doorbell is
// poked so the thread notices, and it leaves the library's list and the
// wheel.
func (c *Conn) detach() {
	l := c.lib
	c.done = true
	l.closing = append(l.closing, c)
	l.bell.Poke()
	if c.prev != nil {
		c.prev.next = c.next
	} else {
		l.live = c.next
	}
	if c.next != nil {
		c.next.prev = c.prev
	}
	c.prev, c.next = nil, nil
	if r := c.rec; r != nil {
		l.wheel.Drop(&r.went)
		return
	}
	l.wheel.DropTimeWait(&c.tw.went)
}

// inputThread is the library's upcalled thread: it sleeps on the doorbell
// every connection's channel rings, and serves the channels that rang in
// the order they rang, each until its ring is empty. The channel names its
// connection, so there is no lookup between the doorbell and the engine.
//
// By-reference interplay: the batch frames are the module's pool buffers
// handed over by reference, with the channel holding a lien that settles at
// the channel's next drain. The contract this loop
// satisfies is that a batch is fully consumed before its channel is drained
// again — inputFrame releases each frame after TCP reassembly copies what it
// keeps, and the deferred sweep below covers a mid-batch kill — so the lien
// settling underneath us can never free storage we still read. A channel is
// left only once a drain came back empty, which settled its last liens.
func (l *Library) inputThread(t *kern.Thread) {
	cost := &l.host.Cost
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
	for {
		l.bell.Wait(t)
		for ch := l.bell.Next(); ch != nil; ch = l.bell.Next() {
			// A full record is pinned for this thread until it lets go
			// below; a compact one is never reused. Neither changes while
			// the thread serves the channel.
			ep := ch.Owner().(endpoint)
			l.serving = ch
			for !ep.conn().done {
				batch, next = ch.TryRecv(), 0
				if len(batch) == 0 {
					break
				}
				for i, b := range batch {
					next = i + 1
					ep.inputFrame(t, b)
				}
				if ep.readableWaiters() > 0 {
					// Hand off to the blocked application thread.
					t.Compute(cost.ThreadSwitch)
				}
			}
			batch, next = nil, 0
			l.serving = nil
			if r, ok := ep.(*connRec); ok {
				l.compact(r)
			}
		}
		// This thread is each closed connection's channel's only consumer
		// and is done with it. A killed thread never gets here: its channels
		// and records are never reused.
		for i, c := range l.closing {
			c.ch.Disown()
			if r := c.rec; r != nil {
				c.unpin(r)
			}
			l.closing[i] = nil
		}
		l.closing = l.closing[:0]
	}
}

// endpoint is what owns a library channel: a connection's full record, or
// its compact TIME_WAIT one.
type endpoint interface {
	conn() *Conn
	// inputFrame processes one frame from the shared region. The frame dies
	// there on every path — the engine copies the payload bytes it keeps —
	// so the buffer goes back to the free list when processing completes.
	inputFrame(t *kern.Thread, b *pkt.Buf)
	readableWaiters() int
}

func (r *connRec) conn() *Conn          { return r.c }
func (r *connRec) readableWaiters() int { return r.sock.ReadableWaiters() }
func (tr *twRec) conn() *Conn           { return tr.c }
func (tr *twRec) readableWaiters() int  { return 0 }

func (r *connRec) inputFrame(t *kern.Thread, b *pkt.Buf) {
	defer b.Release()
	if th, ok := r.c.lib.decode(t, b, r.tc.Local().IP); ok {
		r.EnterEngine(t)
		r.tc.Input(th, b.Bytes())
		r.LeaveEngine(t)
	}
}

// inputFrame runs TIME_WAIT's rule on the segment and sends its answer. A
// segment for a connection that has left the library is counted and dropped,
// as a closed engine does.
func (tr *twRec) inputFrame(t *kern.Thread, b *pkt.Buf) {
	defer b.Release()
	l := tr.c.lib
	th, ok := l.decode(t, b, tr.tw.Local().IP)
	switch {
	case !ok:
		return
	case tr.c.done:
		tr.final.stats.SegsRcvd++
		return
	}
	tr.busy = true
	rep := tr.tw.Input(th, len(b.Bytes()), &tr.final.stats)
	if rep.Seg != nil {
		l.send(t, &tr.route, tr.tw.Local().IP, tr.tw.Peer().IP, rep.Seg, 0)
	}
	tr.busy = false
	switch {
	case tr.c.done:
		// Exit or fail took the connection while the answer went out: it
		// is no longer the library's to end.
	case rep.Closed:
		tr.end(tcp.TrigReset, rep.Err)
	case tr.expired:
		tr.end(tcp.TrigTimer, nil)
	}
}

// decode strips a frame to its TCP segment for the connection whose local
// address is dst, charging the protocol work (stacks.DecodeSegment).
func (l *Library) decode(t *kern.Thread, b *pkt.Buf, dst ipv4.Addr) (tcp.Header, bool) {
	if et, _, err := l.nif.StripLink(b); err != nil || et != link.TypeIPv4 {
		return tcp.Header{}, false
	}
	ih, err := ipv4.Decode(b)
	if err != nil || ih.Proto != ipv4.ProtoTCP || ih.Dst != dst {
		return tcp.Header{}, false
	}
	return stacks.DecodeSegment(t, ih, b, 0)
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
	c, l := r.c, r.c.lib
	c.detach()
	l.svcOwner(r.tc.Local(), r.tc.Peer()).SendAsync(l.app, kern.Msg{
		Op: "teardown", Body: ctl.TeardownReq{Cap: r.cap}})
	r.closed = true
}

// expire is the end of the 2MSL, run by the wheel's slow driver.
func (tr *twRec) expire(_ *kern.Thread, fired time.Duration) {
	tr.tw.Fired = fired
	if tr.busy {
		tr.expired = true
		return
	}
	tr.end(tcp.TrigTimer, nil)
}

// end closes a compacted connection, by its 2MSL expiry or a reset, as a
// full record's engine closes: the transition is traced, blocked writers
// wake, and the connection leaves the library and is torn down at the
// registry with the request teardown sends.
func (tr *twRec) end(why tcp.Trigger, err error) {
	c, l := tr.c, tr.c.lib
	tr.tw.Close(why, &tr.final.stats)
	tr.final.err = stacks.MapError(err)
	l.twEnded.Broadcast()
	c.detach()
	l.svcOwner(tr.tw.Local(), tr.tw.Peer()).SendAsync(l.app, kern.Msg{
		Op: "teardown", Body: ctl.TeardownReq{Cap: tr.cap}})
	c.tw = nil
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
		// What Sock.Write does on a closed engine, or on one in TIME_WAIT,
		// which takes no data: wait for it to close.
		c.lib.entry(t)
		if len(p) == 0 {
			return 0, nil
		}
		for !c.done {
			c.lib.twEnded.Wait(t.Proc)
		}
		if c.final.err != nil {
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
	switch {
	case c.rec != nil:
		return c.rec.tc.State()
	case c.tw != nil:
		return tcp.TimeWait
	}
	return tcp.Closed
}

// Channel exposes the netio channel, for tests that read its ring. Once the
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
		snap, rt := c.snapshot()
		if r := c.rec; r != nil {
			r.tc.SetCallbacks(tcp.Callbacks{}) // the registry owns it now
		}
		c.detach()
		l.svcOwner(snap.Local, snap.Peer).Send(t, kern.Msg{
			Op:   "inherit",
			Size: snap.Size(),
			Body: ctl.InheritReq{Snap: snap, Cap: rt.cap, Abort: abnormal},
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
