package stacks

import (
	"ulp/internal/ipv4"
	"ulp/internal/kern"
	"ulp/internal/netio"
	"ulp/internal/pkt"
	"ulp/internal/sim"
	"ulp/internal/tcp"
)

// organization is everything that distinguishes one monolithic structure
// from the other. All of it is structural cost — which boundary a call or
// a byte crosses — plus naming; the protocol path in Monolithic is the
// paper's "identical protocol code, differing organization" made literal.
type organization struct {
	name        string // Stack.Name
	domain      string // protection domain the protocol code runs in
	inputThread string

	// issOrigin and issStride keep the two organizations' initial sequence
	// numbers in distinct regions.
	issOrigin, issStride tcp.Seq

	// call is charged on entry to every call on an open socket or listener
	// (Read, Write, Close, Accept): a trap, or a Mach RPC round trip.
	call func(t *kern.Thread)
	// listen and connect are the entry charges of the two opening calls.
	listen, connect func(t *kern.Thread)
	// writeMove and readMove charge moving n bytes between the application
	// and the protocol's buffers.
	writeMove, readMove func(t *kern.Thread, n int)
	// rxWakeup, when set, is charged at interrupt level for a frame that
	// finds the input queue empty: the input thread sleeps in another
	// address space and must be woken there.
	rxWakeup func(h *kern.Host)
	// readerWakeup charges the input thread for handing received data to a
	// blocked reader.
	readerWakeup func(t *kern.Thread)
}

// NewInKernel builds the Ultrix-style monolithic organization on a host
// whose netio module is mod: the whole protocol stack executes in the
// kernel. Socket calls are general-purpose traps; data crosses the
// user/kernel boundary by copy for small writes and by page remap for
// writes of RemapMinUltrix bytes or more ("Ultrix uses an identical
// mechanism, but it is invoked only when the user packet size is 1024
// bytes or larger"); input runs at software-interrupt level and wakes
// sleeping readers with a context switch.
func NewInKernel(s *sim.Sim, mod *netio.Module, ip ipv4.Addr) *Monolithic {
	open := func(t *kern.Thread) {
		t.Trap()
		t.Compute(t.Cost().PCBSetup)
	}
	return newMonolithic(s, mod, ip, organization{
		name:        "inkernel",
		domain:      "kernel",
		inputThread: "softint",
		issOrigin:   10000,
		issStride:   64009,
		call:        func(t *kern.Thread) { t.Trap() },
		listen:      open,
		connect:     open,
		writeMove: func(t *kern.Thread, n int) {
			c := t.Cost()
			if n >= c.RemapMinUltrix {
				t.Compute(c.PageRemap + c.SockbufOp)
			} else {
				t.Compute(c.Copy(n) + c.SockbufOp)
			}
		},
		readMove:     func(t *kern.Thread, n int) { t.Compute(t.Cost().Copy(n) + t.Cost().SockbufOp) },
		readerWakeup: func(t *kern.Thread) { t.Compute(t.Cost().ContextSwitch) },
	})
}

// NewSingleServer builds the Mach 3.0 + UX organization on a host whose
// netio module is mod: the entire protocol suite executes in one trusted
// user-level server with the network device mapped into its address space.
// Every socket call is a Mach IPC round trip between the application and
// the server (request + reply, each a message send plus a context switch),
// and all data crosses in message bodies by copy. Inbound packets interrupt
// the kernel and must then wake the server's input thread in its own
// address space.
//
// This is the organization the paper's measurements show losing to both
// Ultrix and the user-level library ("the user-level library implementation
// outperforms the monolithic Mach/UX implementation ... 42% faster for the
// 4K packet case").
func NewSingleServer(s *sim.Sim, mod *netio.Module, ip ipv4.Addr) *Monolithic {
	// rpc charges one application<->server round trip (request send +
	// switch into the server, reply send + switch back) with no in-line
	// data.
	rpc := func(t *kern.Thread) {
		c := t.Cost()
		t.Compute(2*c.MachIPCSend + 2*c.ContextSwitch + c.Copy(0))
	}
	move := func(t *kern.Thread, n int) { t.Compute(t.Cost().Copy(n) + t.Cost().SockbufOp) }
	return newMonolithic(s, mod, ip, organization{
		name:        "singleserver",
		domain:      "ux-server", // a trusted user-level process; it maps the device
		inputThread: "input",
		issOrigin:   20000,
		issStride:   64013,
		call:        rpc,
		listen:      rpc, // socket() + bind()/listen() folded into one RPC
		connect: func(t *kern.Thread) {
			rpc(t) // socket()
			rpc(t) // connect()
			t.Compute(t.Cost().PCBSetup)
		},
		writeMove: move,
		readMove:  move,
		rxWakeup:  func(h *kern.Host) { h.ComputeAsync(h.Cost.KernelWakeup, nil) },
		// Waking the blocked application read and sending its reply message
		// crosses address spaces again.
		readerWakeup: func(t *kern.Thread) { t.Compute(t.Cost().MachIPCSend + t.Cost().ContextSwitch) },
	})
}

// Monolithic is the host-stack core of the two monolithic organizations
// (NewInKernel, NewSingleServer): one protocol domain per host holding the
// pcbs, one engine lock (the splnet analogue), one input thread fed
// from the interrupt handler, and the TCP timer drivers.
type Monolithic struct {
	org   organization
	host  *kern.Host
	dom   *kern.Domain
	nif   *Netif
	ports *tcp.PortAlloc
	iss   tcp.Seq
	wheel *TCPWheel

	cur  *kern.Thread   // thread currently driving the engine
	lock *sim.Semaphore // serializes engine entry

	rxq       *sim.Queue[*pkt.Buf]
	listeners map[uint16]*monoListener
	conns     map[tcp.FourTuple]*monoConn
	udp       *UDPHost
}

// monoConn is one pcb's shell state. l is the listener whose backlog a
// passive pcb's handshake holds, nil once it is established or closed.
type monoConn struct {
	m    *Monolithic
	sock *Sock
	went *WheelEnt
	l    *monoListener
}

func newMonolithic(s *sim.Sim, mod *netio.Module, ip ipv4.Addr, org organization) *Monolithic {
	m := &Monolithic{
		org:       org,
		host:      mod.Device().Host(),
		nif:       NewNetif(s, mod, ip),
		ports:     tcp.NewPortAlloc(),
		iss:       org.issOrigin,
		wheel:     NewTCPWheel(),
		listeners: make(map[uint16]*monoListener),
		conns:     make(map[tcp.FourTuple]*monoConn),
	}
	m.dom = m.host.NewDomain(org.domain, true)
	m.lock = s.NewSemaphore(org.name+"-engine", 1)
	m.rxq = sim.NewQueue[*pkt.Buf](s)
	m.udp = NewUDPHost(m.nif)
	mod.SetDefaultHandler(func(b *pkt.Buf) {
		if org.rxWakeup != nil && m.rxq.Len() == 0 {
			org.rxWakeup(m.host)
		}
		m.rxq.Push(b)
	})
	// The input thread demultiplexes and runs the engine, then wakes any
	// sleeping reader.
	m.dom.Spawn(org.inputThread, m.nif.InputLoop(m.rxq,
		&Hooks{Extra: MbufCost(m.host), TCP: m.inputTCP, UDP: m.udp.Input}))
	m.wheel.Drive(m.dom, "tcp", DriverHooks{
		Bracket:   m.runEngine,
		AfterSlow: m.nif.Expire,
	})
	return m
}

func (m *Monolithic) Name() string     { return m.org.name }
func (m *Monolithic) Host() *kern.Host { return m.host }

// UDP exposes the host's datagram service.
func (m *Monolithic) UDP() *UDPHost { return m.udp }

func (m *Monolithic) nextISS() tcp.Seq {
	m.iss += m.org.issStride
	return m.iss
}

// TCPConfig derives the engine configuration from options and the link.
// The registry uses it too, so handshake state transfers to the library.
func TCPConfig(nif *Netif, opts Options) tcp.Config {
	return tcp.Config{
		MSS:            nif.MSS(),
		SndBufSize:     opts.SndBuf,
		RcvBufSize:     opts.RcvBuf,
		Headroom:       nif.Headroom(),
		NoDelay:        opts.NoDelay,
		NoDelayedAck:   opts.NoDelayedAck,
		KeepAliveTicks: opts.KeepAliveTicks,
		RexmtR2:        opts.RexmtR2,
	}
}

// attach builds the pcb's shell state — the Sock with the organization's
// cost hooks, the wheel entry, the engine callbacks — and registers it,
// unless its four-tuple is taken: then it registers nothing.
// l, when non-nil, is the listener a passive pcb was cloned from: the
// handshake holds a slot of its backlog until it completes or the pcb
// closes, and the Sock is queued for Accept once it completes. nil marks an
// active open, which owns its local port (a passive pcb shares its
// listener's reservation and must not release it).
func (m *Monolithic) attach(s *sim.Sim, tc *tcp.Conn, l *monoListener) (*Sock, error) {
	ft := tc.Tuple()
	if _, dup := m.conns[ft]; dup {
		return nil, tcp.ErrTupleInUse
	}
	sock := NewSock(s, tc)
	mc := &monoConn{m: m, sock: sock, went: m.wheel.Add(tc, nil), l: l}
	sock.Entry = m.org.call
	sock.Eng = mc
	sock.WriteMove = m.org.writeMove
	sock.ReadMove = m.org.readMove

	cb := sock.Callbacks(func(seg Seg) { m.transmit(seg, tc) })
	if l != nil {
		l.pending++
		inner := cb.OnEstablished
		cb.OnEstablished = func() {
			inner()
			mc.unhold()
			if !l.closed {
				l.ready.Push(sock)
			}
		}
	}
	innerClosed := cb.OnClosed
	cb.OnClosed = func(err error) {
		delete(m.conns, ft)
		m.wheel.Drop(mc.went)
		if l == nil {
			m.ports.Release(tc.Local().Port)
		}
		mc.unhold()
		innerClosed(err)
	}
	tc.SetCallbacks(cb)
	if bus := s.Bus; bus != nil {
		tc.SetTrace(bus, m.host.Name+" "+tc.Local().String()+">"+tc.Peer().String())
	}
	m.conns[ft] = mc
	return sock, nil
}

// unhold gives back the backlog slot a passive pcb's handshake holds.
func (mc *monoConn) unhold() {
	if mc.l != nil {
		mc.l.pending--
		mc.l = nil
	}
}

// transmit charges protocol costs and pushes a segment down IP and the
// device, in the context of whichever thread is driving the engine.
func (m *Monolithic) transmit(seg Seg, tc *tcp.Conn) {
	t := m.cur
	if t == nil {
		panic(m.org.name + ": engine transmit outside runEngine")
	}
	t.Compute(SegCost(m.host, seg.PayloadLen) + MbufCost(m.host))
	m.nif.SendTCP(t, seg.Buf, tc.Peer().IP, 0)
}

// runEngine serializes engine entry, tracking the driving thread for
// transmit charging.
func (m *Monolithic) runEngine(t *kern.Thread, fn func()) {
	m.lock.P(t.Proc)
	m.cur = t
	fn()
	m.cur = nil
	m.lock.V()
}

// EnterEngine and LeaveEngine bracket an engine operation on one pcb
// (Engine): under the engine lock, its tick counters are caught up to the
// wheel clock before the operation reads them, and whatever it arms goes
// onto the wheel afterwards.
func (mc *monoConn) EnterEngine(t *kern.Thread) {
	mc.m.lock.P(t.Proc)
	mc.m.cur = t
	mc.m.wheel.Sync(mc.went)
}

func (mc *monoConn) LeaveEngine(t *kern.Thread) {
	mc.m.wheel.Sync(mc.went)
	mc.m.cur = nil
	mc.m.lock.V()
}

// Listen implements Stack.
func (m *Monolithic) Listen(t *kern.Thread, port uint16, opts Options) (Listener, error) {
	m.org.listen(t)
	if !m.ports.Reserve(port) {
		return nil, ErrPortInUse
	}
	l := &monoListener{
		m:       m,
		port:    port,
		opts:    opts,
		backlog: opts.Backlog,
		ready:   sim.NewQueue[*Sock](t.Sim()),
	}
	if l.backlog <= 0 {
		l.backlog = DefaultBacklog
	}
	m.listeners[port] = l
	return l, nil
}

// monoListener queues established connections for Accept. pending counts
// the handshakes its backlog holds.
type monoListener struct {
	m                *Monolithic
	port             uint16
	opts             Options
	backlog, pending int
	ready            *sim.Queue[*Sock]
	closed           bool
}

// Accept implements Listener.
func (l *monoListener) Accept(t *kern.Thread) (Conn, error) {
	l.m.org.call(t)
	return l.ready.Pop(t.Proc), nil
}

// Close implements Listener.
func (l *monoListener) Close(t *kern.Thread) {
	l.m.org.call(t)
	l.closed = true
	delete(l.m.listeners, l.port)
	l.m.ports.Release(l.port)
}

// Connect implements Stack.
func (m *Monolithic) Connect(t *kern.Thread, remote tcp.Endpoint, opts Options) (Conn, error) {
	m.org.connect(t)
	port, err := m.ports.Ephemeral()
	if err != nil {
		return nil, err
	}
	local := tcp.Endpoint{IP: m.nif.IP, Port: port}
	tc := tcp.NewConn(TCPConfig(m.nif, opts), local, remote, tcp.Callbacks{})
	sock, err := m.attach(t.Sim(), tc, nil)
	if err != nil {
		m.ports.Release(local.Port)
		return nil, err
	}
	sock.enter(t)
	tc.OpenActive(m.nextISS())
	sock.leave(t)
	if err := sock.WaitEstablished(t); err != nil {
		return nil, err
	}
	return sock, nil
}

// inputTCP is the pipeline's TCP hook: a segment for a pcb runs the engine,
// a bare SYN for a listener clones one unless the listener's backlog is full
// (then it is dropped, as the registry drops it), and anything else is no
// endpoint's.
func (m *Monolithic) inputTCP(t *kern.Thread, s Segment) bool {
	if mc, ok := m.conns[tcp.FourTuple{Local: s.Local, Peer: s.Peer}]; ok {
		waiting := mc.sock.ReadableWaiters() > 0
		mc.EnterEngine(t)
		mc.sock.TC.Input(s.Hdr, s.Data)
		mc.LeaveEngine(t)
		if waiting {
			m.org.readerWakeup(t)
		}
		return true
	}
	if l, ok := m.listeners[s.Local.Port]; ok && !l.closed && s.OpensConnection() {
		if l.pending < l.backlog {
			m.spawnFromListener(t, l, s)
		}
		return true
	}
	return false
}

// spawnFromListener clones a pcb for an inbound SYN (BSD's listen-socket
// cloning) and delivers the SYN to it; the connection is queued for Accept
// once established.
func (m *Monolithic) spawnFromListener(t *kern.Thread, l *monoListener, s Segment) {
	tc := tcp.NewConn(TCPConfig(m.nif, l.opts), s.Local, s.Peer, tcp.Callbacks{})
	tc.SetISS(m.nextISS())
	sock, err := m.attach(t.Sim(), tc, l)
	if err != nil {
		return
	}
	tc.OpenListen()
	sock.enter(t)
	tc.Input(s.Hdr, s.Data)
	sock.leave(t)
}
