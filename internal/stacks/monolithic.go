package stacks

import (
	"time"

	"ulp/internal/ipv4"
	"ulp/internal/kern"
	"ulp/internal/link"
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

// Monolithic is the host-stack core of the two monolithic organizations
// (NewInKernel, NewSingleServer): one protocol domain per host holding the
// PCB table, one engine lock (the splnet analogue), one input thread fed
// from the interrupt handler, and the TCP timer drivers.
type Monolithic struct {
	org   organization
	host  *kern.Host
	dom   *kern.Domain
	nif   *Netif
	table *tcp.Table
	ports *tcp.PortAlloc
	iss   tcp.Seq
	wheel *TCPWheel

	cur  *kern.Thread   // thread currently driving the engine
	lock *sim.Semaphore // serializes engine entry

	rxq       *sim.Queue[*pkt.Buf]
	listeners map[uint16]*monoListener
	conns     map[*tcp.Conn]*monoConn
	udp       *UDPHost
}

// monoConn is one pcb's shell state.
type monoConn struct {
	m    *Monolithic
	sock *Sock
	went *WheelEnt
}

func newMonolithic(s *sim.Sim, mod *netio.Module, ip ipv4.Addr, org organization) *Monolithic {
	m := &Monolithic{
		org:       org,
		host:      mod.Device().Host(),
		nif:       NewNetif(s, mod, ip),
		table:     tcp.NewTable(),
		ports:     tcp.NewPortAlloc(),
		iss:       org.issOrigin,
		wheel:     NewTCPWheel(),
		listeners: make(map[uint16]*monoListener),
		conns:     make(map[*tcp.Conn]*monoConn),
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
	m.dom.Spawn(org.inputThread, m.inputLoop)
	m.wheel.Drive(m.dom, "tcp", DriverHooks{
		Bracket:   m.runEngine,
		AfterSlow: func() { m.nif.Rsm.Expire(m.nif.now()) },
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

// tcpConfig derives the engine configuration from options and the link.
func tcpConfig(nif *Netif, opts Options) tcp.Config {
	return tcp.Config{
		MSS:            nif.MSS(),
		SndBufSize:     opts.SndBuf,
		RcvBufSize:     opts.RcvBuf,
		Headroom:       nif.Headroom(),
		NoDelay:        opts.NoDelay,
		NoDelayedAck:   opts.NoDelayedAck,
		FastRetransmit: true,
		KeepAliveTicks: opts.KeepAliveTicks,
		RexmtR1:        opts.RexmtR1,
		RexmtR2:        opts.RexmtR2,
	}
}

// SegCost is the per-segment protocol processing charge, identical in all
// organizations ("the protocol stack that is executed is nearly identical
// in all three systems").
func SegCost(h *kern.Host, n int, noChecksum bool) time.Duration {
	m := &h.Cost
	d := m.TCPSegment + m.IPPacket + 2*m.TimerOp
	if !noChecksum {
		d += m.Checksum(n)
	}
	return d
}

// MbufCost is the per-packet BSD buffer-layer charge the monolithic
// organizations add on top of SegCost (the library's shared rings avoid
// it).
func MbufCost(h *kern.Host) time.Duration { return h.Cost.MbufLayer }

// attach builds the pcb's shell state — the Sock with the organization's
// cost hooks, the wheel entry, the engine callbacks — and registers it.
// accepted, when non-nil, receives the Sock once the handshake completes;
// nil marks an active open, which owns its local port (a passive pcb
// shares its listener's reservation and must not release it).
func (m *Monolithic) attach(s *sim.Sim, tc *tcp.Conn, opts Options, accepted func(*Sock)) *Sock {
	sock := NewSock(s, tc)
	mc := &monoConn{m: m, sock: sock, went: m.wheel.Add(tc, nil)}
	sock.Entry = m.org.call
	sock.Eng = mc
	sock.WriteMove = m.org.writeMove
	sock.ReadMove = m.org.readMove

	cb := sock.Callbacks(func(seg Seg) { m.transmit(seg, tc, opts) })
	if accepted != nil {
		inner := cb.OnEstablished
		cb.OnEstablished = func() {
			inner()
			accepted(sock)
		}
	}
	innerClosed := cb.OnClosed
	cb.OnClosed = func(err error) {
		m.table.Remove(tc)
		delete(m.conns, tc)
		m.wheel.Drop(mc.went)
		if accepted == nil {
			m.ports.Release(tc.Local().Port)
		}
		innerClosed(err)
	}
	tc.SetCallbacks(cb)
	if bus := m.nif.Mod.Bus; bus != nil {
		tc.SetTrace(bus, m.host.Name+" "+tc.Local().String()+">"+tc.Peer().String())
	}
	m.conns[tc] = mc
	return sock
}

// transmit charges protocol costs and pushes a segment down IP and the
// device, in the context of whichever thread is driving the engine.
func (m *Monolithic) transmit(seg Seg, tc *tcp.Conn, opts Options) {
	t := m.cur
	if t == nil {
		panic(m.org.name + ": engine transmit outside runEngine")
	}
	t.Compute(SegCost(m.host, seg.PayloadLen, opts.NoChecksum) + MbufCost(m.host))
	m.nif.WrapIP(seg.Buf, ipv4.ProtoTCP, tc.Peer().IP)
	m.nif.Resolve(t, seg.Buf, tc.Peer().IP, 0, m.nif.Mod.SendKernel)
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
		m:     m,
		port:  port,
		opts:  opts,
		ready: sim.NewQueue[*Sock](t.Sim()),
	}
	m.listeners[port] = l
	return l, nil
}

// monoListener queues established connections for Accept.
type monoListener struct {
	m      *Monolithic
	port   uint16
	opts   Options
	ready  *sim.Queue[*Sock]
	closed bool
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
	tc := tcp.NewConn(tcpConfig(m.nif, opts), local, remote, tcp.Callbacks{})
	sock := m.attach(t.Sim(), tc, opts, nil)
	if err := m.table.Insert(tc); err != nil {
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

// inputLoop is the protocol-input thread: the interrupt handler queues
// frames; this thread demultiplexes and runs the engine, then wakes any
// sleeping reader.
func (m *Monolithic) inputLoop(t *kern.Thread) {
	c := &m.host.Cost
	for {
		b := m.rxq.Pop(t.Proc)
		t.Compute(c.ThreadSwitch) // interrupt-to-input-thread dispatch
		m.input(t, b)
	}
}

// input processes one inbound frame in thread context. The frame dies here
// on every path: reassembly, the UDP datagram queue and tcp.Conn.Input all
// copy the bytes they keep.
func (m *Monolithic) input(t *kern.Thread, b *pkt.Buf) {
	defer b.Release()
	et, _, err := m.nif.StripLink(b)
	if err != nil {
		return
	}
	switch et {
	case link.TypeARP:
		m.nif.InputARP(t, b, m.nif.Mod.SendKernel)
		return
	case link.TypeIPv4:
	default:
		return
	}
	h, data, ok := m.nif.InputIP(b)
	if !ok {
		return
	}
	switch h.Proto {
	case ipv4.ProtoTCP:
		m.inputTCP(t, h, data)
	case ipv4.ProtoUDP:
		m.udp.Input(t, h, data)
	}
}

// inputTCP demultiplexes a segment through the PCB table.
func (m *Monolithic) inputTCP(t *kern.Thread, h ipv4.Header, data []byte) {
	seg := pkt.FromBytes(0, data)
	defer seg.Release()
	th, err := tcp.Decode(seg, h.Src, h.Dst)
	if err != nil {
		return // bad checksum: dropped silently, retransmission recovers
	}
	local := tcp.Endpoint{IP: h.Dst, Port: th.DstPort}
	peer := tcp.Endpoint{IP: h.Src, Port: th.SrcPort}
	t.Compute(SegCost(m.host, seg.Len(), false) + MbufCost(m.host))

	if tc, ok := m.table.LookupExact(local, peer); ok {
		mc := m.conns[tc]
		waiting := mc.sock.ReadableWaiters() > 0
		mc.EnterEngine(t)
		tc.Input(th, seg.Bytes())
		mc.LeaveEngine(t)
		if waiting {
			m.org.readerWakeup(t)
		}
		return
	}
	if l, ok := m.listeners[local.Port]; ok && !l.closed {
		if th.Flags&tcp.FlagSYN != 0 && th.Flags&(tcp.FlagACK|tcp.FlagRST) == 0 {
			m.spawnFromListener(t, l, local, peer, th, seg.Bytes())
			return
		}
	}
	// No endpoint: reset.
	if r, rb := tcp.MakeRST(th, seg.Len(), m.nif.Headroom(), local, peer); r != nil {
		m.nif.WrapIP(rb, ipv4.ProtoTCP, peer.IP)
		m.nif.Resolve(t, rb, peer.IP, 0, m.nif.Mod.SendKernel)
	}
}

// spawnFromListener clones a pcb for an inbound SYN (BSD's listen-socket
// cloning) and delivers the SYN to it; the connection is queued for Accept
// once established.
func (m *Monolithic) spawnFromListener(t *kern.Thread, l *monoListener, local, peer tcp.Endpoint, th tcp.Header, data []byte) {
	tc := tcp.NewConn(tcpConfig(m.nif, l.opts), local, peer, tcp.Callbacks{})
	tc.SetISS(m.nextISS())
	sock := m.attach(t.Sim(), tc, l.opts, func(sock *Sock) {
		if !l.closed {
			l.ready.Push(sock)
		}
	})
	tc.OpenListen()
	if err := m.table.Insert(tc); err != nil {
		return
	}
	sock.enter(t)
	tc.Input(th, data)
	sock.leave(t)
}
