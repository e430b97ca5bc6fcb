package stacks

import (
	"testing"
	"time"

	"ulp/internal/costs"
	"ulp/internal/ipv4"
	"ulp/internal/kern"
	"ulp/internal/sim"
	"ulp/internal/tcp"
)

// sockPair joins two Socks by an in-memory wire with fixed storage: what one
// engine sends waits in inbox until pump hands it to the other, outside any
// engine call. Each Sock's bracket is the pair itself, which keeps the depth.
type sockPair struct {
	socks  [2]*Sock
	inbox  [2][8]wireSeg // inbox[i]: segments on their way to side i
	n      [2]int
	enters int
}

type wireSeg struct {
	h    tcp.Header
	data [2048]byte
	len  int
}

func (p *sockPair) EnterEngine(*kern.Thread) { p.enters++ }
func (p *sockPair) LeaveEngine(*kern.Thread) { p.enters-- }

func newSockPair(s *sim.Sim) *sockPair {
	p := &sockPair{}
	eps := [2]tcp.Endpoint{
		{IP: ipv4.Addr{10, 0, 0, 1}, Port: 1025},
		{IP: ipv4.Addr{10, 0, 0, 2}, Port: 80},
	}
	for i := range p.socks {
		i := i
		tc := tcp.NewConn(tcp.Config{MSS: 1460, NoDelayedAck: true}, eps[i], eps[1-i], tcp.Callbacks{})
		p.socks[i] = NewSock(s, tc)
		p.socks[i].Eng = p
		tc.SetCallbacks(p.socks[i].Callbacks(func(seg Seg) {
			if p.enters != 1 {
				panic("segment sent outside the engine bracket")
			}
			w := &p.inbox[1-i][p.n[1-i]]
			p.n[1-i]++
			raw := seg.Buf.Bytes()
			w.h, w.len = seg.Hdr, copy(w.data[:], raw[len(raw)-seg.PayloadLen:])
			seg.Buf.Release()
		}))
	}
	return p
}

// pump delivers segments until both inboxes are empty.
func (p *sockPair) pump() {
	for p.n[0]+p.n[1] > 0 {
		for i := range p.inbox {
			n := p.n[i]
			p.n[i] = 0
			for k := 0; k < n; k++ {
				w := &p.inbox[i][k]
				p.enters++
				p.socks[i].TC.Input(w.h, w.data[:w.len])
				p.enters--
			}
		}
	}
}

// One write and the read that consumes it, on an established connection with
// nobody blocked: the two socket calls, the engine bracket and the segment
// hand-off to the organization's transmit path allocate nothing.
func TestSockWriteReadCycleAllocatesNothing(t *testing.T) {
	s := sim.New()
	p := newSockPair(s)
	allocs := -1.0
	dom := kern.NewHost(s, "h", costs.Default()).NewDomain("app", false)
	dom.Spawn("app", func(th *kern.Thread) {
		a, b := p.socks[0], p.socks[1]
		b.TC.OpenListen()
		p.enters++
		a.TC.OpenActive(1000)
		p.enters--
		p.pump()
		if !a.isEst || !b.isEst {
			t.Errorf("handshake: states %v/%v", a.State(), b.State())
			return
		}
		msg, buf := make([]byte, 1000), make([]byte, 2048)
		cycle := func() {
			if n, err := a.Write(th, msg); n != len(msg) || err != nil {
				t.Errorf("write %d, %v", n, err)
			}
			p.pump()
			if n, err := b.Read(th, buf); n != len(msg) || err != nil {
				t.Errorf("read %d, %v", n, err)
			}
			p.pump()
		}
		for i := 0; i < 20; i++ {
			cycle() // the socket buffers and the packet pool reach their working size
		}
		allocs = testing.AllocsPerRun(100, cycle)
	})
	s.Run(time.Second)
	if allocs != 0 || p.enters != 0 {
		t.Fatalf("%v allocations per cycle, want 0 (bracket depth %d at the end)", allocs, p.enters)
	}
}

// Sync runs on entry to and exit from every engine operation and mostly
// finds the timers where they should be; re-arming one passes the entry's
// bound callback. Neither allocates.
func TestWheelSyncAllocatesNothing(t *testing.T) {
	p := newTickPipe(true, tcp.Config{MSS: 512})
	p.engine(1, func(c *tcp.Conn) { c.OpenListen() })
	p.engine(0, func(c *tcp.Conn) { c.OpenActive(1000) })
	p.until(t, func() bool {
		return p.conns[0].State() == tcp.Established && p.conns[1].State() == tcp.Established
	})
	w, e := p.wheel, p.ents[0]
	e.tc.Write(make([]byte, 100)) // the retransmit timer is armed and stays armed
	w.Sync(e)
	if !e.slowT.Armed() {
		t.Fatal("no slow timer armed with data in flight")
	}
	if n := testing.AllocsPerRun(100, func() { w.Sync(e) }); n != 0 {
		t.Fatalf("Sync with nothing to re-arm: %v allocations, want 0", n)
	}
	rearm := func() {
		e.slowDeadline++ // as if the engine had moved the deadline
		w.Sync(e)
	}
	if n := testing.AllocsPerRun(100, rearm); n != 0 {
		t.Fatalf("Sync re-arming the slow timer: %v allocations, want 0", n)
	}
}
