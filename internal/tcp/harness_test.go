package tcp

import (
	"bytes"
	"math/rand"
	"testing"

	"ulp/internal/ipv4"
	"ulp/internal/pkt"
)

// testNet links two connections back-to-back through in-memory queues with
// optional fault injection, and drives the BSD tick structure (fast timeout
// every 2 time units of 100 ms, slow timeout every 5).
type testNet struct {
	t        *testing.T
	a, b     *Conn
	aIP, bIP ipv4.Addr
	toB, toA []*pkt.Buf
	drop     func(dir string, h Header, payloadLen int) bool
	now      int // 100 ms units
	aEvents  *events
	bEvents  *events
	rng      *rand.Rand
	reorderP float64
	dupP     float64
	// around, when set, wraps every segment input: it must call input once.
	around func(dst *Conn, h Header, input func())
}

type events struct {
	established, readable, writable int
	closedErr                       error
	closed                          bool
}

func (e *events) callbacks(add Callbacks) Callbacks {
	return Callbacks{
		Send:          add.Send,
		OnEstablished: func() { e.established++ },
		OnReadable:    func() { e.readable++ },
		OnWritable:    func() { e.writable++ },
		OnClosed:      func(err error) { e.closed = true; e.closedErr = err },
	}
}

func newTestNet(t *testing.T, cfg Config) *testNet {
	n := &testNet{
		t:   t,
		aIP: ipv4.Addr{10, 0, 0, 1}, bIP: ipv4.Addr{10, 0, 0, 2},
		aEvents: &events{}, bEvents: &events{},
		rng: rand.New(rand.NewSource(1)),
	}
	aEnd := Endpoint{IP: n.aIP, Port: 1025}
	bEnd := Endpoint{IP: n.bIP, Port: 80}
	n.a = NewConn(cfg, aEnd, bEnd, n.aEvents.callbacks(Callbacks{
		Send: func(seg *pkt.Buf, h Header, pl int) {
			if n.drop != nil && n.drop("a->b", h, pl) {
				return
			}
			n.enqueue(&n.toB, seg)
		},
	}))
	n.b = NewConn(cfg, bEnd, aEnd, n.bEvents.callbacks(Callbacks{
		Send: func(seg *pkt.Buf, h Header, pl int) {
			if n.drop != nil && n.drop("b->a", h, pl) {
				return
			}
			n.enqueue(&n.toA, seg)
		},
	}))
	return n
}

func (n *testNet) enqueue(q *[]*pkt.Buf, seg *pkt.Buf) {
	c := pkt.FromBytes(0, seg.Bytes())
	if n.dupP > 0 && n.rng.Float64() < n.dupP {
		*q = append(*q, c.Clone())
	}
	if n.reorderP > 0 && n.rng.Float64() < n.reorderP && len(*q) > 0 {
		// Swap with the previous in-flight segment.
		*q = append(*q, (*q)[len(*q)-1])
		(*q)[len(*q)-2] = c
		return
	}
	*q = append(*q, c)
}

// deliver moves all queued segments (which may generate more; loop to
// quiescence, bounded to catch livelock bugs).
func (n *testNet) deliver() {
	for i := 0; i < 10000; i++ {
		if len(n.toB) == 0 && len(n.toA) == 0 {
			return
		}
		if len(n.toB) > 0 {
			seg := n.toB[0]
			n.toB = n.toB[1:]
			h, err := Decode(seg, n.aIP, n.bIP)
			if err != nil {
				n.t.Fatalf("a->b decode: %v", err)
			}
			n.input(n.b, h, seg.Bytes())
		}
		if len(n.toA) > 0 {
			seg := n.toA[0]
			n.toA = n.toA[1:]
			h, err := Decode(seg, n.bIP, n.aIP)
			if err != nil {
				n.t.Fatalf("b->a decode: %v", err)
			}
			n.input(n.a, h, seg.Bytes())
		}
	}
	n.t.Fatal("delivery did not quiesce (segment storm)")
}

func (n *testNet) input(c *Conn, h Header, data []byte) {
	if n.around == nil {
		c.Input(h, data)
		return
	}
	n.around(c, h, func() { c.Input(h, data) })
}

// tick advances one 100 ms unit: deliver, then fire due timeouts.
func (n *testNet) tick() {
	n.deliver()
	n.now++
	if n.now%2 == 0 {
		n.a.FastTick()
		n.b.FastTick()
		n.deliver()
	}
	if n.now%5 == 0 {
		n.a.SlowTick()
		n.b.SlowTick()
		n.deliver()
	}
}

// run advances the given number of 100 ms units.
func (n *testNet) run(units int) {
	for i := 0; i < units; i++ {
		n.tick()
	}
}

// connect performs the three-way handshake (a active, b passive).
func (n *testNet) connect() {
	n.b.OpenListen()
	n.b.SetISS(9000)
	n.a.OpenActive(1000)
	n.deliver()
	if n.a.State() != Established || n.b.State() != Established {
		n.t.Fatalf("handshake failed: a=%v b=%v", n.a.State(), n.b.State())
	}
}

// pump writes all of data from src, reading at dst, until complete; returns
// what dst read. maxUnits bounds virtual time.
func (n *testNet) pump(src, dst *Conn, data []byte, maxUnits int) []byte {
	var got []byte
	written := 0
	buf := make([]byte, 4096)
	for u := 0; u < maxUnits; u++ {
		for written < len(data) {
			w := src.Write(data[written:])
			written += w
			if w == 0 {
				break
			}
		}
		for {
			r := dst.Read(buf)
			got = append(got, buf[:r]...)
			if r == 0 {
				break
			}
		}
		if written == len(data) && len(got) == len(data) {
			return got
		}
		n.tick()
	}
	n.t.Fatalf("pump incomplete: wrote %d/%d, read %d/%d (a=%v b=%v)",
		written, len(data), len(got), len(data), n.a.State(), n.b.State())
	return nil
}

// pattern builds a deterministic test payload.
func pattern(size int) []byte {
	p := make([]byte, size)
	for i := range p {
		p[i] = byte(i*31 + i>>8)
	}
	return p
}

func defaultCfg() Config {
	return Config{MSS: 1460}
}

func checkIntegrity(t *testing.T, want, got []byte) {
	t.Helper()
	if !bytes.Equal(want, got) {
		i := 0
		for i < len(want) && i < len(got) && want[i] == got[i] {
			i++
		}
		t.Fatalf("data corrupted: lens %d/%d, first difference at %d", len(want), len(got), i)
	}
}
