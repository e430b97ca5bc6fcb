package stacks

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"ulp/internal/ipv4"
	"ulp/internal/pkt"
	"ulp/internal/tcp"
)

// tickPipe joins two engines by an in-memory wire and steps them in 100 ms
// quanta with the BSD tick structure (fast timeout every 2 steps, slow
// every 5). With wheel set the timers are driven the way every shell
// drives them — Sync around each engine operation, AdvanceFast/AdvanceSlow
// on the tick — and otherwise by the engine's own FastTick/SlowTick on
// every connection every tick, which is the reference.
type tickPipe struct {
	wheel *TCPWheel
	conns [2]*tcp.Conn
	ents  [2]*WheelEnt
	step  int
	// Inbound segments per side, due the step after they were sent.
	queue [2][]pipeSeg
	// Per-sender state, so the order in which the two sides' timers fire
	// inside one step (the only thing the two drivers may differ in) shows
	// in neither the drop schedule nor the logs.
	sent [2]int
	drop [2]map[int]bool
	log  [2][]string
}

type pipeSeg struct {
	at   int
	h    tcp.Header
	data []byte
}

func newTickPipe(wheel bool, cfg tcp.Config) *tickPipe {
	p := &tickPipe{drop: [2]map[int]bool{{}, {}}}
	if wheel {
		p.wheel = NewTCPWheel()
	}
	eps := [2]tcp.Endpoint{
		{IP: ipv4.Addr{10, 0, 0, 1}, Port: 1025},
		{IP: ipv4.Addr{10, 0, 0, 2}, Port: 80},
	}
	for i := range p.conns {
		i := i
		p.conns[i] = tcp.NewConn(cfg, eps[i], eps[1-i], tcp.Callbacks{
			Send: func(b *pkt.Buf, h tcp.Header, pl int) { p.send(i, b, h, pl) },
		})
		if wheel {
			p.ents[i] = p.wheel.Add(p.conns[i], nil)
		}
	}
	p.conns[1].SetISS(500_000)
	return p
}

func (p *tickPipe) send(from int, b *pkt.Buf, h tcp.Header, pl int) {
	idx := p.sent[from]
	p.sent[from]++
	p.log[from] = append(p.log[from], fmt.Sprintf("step %d: seq %d ack %d flags %#x len %d win %d",
		p.step, h.Seq, h.Ack, h.Flags, pl, h.Window))
	if p.drop[from][idx] {
		return
	}
	raw := b.Bytes()
	p.queue[1-from] = append(p.queue[1-from],
		pipeSeg{at: p.step + 1, h: h, data: append([]byte(nil), raw[len(raw)-pl:]...)})
}

// engine runs one engine operation on side i the way a shell would.
func (p *tickPipe) engine(i int, fn func(c *tcp.Conn)) {
	if p.wheel == nil {
		fn(p.conns[i])
		return
	}
	p.wheel.Sync(p.ents[i])
	fn(p.conns[i])
	p.wheel.Sync(p.ents[i])
}

// advance delivers what is due this step, fires the step's timeouts, and
// moves to the next step.
func (p *tickPipe) advance() {
	for i := range p.queue {
		for len(p.queue[i]) > 0 && p.queue[i][0].at <= p.step {
			seg := p.queue[i][0]
			p.queue[i] = p.queue[i][1:]
			p.engine(i, func(c *tcp.Conn) { c.Input(seg.h, seg.data) })
		}
	}
	direct := func(e *WheelEnt, fn func(*WheelEnt)) { fn(e) }
	if p.step%2 == 1 {
		if p.wheel != nil {
			p.wheel.AdvanceFast(direct)
		} else {
			p.conns[0].FastTick()
			p.conns[1].FastTick()
		}
	}
	if p.step%5 == 4 {
		if p.wheel != nil {
			p.wheel.AdvanceSlow(direct)
		} else {
			p.conns[0].SlowTick()
			p.conns[1].SlowTick()
		}
	}
	p.step++
}

// until steps the pipe until cond holds.
func (p *tickPipe) until(t *testing.T, cond func() bool) {
	t.Helper()
	for limit := p.step + 1000; !cond(); p.advance() {
		if p.step == limit {
			t.Fatalf("condition not reached in 1000 steps (states %v/%v)", p.conns[0].State(), p.conns[1].State())
		}
	}
}

// runLifecycle drives one connection through every timer the engine has:
// a lossy handshake and transfer (retransmit, delayed ACK), a receiver
// that stops reading (persist), a long silence (keepalive), and an orderly
// close (2MSL).
func runLifecycle(t *testing.T, wheel bool, seed int64) *tickPipe {
	t.Helper()
	p := newTickPipe(wheel, tcp.Config{MSS: 512, KeepAliveTicks: 40, TimeWaitTicks: 30})
	rng := rand.New(rand.NewSource(seed))
	for from := range p.drop {
		for idx := 0; idx < 400; idx++ {
			if rng.Intn(12) == 0 {
				p.drop[from][idx] = true
			}
		}
	}
	payload := make([]byte, 24_000)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	var got []byte
	buf := make([]byte, 2048)
	p.engine(1, func(c *tcp.Conn) { c.OpenListen() })
	p.engine(0, func(c *tcp.Conn) { c.OpenActive(1000) })
	for p.step < 3000 {
		if len(payload) > 0 && p.step >= 10 {
			p.engine(0, func(c *tcp.Conn) { payload = payload[c.Write(payload):] })
		}
		// The receiver sleeps through steps 40–400 with its window shut.
		if p.step < 40 || p.step > 400 {
			p.engine(1, func(c *tcp.Conn) {
				for n := c.Read(buf); n > 0; n = c.Read(buf) {
					got = append(got, buf[:n]...)
				}
			})
		}
		switch p.step {
		case 1500:
			p.engine(0, func(c *tcp.Conn) { c.Close() })
		case 1520:
			p.engine(1, func(c *tcp.Conn) { c.Close() })
		}
		p.advance()
	}
	if len(got) != 24_000 {
		t.Fatalf("wheel=%v: received %d of 24000 bytes", wheel, len(got))
	}
	for i, b := range got {
		if b != byte(i*7) {
			t.Fatalf("wheel=%v: byte %d corrupted", wheel, i)
		}
	}
	return p
}

// TestWheelMatchesTickScan is the wheel's contract: driven through Sync and
// Advance*, a connection emits exactly the segments it emits when every
// tick reaches it directly.
func TestWheelMatchesTickScan(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		ref := runLifecycle(t, false, seed)
		got := runLifecycle(t, true, seed)
		for side := range ref.log {
			if !reflect.DeepEqual(ref.log[side], got.log[side]) {
				for i := range ref.log[side] {
					if i >= len(got.log[side]) || ref.log[side][i] != got.log[side][i] {
						t.Fatalf("seed %d side %d: segment %d differs\n tick scan: %s\n wheel:     %v",
							seed, side, i, ref.log[side][i], got.log[side][i:min(i+1, len(got.log[side]))])
					}
				}
				t.Fatalf("seed %d side %d: wheel sent %d segments, tick scan %d",
					seed, side, len(got.log[side]), len(ref.log[side]))
			}
		}
		a, b := got.conns[0].Stats(), got.conns[1].Stats()
		if a.Rexmits == 0 || a.WindowProbes == 0 || a.KeepProbes+b.KeepProbes == 0 || b.DelayedAcks == 0 {
			t.Errorf("seed %d: lifecycle missed a timer: rexmits %d, window probes %d, keepalive probes %d, delayed ACKs %d",
				seed, a.Rexmits, a.WindowProbes, a.KeepProbes+b.KeepProbes, b.DelayedAcks)
		}
		if got.conns[0].State() != tcp.Closed || got.conns[1].State() != tcp.Closed {
			t.Errorf("seed %d: final states %v/%v, want both CLOSED (2MSL expiry)",
				seed, got.conns[0].State(), got.conns[1].State())
		}
		if n := got.wheel.Armed(); n != 0 {
			t.Errorf("seed %d: %d wheel timers armed for two closed connections", seed, n)
		}
	}
}

// TestWheelDropIsFinal pins the ghost-pcb fix: the registry hands a pcb to
// its library from inside an engine operation — ESTABLISHED, keepalive
// armed — and drops the entry there; the shell's exit Sync must not put it
// back on the wheel.
func TestWheelDropIsFinal(t *testing.T) {
	p := newTickPipe(true, tcp.Config{MSS: 512, KeepAliveTicks: 40})
	p.engine(1, func(c *tcp.Conn) { c.OpenListen() })
	p.engine(0, func(c *tcp.Conn) { c.OpenActive(1000) })
	p.until(t, func() bool {
		return p.conns[0].State() == tcp.Established && p.conns[1].State() == tcp.Established
	})
	if p.wheel.Armed() != 2 {
		t.Fatalf("armed = %d, want both keepalive timers", p.wheel.Armed())
	}
	p.wheel.Drop(p.ents[0])
	p.wheel.Drop(p.ents[1])
	p.wheel.Sync(p.ents[0])
	p.wheel.Sync(p.ents[1])
	if n := p.wheel.Armed(); n != 0 {
		t.Fatalf("Sync re-armed %d dropped entries", n)
	}
}

// TestWheelFireOnDroppedEntryIsNoop covers the library's race: a fire
// leaves the wheel, blocks on the connection's engine lock, and by the time
// it runs the lock holder has torn the connection down.
func TestWheelFireOnDroppedEntryIsNoop(t *testing.T) {
	p := newTickPipe(true, tcp.Config{MSS: 512, KeepAliveTicks: 2})
	p.engine(1, func(c *tcp.Conn) { c.OpenListen() })
	p.engine(0, func(c *tcp.Conn) { c.OpenActive(1000) })
	p.until(t, func() bool {
		return p.conns[0].State() == tcp.Established && p.conns[1].State() == tcp.Established
	})
	// One data segment leaves a delayed ACK pending at the receiver, so
	// both of its wheel timers are armed.
	// (Sent on an odd step it arrives on an even one, which has no fast
	// timeout to flush the ACK at once.)
	p.until(t, func() bool { return p.step%2 == 1 })
	p.engine(0, func(c *tcp.Conn) { c.Write([]byte("x")) })
	p.advance()
	p.advance()
	if !p.conns[1].DelAckPending() || p.wheel.Armed() != 3 {
		t.Fatalf("delayed ACK pending = %v, %d timers armed; want true, 3 (two slow, one fast)",
			p.conns[1].DelAckPending(), p.wheel.Armed())
	}
	sent := p.sent[1]
	dropThenRun := func(e *WheelEnt, fn func(*WheelEnt)) {
		p.wheel.Drop(e)
		fn(e)
	}
	p.wheel.Drop(p.ents[0]) // only the receiver's fires are under test
	for i := 0; i < 4; i++ {
		p.wheel.AdvanceFast(dropThenRun)
		p.wheel.AdvanceSlow(dropThenRun)
	}
	if p.sent[1] != sent {
		t.Errorf("fires on a dropped entry sent %d segments", p.sent[1]-sent)
	}
	if n := p.wheel.Armed(); n != 0 {
		t.Errorf("fires on a dropped entry left %d timers armed", n)
	}
}
