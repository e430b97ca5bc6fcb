package kern

import (
	"testing"
	"time"

	"ulp/internal/costs"
	"ulp/internal/sim"
)

func newHost(s *sim.Sim) *Host {
	return NewHost(s, "h0", costs.Default())
}

func TestThreadCompute(t *testing.T) {
	s := sim.New()
	h := newHost(s)
	d := h.NewDomain("app", false)
	var end sim.Time
	d.Spawn("w", func(th *Thread) {
		th.Compute(100 * time.Microsecond)
		end = th.Now()
	})
	s.Run(0)
	if end != sim.Time(100*time.Microsecond) {
		t.Fatalf("end = %v, want 100µs", end)
	}
}

func TestCPUContention(t *testing.T) {
	s := sim.New()
	h := newHost(s)
	d := h.NewDomain("app", false)
	var ends []sim.Time
	for i := 0; i < 2; i++ {
		d.Spawn("w", func(th *Thread) {
			th.Compute(50 * time.Microsecond)
			ends = append(ends, th.Now())
		})
	}
	s.Run(0)
	if ends[0] != sim.Time(50*time.Microsecond) || ends[1] != sim.Time(100*time.Microsecond) {
		t.Fatalf("ends = %v, want serialized on one CPU", ends)
	}
}

func TestTwoHostsIndependentCPUs(t *testing.T) {
	s := sim.New()
	h1 := NewHost(s, "h1", costs.Default())
	h2 := NewHost(s, "h2", costs.Default())
	var ends []sim.Time
	h1.NewDomain("a", false).Spawn("w", func(th *Thread) {
		th.Compute(50 * time.Microsecond)
		ends = append(ends, th.Now())
	})
	h2.NewDomain("a", false).Spawn("w", func(th *Thread) {
		th.Compute(50 * time.Microsecond)
		ends = append(ends, th.Now())
	})
	s.Run(0)
	if ends[0] != ends[1] {
		t.Fatalf("different hosts should not contend: %v", ends)
	}
}

func TestSemWakeupCost(t *testing.T) {
	s := sim.New()
	h := newHost(s)
	d := h.NewDomain("app", false)
	sem := NewSem(h, "sem", 0)
	var wake sim.Time
	d.Spawn("waiter", func(th *Thread) {
		sem.P(th)
		wake = th.Now()
	})
	s.After(time.Millisecond, func() { sem.V() })
	s.Run(0)
	// Wakeup should cost KernelWakeup after the V at 1ms.
	want := sim.Time(time.Millisecond + costs.Default().KernelWakeup)
	if wake != want {
		t.Fatalf("woke at %v, want %v", wake, want)
	}
	if got := describe(h); got["wakeups"] != 1 || got["signals"] != 0 {
		t.Fatalf("counters = %v, want one wakeup and no signal", got)
	}
}

// describe collects what h.Describe emits.
func describe(h *Host) map[string]int64 {
	got := map[string]int64{}
	h.Describe(func(k string, v int64) { got[k] = v })
	return got
}

func TestSemNoWaiterCheapSignal(t *testing.T) {
	s := sim.New()
	h := newHost(s)
	sem := NewSem(h, "sem", 0)
	sem.V()
	s.Run(0)
	if h.CPU.Busy() != costs.Default().SemSignal {
		t.Fatalf("cpu busy = %v, want SemSignal only", h.CPU.Busy())
	}
	// The post was kept: a later P passes without blocking.
	passed := false
	h.NewDomain("app", false).Spawn("late", func(th *Thread) {
		sem.P(th)
		passed = true
	})
	s.Run(0)
	if !passed {
		t.Fatal("post was lost")
	}
	if got := describe(h); got["wakeups"] != 0 || got["signals"] != 1 {
		t.Fatalf("counters = %v, want one signal and no wakeup", got)
	}
}

func TestPortRPC(t *testing.T) {
	s := sim.New()
	h := newHost(s)
	app := h.NewDomain("app", false)
	srv := h.NewDomain("server", true)
	port := NewPort(h, "svc")

	srv.Spawn("server", func(th *Thread) {
		m := port.Receive(th)
		if m.Op != "ping" {
			t.Errorf("op = %q", m.Op)
		}
		th.Compute(10 * time.Microsecond) // service time
		m.ReplyTo(th, Msg{Op: "pong", Size: 4})
	})

	var reply Msg
	var rtt sim.Time
	app.Spawn("client", func(th *Thread) {
		reply = port.Call(th, Msg{Op: "ping", Size: 8})
		rtt = th.Now()
	})
	s.Run(0)
	if reply.Op != "pong" {
		t.Fatalf("reply = %+v", reply)
	}
	c := costs.Default()
	// Two one-way IPCs + two context switches + copies + service.
	min := 2*c.MachIPCSend + 2*c.ContextSwitch + 10*time.Microsecond
	if sim.Dur(rtt) < min {
		t.Fatalf("rtt = %v, want >= %v", rtt, min)
	}
}

func TestPortFIFO(t *testing.T) {
	s := sim.New()
	h := newHost(s)
	d := h.NewDomain("a", false)
	port := NewPort(h, "p")
	var got []string
	d.Spawn("recv", func(th *Thread) {
		for i := 0; i < 3; i++ {
			got = append(got, port.Receive(th).Op)
		}
	})
	d.Spawn("send", func(th *Thread) {
		for _, op := range []string{"1", "2", "3"} {
			port.Send(th, Msg{Op: op})
		}
	})
	s.Run(0)
	if len(got) != 3 || got[0] != "1" || got[2] != "3" {
		t.Fatalf("got = %v", got)
	}
}

func TestSendAsync(t *testing.T) {
	s := sim.New()
	h := newHost(s)
	d := h.NewDomain("a", false)
	port := NewPort(h, "p")
	var got Msg
	d.Spawn("recv", func(th *Thread) { got = port.Receive(th) })
	port.SendAsync(d, Msg{Op: "evt", Size: 100})
	s.Run(0)
	if got.Op != "evt" {
		t.Fatalf("got = %+v", got)
	}
}

// The kernel names a message's sender: a From the sender wrote is
// overwritten with the domain that sent it, whether the message goes by Send
// or by SendAsync, and so is an answer's by ReplyTo.
func TestSenderCannotBeForged(t *testing.T) {
	s := sim.New()
	h := newHost(s)
	victim, forger := h.NewDomain("victim", false), h.NewDomain("forger", false)
	svc, reply := NewPort(h, "svc"), NewPort(h, "reply")
	forged := Msg{Op: "forged", From: victim}
	forger.Spawn("send", func(th *Thread) {
		svc.Send(th, forged)
	})
	svc.SendAsync(forger, forged)
	var got []Msg
	victim.Spawn("serve", func(th *Thread) {
		for range 2 {
			got = append(got, svc.Receive(th))
		}
		Msg{Reply: reply}.ReplyTo(th, Msg{From: forger})
	})
	s.Run(0)
	if len(got) != 2 {
		t.Fatalf("%d messages reached the server, want 2", len(got))
	}
	for i, m := range got {
		if m.From != forger {
			t.Errorf("message %d (%s) names %v as its sender, want %v", i, m.Op, m.From, forger)
		}
	}
	if m, ok := reply.q.TryPop(); !ok || m.From != victim {
		t.Errorf("the answer names %v as its sender, want %v", m.From, victim)
	}
}

func TestReplyToOneWayPanics(t *testing.T) {
	s := sim.New()
	h := newHost(s)
	d := h.NewDomain("a", false)
	port := NewPort(h, "p")
	d.Spawn("recv", func(th *Thread) {
		m := port.Receive(th)
		defer func() {
			if r := recover(); r != `kern: h0/a.recv replied to one-way message "oneway"` {
				t.Errorf("panic %v, want one naming the replying thread", r)
			}
		}()
		m.ReplyTo(th, Msg{})
	})
	d.Spawn("send", func(th *Thread) { port.Send(th, Msg{Op: "oneway"}) })
	s.Run(0)
}

func TestRegion(t *testing.T) {
	var r Region
	r.Wire(4096)
	if len(r.Buf) != 4096 || !r.Pinned() {
		t.Fatalf("region size = %d, pinned %v", len(r.Buf), r.Pinned())
	}
	copy(r.Buf, "shared")
	if string(r.Buf[:6]) != "shared" {
		t.Fatal("region not writable")
	}
	// Re-wiring a reused record keeps its backing array and zeroes it.
	first := &r.Buf[0]
	r.Unpin()
	r.Wire(2048)
	if len(r.Buf) != 2048 || &r.Buf[0] != first || r.Buf[0] != 0 || !r.Pinned() {
		t.Fatalf("rewired region: len %d, same array %v, first byte %d, pinned %v",
			len(r.Buf), &r.Buf[0] == first, r.Buf[0], r.Pinned())
	}
}

func TestTrapCosts(t *testing.T) {
	s := sim.New()
	h := newHost(s)
	d := h.NewDomain("app", false)
	d.Spawn("w", func(th *Thread) {
		th.Trap()
		th.FastTrap()
	})
	s.Run(0)
	c := costs.Default()
	if h.CPU.Busy() != c.SyscallTrap+c.FastTrap {
		t.Fatalf("busy = %v", h.CPU.Busy())
	}
}

// A thread's qualified name is composed when asked for; the proc underneath
// keeps the short name it was spawned with.
func TestThreadNameComposedOnDemand(t *testing.T) {
	s := sim.New()
	h := NewHost(s, "h0", costs.Default())
	th := h.NewDomain("app", false).Spawn("reader", func(*Thread) {})
	if th.Name() != "h0/app.reader" || th.Proc.Name() != "reader" {
		t.Fatalf("thread %q over proc %q, want h0/app.reader over reader", th.Name(), th.Proc.Name())
	}
}

// A SendAsync on a warm host allocates nothing: the message waits for its
// CPU time in a record from the host's list, and the event carries a static
// callback.
func TestSendAsyncAllocatesNothing(t *testing.T) {
	s := sim.New()
	h := newHost(s)
	p := NewPort(h, "p")
	d := h.NewDomain("a", false)
	body := new(int)
	got := 0
	step := func() {
		p.SendAsync(d, Msg{Op: "async", Body: body, Size: 64})
		s.Run(0)
		if m, ok := p.q.TryPop(); ok && m.Body == body {
			got++
		}
	}
	step()
	if allocs := testing.AllocsPerRun(200, step); allocs != 0 {
		t.Fatalf("a SendAsync and its delivery allocate %v times, want 0", allocs)
	}
	if got < 200 {
		t.Fatalf("%d messages delivered", got)
	}
}
