package kern

import (
	"testing"
	"time"

	"ulp/internal/sim"
)

// Domain.Kill tears down every thread with no exit path and fires the
// death hooks exactly once.
func TestDomainKill(t *testing.T) {
	s := sim.New()
	h := newHost(s)
	d := h.NewDomain("app", false)
	var progressed int
	for i := 0; i < 3; i++ {
		d.Spawn("w", func(th *Thread) {
			th.Sleep(time.Second)
			progressed++
		})
	}
	hooks := 0
	d.OnDeath(func() { hooks++ })
	s.After(time.Millisecond, func() {
		d.Kill()
		d.Kill() // idempotent
	})
	s.Run(0)
	if progressed != 0 {
		t.Fatalf("%d threads survived the kill", progressed)
	}
	if hooks != 1 {
		t.Fatalf("death hooks ran %d times, want 1", hooks)
	}
	if !d.Dead() {
		t.Fatal("domain not marked dead")
	}
}

// Threads spawned into an already-dead domain never run.
func TestSpawnIntoDeadDomain(t *testing.T) {
	s := sim.New()
	h := newHost(s)
	d := h.NewDomain("app", false)
	d.Kill()
	ran := false
	d.Spawn("late", func(th *Thread) { ran = true })
	s.Run(0)
	if ran {
		t.Fatal("thread ran in a dead domain")
	}
}

// A hook registered on an already-dead domain runs immediately.
func TestOnDeathAfterKill(t *testing.T) {
	s := sim.New()
	h := newHost(s)
	d := h.NewDomain("app", false)
	d.Kill()
	ran := false
	d.OnDeath(func() { ran = true })
	if !ran {
		t.Fatal("late death hook did not run")
	}
}

// ReceiveTimeout on a reply port of the caller's returns ok=false when the
// server never replies, and the caller resumes at the deadline.
func TestReceiveTimeout(t *testing.T) {
	s := sim.New()
	h := newHost(s)
	srv := h.NewDomain("server", true)
	svc := NewPort(h, "svc")
	replies := 0
	srv.Spawn("serve", func(th *Thread) {
		for {
			m := svc.Receive(th)
			if m.Op == "answer" {
				m.ReplyTo(th, Msg{Op: "ack"})
				replies++
			}
			// "ignore" requests get no reply ever.
		}
	})

	app := h.NewDomain("app", false)
	var gotAck, timedOut bool
	var elapsed sim.Dur
	app.Spawn("client", func(th *Thread) {
		reply := NewPort(h, "reply")
		svc.Send(th, Msg{Op: "answer", Reply: reply})
		if r, ok := reply.ReceiveTimeout(th, 100*time.Millisecond); ok && r.Op == "ack" {
			gotAck = true
		}
		start := th.Now()
		svc.Send(th, Msg{Op: "ignore", Reply: reply})
		if _, ok := reply.ReceiveTimeout(th, 50*time.Millisecond); !ok {
			timedOut = true
			elapsed = th.Now().Sub(start)
		}
	})
	s.Run(time.Second)
	if !gotAck {
		t.Fatal("answered call did not complete")
	}
	if !timedOut {
		t.Fatal("unanswered call did not time out")
	}
	// Elapsed is the 50 ms deadline plus the send-side IPC cost charged
	// before blocking; it must never be less than the deadline.
	if elapsed < 50*time.Millisecond || elapsed > 52*time.Millisecond {
		t.Fatalf("timeout took %v, want ~50ms of virtual time", elapsed)
	}
}

// Region pinning is released exactly once by Unpin.
func TestRegionUnpin(t *testing.T) {
	var r Region
	r.Wire(4096)
	if !r.Pinned() {
		t.Fatal("fresh region should be pinned")
	}
	r.Unpin()
	if r.Pinned() {
		t.Fatal("region still pinned after Unpin")
	}
}

// A domain that spawns a thread per connection must not remember the threads
// whose connections are over: ten thousand short threads one after another
// leave an empty list (each used to stay listed, with its proc, its closure
// and whatever that captured, for the life of the domain), and a kill among
// finished threads reaches the live ones only, in spawn order.
func TestFinishedThreadsLeaveTheDomain(t *testing.T) {
	s := sim.New()
	h := newHost(s)
	d := h.NewDomain("app", false)
	ran := 0
	d.Spawn("spawner", func(th *Thread) {
		for i := 0; i < 10000; i++ {
			d.Spawn("short", func(*Thread) { ran++ })
			th.Sleep(time.Microsecond)
			if n := d.threads.n; n != 1 {
				t.Fatalf("after %d short threads the domain lists %d threads, want 1", i+1, n)
			}
		}
	})
	s.Run(0)
	if ran != 10000 || d.threads.n != 0 {
		t.Fatalf("%d threads ran, %d still listed; want 10000 and 0", ran, d.threads.n)
	}

	// Three sleepers among finished threads: the kill unwinds exactly those,
	// first spawned first.
	var unwound []string
	sleeper := func(name string) {
		d.Spawn(name, func(th *Thread) {
			defer func() { unwound = append(unwound, name) }()
			th.Sleep(time.Hour)
		})
	}
	short := func() { d.Spawn("short", func(*Thread) {}) }
	short()
	sleeper("a")
	short()
	short()
	sleeper("b")
	sleeper("c")
	short()
	s.After(time.Millisecond, d.Kill)
	s.Run(time.Second)
	if d.threads.n != 0 {
		t.Fatalf("%d threads listed after the kill", d.threads.n)
	}
	if len(unwound) != 3 || unwound[0] != "a" || unwound[1] != "b" || unwound[2] != "c" {
		t.Fatalf("kill unwound %v, want [a b c]", unwound)
	}
}

// TestPortReadsDeadWithItsReceiver: a port reads dead from the instant the
// domain holding its receive right is killed, and live again once the right
// moves to another domain; a request sent while it is dead queues, and
// drains into the right's next holder.
func TestPortReadsDeadWithItsReceiver(t *testing.T) {
	s := sim.New()
	h := newHost(s)
	p := NewPort(h, "svc")
	if p.Dead() {
		t.Fatal("a port nobody has taken the receive right of reads dead")
	}
	old := h.NewDomain("server", true)
	p.SetReceiver(old)
	old.Spawn("service", func(th *Thread) { p.Receive(th) })
	s.Run(time.Millisecond)
	if p.Dead() {
		t.Fatal("the port reads dead while its receiver lives")
	}
	old.Kill()
	if !p.Dead() {
		t.Fatal("the port reads live after its receiver's kill")
	}
	h.NewDomain("client", false).Spawn("caller", func(th *Thread) { p.Send(th, Msg{Op: "request"}) })
	s.Run(time.Millisecond)
	if !p.Dead() {
		t.Fatal("a send revived a dead port")
	}
	next := h.NewDomain("server", true)
	p.SetReceiver(next)
	if p.Dead() {
		t.Fatal("the port reads dead after its receive right moved to a live domain")
	}
	var got string
	next.Spawn("service", func(th *Thread) { got = p.Receive(th).Op })
	s.Run(time.Millisecond)
	if got != "request" {
		t.Fatalf("the new receiver got %q, want the request queued while the port was dead", got)
	}
}
