package core

import (
	"math"
	"reflect"
	"slices"
	"testing"
	"time"

	"ulp/internal/chaos"
	"ulp/internal/costs"
	"ulp/internal/ctl"
	"ulp/internal/ipv4"
	"ulp/internal/kern"
	"ulp/internal/link"
	"ulp/internal/netdev"
	"ulp/internal/netio"
	"ulp/internal/registry"
	"ulp/internal/sim"
	"ulp/internal/stacks"
	"ulp/internal/tcp"
	"ulp/internal/trace"
	"ulp/internal/wire"
)

// twoLibraries builds a two-host Ethernet world with a registry on each
// host and one application library linked against each; regs are the
// registries, which the libraries reach only through their ports.
func twoLibraries() (s *sim.Sim, libs [2]*Library, ips [2]ipv4.Addr, regs [2]*registry.Federation) {
	return shardedLibraries(1)
}

// shardedLibraries is twoLibraries with registries of the given number of
// shards.
func shardedLibraries(shards int) (s *sim.Sim, libs [2]*Library, ips [2]ipv4.Addr, regs [2]*registry.Federation) {
	s = sim.New()
	seg := wire.New(s, wire.EthernetConfig())
	ips = [2]ipv4.Addr{{10, 0, 0, 1}, {10, 0, 0, 2}}
	for i := range libs {
		h := kern.NewHost(s, []string{"h0", "h1"}[i], costs.Default())
		mod := netio.New(h, netdev.NewLance(h, seg, link.MakeAddr(i+1)))
		regs[i] = registry.NewFederation(s, mod, ips[i], shards)
		libs[i] = NewLibrary(s, h.NewDomain("app", false), regs[i].Netif(), regs[i].Shards)
	}
	return s, libs, ips, regs
}

// exitOrder accepts n connections through one listener — they all share
// local port 80 — then kills the registry, stands a recorder in for its
// next incarnation at the service port, and returns the peer ports in the
// order Exit handed the connections back.
func exitOrder(t *testing.T, n int) []uint16 {
	t.Helper()
	s, libs, ips, regs := twoLibraries()
	srv, cli := libs[0], libs[1]
	accepted := 0
	srv.app.Spawn("srv", func(th *kern.Thread) {
		l, err := srv.Listen(th, 80, stacks.Options{Backlog: n})
		if err != nil {
			t.Error(err)
			return
		}
		for ; accepted < n; accepted++ {
			if _, err := l.Accept(th); err != nil {
				t.Error(err)
				return
			}
		}
	})
	for i := 0; i < n; i++ {
		cli.app.SpawnAfter(time.Millisecond, "cli", func(th *kern.Thread) {
			if _, err := cli.Connect(th, tcp.Endpoint{IP: ips[0], Port: 80}, stacks.Options{}); err != nil {
				t.Error(err)
			}
		})
	}
	s.RunUntil(time.Minute, func() bool { return accepted == n })
	if accepted != n {
		t.Fatalf("accepted %d of %d connections", accepted, n)
	}

	regs[0].CrashShard(0)
	reborn := srv.svc(0)
	var order []uint16
	srv.host.NewDomain("recorder", true).Spawn("svc", func(th *kern.Thread) {
		for {
			m := reborn.Receive(th)
			if req, ok := m.Body.(ctl.InheritReq); ok {
				order = append(order, req.Cap.Template().RemotePort)
			}
		}
	})
	srv.app.Spawn("exit", func(th *kern.Thread) { srv.Exit(th, false) })
	s.RunUntil(time.Minute, func() bool { return len(order) == n })
	return order
}

// TestExitOrderIsDeterministic: connections accepted through one listener
// share its local port, so Exit orders its hand-backs, each a message the
// registry acts on in turn, by the whole four-tuple: the same order in every
// construction of the same world.
func TestExitOrderIsDeterministic(t *testing.T) {
	const conns = 5
	first := exitOrder(t, conns)
	if len(first) != conns {
		t.Fatalf("%d hand-backs for %d connections", len(first), conns)
	}
	for i := 1; i < len(first); i++ {
		if first[i-1] >= first[i] {
			t.Fatalf("hand-back order %v is not four-tuple order", first)
		}
	}
	for i := 1; i < 50; i++ {
		if got := exitOrder(t, conns); !reflect.DeepEqual(got, first) {
			t.Fatalf("construction %d handed back in order %v, construction 0 in %v", i, got, first)
		}
	}
}

// A library lends a call slot for the length of one call, so it uses no more
// slots than it has calls under way at once: the registry keeps an entry per
// slot. Eight threads that each listen and close a listener many times use
// at most eight, and hold none once they are done.
func TestCallSlotsBoundedByConcurrentCalls(t *testing.T) {
	s, libs, _, _ := twoLibraries()
	lib := libs[0]
	const threads = 8
	finished := 0
	for i := range threads {
		lib.app.Spawn("caller", func(th *kern.Thread) {
			for range 50 {
				l, err := lib.Listen(th, uint16(8000+i), stacks.Options{})
				if err != nil {
					t.Error(err)
					return
				}
				l.Close(th)
			}
			finished++
		})
	}
	s.RunUntil(time.Minute, func() bool { return finished == threads })
	if finished != threads {
		t.Fatalf("%d of %d callers finished", finished, threads)
	}
	if n := len(lib.slots); n < 2 || n > threads || slices.ContainsFunc(lib.slots, func(s callSlot) bool { return s.busy }) {
		t.Fatalf("slots %v after the calls; want 2 to %d made, all free", lib.slots, threads)
	}
}

// A library lends at most ctl.CallSlots slots, the most the registry
// answers on: a caller that finds them all lent waits for one. More threads
// than that listening at once all get their listener.
func TestCallSlotsWaitAtTheRegistryBound(t *testing.T) {
	s, libs, _, regs := twoLibraries()
	lib := libs[0]
	const threads = ctl.CallSlots + 8
	finished := 0
	for i := range threads {
		lib.app.Spawn("caller", func(th *kern.Thread) {
			if _, err := lib.Listen(th, uint16(8000+i), stacks.Options{}); err != nil {
				t.Error(err)
			}
			finished++
		})
	}
	s.RunUntil(time.Minute, func() bool { return finished == threads })
	if finished != threads {
		t.Fatalf("%d of %d callers finished", finished, threads)
	}
	if n := len(lib.slots); n != ctl.CallSlots || slices.ContainsFunc(lib.slots, func(s callSlot) bool { return s.busy }) {
		t.Fatalf("%d slots made, want ctl.CallSlots (%d), all free: %v", n, ctl.CallSlots, lib.slots)
	}
	if n := regs[0].ListenerCount(); n != threads {
		t.Fatalf("%d listeners, want %d", n, threads)
	}
}

// Request ids wrap: calls on one slot across the wrap of the library's id
// counter are each answered, for the registry orders a caller's ids in
// serial-number arithmetic, and no call takes id zero, which it does not
// track.
func TestRequestIDsWrapOnASlot(t *testing.T) {
	s, libs, _, regs := twoLibraries()
	lib := libs[0]
	lib.reqSeq = math.MaxUint32 - 1
	done := false
	lib.app.Spawn("caller", func(th *kern.Thread) {
		for port := uint16(8000); port < 8003; port++ {
			if _, err := lib.Listen(th, port, stacks.Options{}); err != nil {
				t.Errorf("listen %d: %v", port, err)
			}
		}
		done = true
	})
	s.RunUntil(time.Minute, func() bool { return done })
	if n := regs[0].ListenerCount(); !done || n != 3 || lib.reqSeq != 2 {
		t.Fatalf("%d listeners (done %v), the last id %d; want 3, the last id 2", n, done, lib.reqSeq)
	}
}

// A call that gives up withdraws its id, and the withdrawal reaches the
// registry before the caller's next call on the same slot, which would retire
// the entry through which the registry finds what to give back: here a
// connection handed off, after the give-up, to a reply port nobody reads.
// Every request waits 10 s at the client's two-shard registry, longer than
// the whole retry budget, so the connect and the listen after it give up,
// and the connect's set-up completes while the library has stopped waiting.
// The listen goes to shard 0; the connect goes there too, or, after a first
// connect that succeeded, to shard 1, whose queue holds the connect's four
// attempts ahead of its withdrawal: so the listen withdraws the connect's id
// once more, ahead of itself. (With one table of callers' entries per host,
// the listen once retired the connect's entry on shard 0 while the
// withdrawal still waited on shard 1, and the connection was left handed off
// to nobody.)
func TestAbandonPrecedesTheSlotsNextCall(t *testing.T) {
	for _, first := range []bool{false, true} {
		s, libs, ips, regs := shardedLibraries(2)
		srv, cli := libs[0], libs[1]
		srv.app.Spawn("server", func(th *kern.Thread) {
			if _, err := srv.Listen(th, 80, stacks.Options{}); err != nil {
				t.Error(err)
			}
		})
		s.Run(100 * time.Millisecond)
		var errs [2]error
		adopted, done := 0, false
		cli.app.Spawn("client", func(th *kern.Thread) {
			if first {
				if _, err := cli.Connect(th, tcp.Endpoint{IP: ips[0], Port: 80}, stacks.Options{}); err != nil {
					t.Error(err)
				}
				adopted++
			}
			regs[1].SetControlFaults(chaos.NewInjector(1, chaos.ControlFaults{DelayProb: 1, Delay: 10 * time.Second}))
			_, errs[0] = cli.Connect(th, tcp.Endpoint{IP: ips[0], Port: 80}, stacks.Options{})
			_, errs[1] = cli.Listen(th, 81, stacks.Options{})
			done = true
		})
		s.RunUntil(time.Minute, func() bool { return done })
		if !done || errs[0] != stacks.ErrRegistryUnavailable || errs[1] != stacks.ErrRegistryUnavailable {
			t.Fatalf("first connect %v: connect and listen returned %v (done %v), want both to give up", first, errs, done)
		}
		s.Run(2 * time.Minute)
		if n := regs[0].TransferredConns(); n != adopted+1 {
			t.Fatalf("first connect %v: the server's host handed off %d connections, want %d", first, n, adopted+1)
		}
		if n := regs[1].TransferredConns(); n != adopted {
			t.Fatalf("first connect %v: the client's host handed off %d connections, want the %d adopted", first, n, adopted)
		}
	}
}

// A library sends a connect to a sharded registry from the calling thread, as
// it does to a lone one: the shard dispatches the request as soon as the
// caller's procedure call and the IPC into the shard's domain are paid, with
// no hold in between to coalesce it with others.
func TestShardedConnectLeavesFromTheCaller(t *testing.T) {
	s, libs, ips, _ := shardedLibraries(2)
	srv, cli := libs[0], libs[1]
	s.Bus = trace.NewBus(func() time.Duration { return time.Duration(s.Now()) })
	var dispatched []time.Duration
	s.Bus.Subscribe(func(e trace.Event) {
		if e.Kind == trace.RegistryRPC && e.Node == "h1" && e.Text == "connect" {
			dispatched = append(dispatched, e.At)
		}
	})
	srv.app.Spawn("server", func(th *kern.Thread) {
		if _, err := srv.Listen(th, 80, stacks.Options{}); err != nil {
			t.Error(err)
		}
	})
	s.Run(100 * time.Millisecond)
	var called time.Duration
	done := false
	cli.app.Spawn("client", func(th *kern.Thread) {
		called = time.Duration(s.Now())
		if _, err := cli.Connect(th, tcp.Endpoint{IP: ips[0], Port: 80}, stacks.Options{}); err != nil {
			t.Error(err)
		}
		done = true
	})
	s.RunUntil(time.Minute, func() bool { return done })
	c := cli.host.Cost
	want := called + c.ProcCall + c.MachIPCSend + c.ContextSwitch
	if len(dispatched) != 1 || dispatched[0] != want {
		t.Fatalf("connect dispatched at %v, want once at %v (the call at %v, then its procedure call and IPC)", dispatched, want, called)
	}
}
