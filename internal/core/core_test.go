package core

import (
	"reflect"
	"testing"
	"time"

	"ulp/internal/costs"
	"ulp/internal/ipv4"
	"ulp/internal/kern"
	"ulp/internal/link"
	"ulp/internal/netdev"
	"ulp/internal/netio"
	"ulp/internal/registry"
	"ulp/internal/sim"
	"ulp/internal/stacks"
	"ulp/internal/tcp"
	"ulp/internal/wire"
)

// twoLibraries builds a two-host Ethernet world with a registry on each
// host and one application library linked against each; regs are the
// registries, which the libraries reach only through their ports.
func twoLibraries() (s *sim.Sim, libs [2]*Library, ips [2]ipv4.Addr, regs [2]*registry.Federation) {
	s = sim.New()
	seg := wire.New(s, wire.EthernetConfig())
	ips = [2]ipv4.Addr{{10, 0, 0, 1}, {10, 0, 0, 2}}
	for i := range libs {
		h := kern.NewHost(s, []string{"h0", "h1"}[i], costs.Default())
		mod := netio.New(h, netdev.NewLance(h, seg, link.MakeAddr(i+1)))
		regs[i] = registry.NewFederation(s, mod, ips[i], 1)
		libs[i] = NewLibrary(s, h.NewDomain("app", false), regs[i])
	}
	return s, libs, ips, regs
}

// reregisterOrder accepts n connections through one listener — they all
// share local port 80 — then kills the registry, stands a recorder in for
// its next incarnation at the service port, and returns the peer ports in
// the order reregisterAll issued its claims.
func reregisterOrder(t *testing.T, n int) []uint16 {
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
	reborn := srv.meta.Svc(0)
	var order []uint16
	srv.host.NewDomain("recorder", true).Spawn("svc", func(th *kern.Thread) {
		for {
			m := reborn.Receive(th)
			order = append(order, m.Body.(registry.ReRegisterReq).Cap.Template().RemotePort)
			m.ReplyTo(th, kern.Msg{Op: "reregister-ack"})
		}
	})
	done := false
	srv.app.Spawn("reregister", func(th *kern.Thread) { done = srv.reregisterAll(th) })
	s.RunUntil(2*time.Minute, func() bool { return done })
	if !done {
		t.Fatal("reregisterAll did not reach the registry")
	}
	return order
}

// TestReregisterOrderIsDeterministic: the connections accepted through one
// listener share its local port, so ordering them by local port alone left
// the sequence of re-registration RPCs (and of Exit's handbacks and the
// give-up sweep, which walk the same list) to Go's map iteration.
func TestReregisterOrderIsDeterministic(t *testing.T) {
	const conns = 5
	first := reregisterOrder(t, conns)
	if len(first) != conns {
		t.Fatalf("%d re-registrations for %d connections", len(first), conns)
	}
	for i := 1; i < len(first); i++ {
		if first[i-1] >= first[i] {
			t.Fatalf("re-registration order %v is not four-tuple order", first)
		}
	}
	for i := 1; i < 50; i++ {
		if got := reregisterOrder(t, conns); !reflect.DeepEqual(got, first) {
			t.Fatalf("construction %d re-registered in order %v, construction 0 in %v", i, got, first)
		}
	}
}
