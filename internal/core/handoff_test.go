package core

import (
	"testing"
	"time"

	"ulp/internal/chaos"
	"ulp/internal/kern"
	"ulp/internal/pkt"
	"ulp/internal/stacks"
	"ulp/internal/tcp"
)

// TestLateConnectReplyReachesNoLaterConnect: the client's registry holds
// every request 300 ms, past the first RPC deadline (250 ms), so each
// connect's first attempt times out and its answer lands late on the
// attempt's reply port, while the retry is answered from the dedup cache on
// its own. The library reuses a reply port only once it has received its
// answer: a late answer must never reach a later Connect, which would adopt
// a connection twice, and every connection is adopted exactly once on each
// side.
func TestLateConnectReplyReachesNoLaterConnect(t *testing.T) {
	const n = 5
	s, libs, ips, regs := twoLibraries()
	srv, cli := libs[0], libs[1]
	inj := chaos.NewInjector(1, chaos.ControlFaults{DelayProb: 1, Delay: 300 * time.Millisecond})
	regs[1].SetControlFaults(inj)
	accepted := map[tcp.FourTuple]int{}
	srv.app.Spawn("srv", func(th *kern.Thread) {
		l, err := srv.Listen(th, 80, stacks.Options{Backlog: n})
		if err != nil {
			t.Error(err)
			return
		}
		for {
			c, err := l.Accept(th)
			if err != nil {
				t.Error(err)
				return
			}
			ft := c.(*Conn).tuple()
			accepted[tcp.FourTuple{Local: ft.Peer, Peer: ft.Local}]++
		}
	})
	adopted := map[tcp.FourTuple]int{}
	done := 0
	cli.app.SpawnAfter(time.Millisecond, "cli", func(th *kern.Thread) {
		for range n {
			c, err := cli.Connect(th, tcp.Endpoint{IP: ips[0], Port: 80}, stacks.Options{})
			if err != nil {
				t.Error(err)
				return
			}
			adopted[c.(*Conn).tuple()]++
			done++
		}
	})
	s.RunUntil(time.Minute, func() bool { return done == n })
	s.Run(5 * time.Second) // every late answer has landed
	if done != n {
		t.Fatalf("%d of %d connects returned", done, n)
	}
	for ft, k := range adopted {
		if k != 1 || accepted[ft] != 1 {
			t.Errorf("%v adopted %d times by the client, accepted %d times by the server", ft, k, accepted[ft])
		}
	}
	live := 0
	for c := cli.live; c != nil; c = c.next {
		live++
	}
	if len(adopted) != n || len(accepted) != n || live != n {
		t.Errorf("%d connections adopted, %d accepted, %d live in the client library; want %d",
			len(adopted), len(accepted), live, n)
	}
	if got := regs[1].TransferredConns(); got != n {
		t.Errorf("the client's registry has %d connections handed off, want %d", got, n)
	}
	if inj.DelayedRequests < 2*n || cli.replies.Len() == 0 {
		t.Errorf("%d requests delayed, %d reply ports kept; want every connect's two attempts, and one: nothing tested",
			inj.DelayedRequests, cli.replies.Len())
	}
}

// TestReregisterGiveUpFailsEachConnectionOnce: a library whose registry never
// answers again gives up its re-register budget and fails every connection,
// the full and the compacted ones alike, once: each leaves the library
// exactly once, no TIME_WAIT of a failed connection ends it a second time
// later, and the library holds nothing afterwards.
func TestReregisterGiveUpFailsEachConnectionOnce(t *testing.T) {
	pkt.SetLeakTracking(true)
	defer pkt.SetLeakTracking(false)
	const compacted, full = 4, 3
	s, libs, regs, tws, _, _ := closeFirst(t, compacted)
	srv, cli := libs[0], libs[1]
	var open []*Conn
	srv.app.Spawn("srv", func(th *kern.Thread) {
		l, err := srv.Listen(th, 81, stacks.Options{Backlog: full})
		if err != nil {
			t.Error(err)
			return
		}
		for range full {
			c, err := l.Accept(th)
			if err != nil {
				t.Error(err)
				return
			}
			open = append(open, c.(*Conn))
		}
	})
	cli.app.Spawn("cli", func(th *kern.Thread) {
		for range full {
			if _, err := cli.Connect(th, tcp.Endpoint{IP: srv.nif.IP, Port: 81}, stacks.Options{}); err != nil {
				t.Error(err)
				return
			}
		}
	})
	s.RunUntil(time.Minute, func() bool { return len(open) == full })
	if len(open) != full {
		t.Fatalf("%d of %d connections kept open", len(open), full)
	}

	// The registry dies for good; what reaches its port is counted and never
	// answered.
	regs[0].CrashShard(0)
	svc := srv.meta.Svc(0)
	ops := map[string]int{}
	srv.host.NewDomain("silent", true).Spawn("svc", func(th *kern.Thread) {
		for {
			ops[svc.Receive(th).Op]++
		}
	})
	// Once the dead registry's grace has run out, a write finds the endpoint
	// quarantined and starts the re-registration.
	srv.app.SpawnAfter(4*time.Second, "write", func(th *kern.Thread) {
		if _, err := open[0].Write(th, []byte("x")); err != nil {
			t.Error(err)
		}
	})
	started := false
	s.RunUntil(time.Minute, func() bool {
		started = started || srv.reconnecting
		return started && !srv.reconnecting
	})
	if !started || srv.reconnecting {
		t.Fatal("the re-registration did not start and end")
	}
	all := append(append([]*Conn(nil), tws...), open...)
	if len(srv.closing) != len(all) {
		t.Fatalf("%d connections left the library as it gave up, want %d", len(srv.closing), len(all))
	}
	left := map[*Conn]int{}
	for _, c := range srv.closing {
		left[c]++
	}
	for i, c := range all {
		if left[c] != 1 || !c.done {
			t.Errorf("connection %d left the library %d times (done %v), want once", i, left[c], c.done)
		}
	}
	if ops["reregister"] < reconnectAttempts {
		t.Errorf("%d claims reached the registry, want one per attempt (%d)", ops["reregister"], reconnectAttempts)
	}

	// Past every 2MSL: nothing ends a second time.
	s.Run(2 * time.Minute)
	if srv.live != nil || len(srv.closing) != 0 || srv.wheel.Armed() != 0 {
		t.Fatalf("the library still holds connections (%v), %d to let go of, %d timers",
			srv.live != nil, len(srv.closing), srv.wheel.Armed())
	}
	if ops["teardown"]+ops["inherit"] != 0 {
		t.Errorf("%d teardowns and %d inherits posted for failed connections", ops["teardown"], ops["inherit"])
	}
	srv.app.Spawn("check", func(th *kern.Thread) {
		buf := make([]byte, 4)
		for i, c := range open {
			if n, err := c.Read(th, buf); n != 0 || err != stacks.ErrRegistryUnavailable {
				t.Errorf("open connection %d: Read = %d, %v, want ErrRegistryUnavailable", i, n, err)
			}
		}
		for i, c := range tws {
			if n, err := c.Write(th, []byte("x")); n != 0 || err != stacks.ErrRegistryUnavailable {
				t.Errorf("compacted connection %d: Write = %d, %v, want ErrRegistryUnavailable", i, n, err)
			}
		}
	})
	s.Run(time.Second)
	if k := pkt.OutstandingCount(); k != 0 {
		t.Fatalf("%d packet buffers outstanding:\n%s", k, pkt.FormatLeakReport())
	}
}
