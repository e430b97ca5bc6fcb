package core

import (
	"fmt"
	"testing"
	"time"

	"ulp/internal/chaos"
	"ulp/internal/kern"
	"ulp/internal/netio"
	"ulp/internal/pkt"
	"ulp/internal/sim"
	"ulp/internal/stacks"
	"ulp/internal/tcp"
	"ulp/internal/trace"
)

// TestLateConnectReplyReachesNoLaterConnect: the client's registry holds
// every request 300 ms, past the first RPC deadline (250 ms), so each
// connect's first attempt times out and its answer lands late on the call's
// reply port, where the retry's wait takes it; the retry itself reaches the
// registry later still and is answered from the dedup cache onto the same
// port. The library reuses a reply port only if no wait on it timed out: a
// late answer must never reach a later Connect, which would adopt a
// connection twice, and every connection is adopted exactly once on each
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
	if inj.DelayedRequests < 2*n || cli.replies.Len() != 0 {
		t.Errorf("%d requests delayed, %d reply ports kept for reuse; want every connect's two attempts, and none",
			inj.DelayedRequests, cli.replies.Len())
	}
}

// TestSurvivorAdoptsDeadShardsConnections: of a client's six connections
// through a two-shard registry, three are in the slice of shard 1, which
// dies. Until its grace runs out they stay its own; then shard 0, which
// covers it, adopts them from the module, holding their records and issuing
// their channels, and a write on each gets through. The restarted shard
// takes them back, so each record is held once, and the closed connections
// leave no port behind. Through all of it the client library sends its
// registry no control message.
func TestSurvivorAdoptsDeadShardsConnections(t *testing.T) {
	const n = 6
	s, libs, ips, regs := shardedLibraries(2)
	srv, cli := libs[0], libs[1]
	s.Bus = trace.NewBus(func() time.Duration { return time.Duration(s.Now()) })
	watching := false
	var requests []string
	s.Bus.Subscribe(func(e trace.Event) {
		if watching && e.Kind == trace.RegistryRPC && e.Node == "h1" && e.Text != "shard-crash" {
			requests = append(requests, e.Text)
		}
	})
	received, closed := 0, 0
	srv.app.Spawn("srv", func(th *kern.Thread) {
		l, err := srv.Listen(th, 80, stacks.Options{Backlog: n})
		if err != nil {
			t.Error(err)
			return
		}
		for range n {
			c, err := l.Accept(th)
			if err != nil {
				t.Error(err)
				return
			}
			srv.app.Spawn("read", func(th *kern.Thread) {
				buf := make([]byte, 64)
				for {
					k, err := c.Read(th, buf)
					if err != nil {
						t.Error(err)
						break
					}
					if k == 0 {
						break
					}
					received += k
				}
				c.Close(th)
				closed++
			})
		}
		l.Close(th)
	})
	var conns []*Conn
	cli.app.SpawnAfter(time.Millisecond, "cli", func(th *kern.Thread) {
		for range n {
			c, err := cli.Connect(th, tcp.Endpoint{IP: ips[0], Port: 80}, stacks.Options{})
			if err != nil {
				t.Error(err)
				return
			}
			conns = append(conns, c.(*Conn))
		}
	})
	s.RunUntil(time.Minute, func() bool { return len(conns) == n })
	if len(conns) != n {
		t.Fatalf("%d of %d connections set up", len(conns), n)
	}
	var victims []*Conn
	var cover *kern.Domain
	for _, c := range conns {
		ft := c.tuple()
		if cli.reg.Owner(ft.Local, ft.Peer) == 1 {
			victims = append(victims, c)
		} else {
			cover = c.rec.cap.Issuer()
		}
	}
	if len(victims) != n/2 {
		t.Fatalf("%d connections in shard 1's slice, want %d", len(victims), n/2)
	}
	dead := victims[0].rec.cap.Issuer()
	issuers := func(want *kern.Domain, when string) {
		t.Helper()
		for i, c := range victims {
			if got := c.rec.cap.Issuer(); got != want {
				t.Errorf("%s: connection %d issued by %v, want %v", when, i, got, want)
			}
		}
	}
	rebuilt := func(shard int) int64 {
		key, v := fmt.Sprintf("shard%d.rebuilt_endpoints", shard), int64(-1)
		regs[1].Describe(func(k string, x int64) {
			if k == key {
				v = x
			}
		})
		return v
	}

	watching = true
	regs[1].CrashShard(1)
	s.Run(sim.Dur(netio.IssuerGrace - 1))
	issuers(dead, "1 ns before the grace runs out")
	if got := regs[1].TransferredConns(); got != n-len(victims) {
		t.Errorf("the survivor holds %d records before the grace ran out, want its own %d", got, n-len(victims))
	}
	s.Run(100 * time.Millisecond)
	issuers(cover, "after the survivor's sweep")
	if got, swept := regs[1].TransferredConns(), rebuilt(0); got != n || swept != int64(len(victims)) {
		t.Errorf("the survivor holds %d records, adopted %d; want %d and %d", got, swept, n, len(victims))
	}
	wrote := false
	cli.app.Spawn("write", func(th *kern.Thread) {
		for _, c := range victims {
			if _, err := c.Write(th, []byte("adopted")); err != nil {
				t.Error(err)
			}
		}
		wrote = true
	})
	s.RunUntil(10*time.Second, func() bool { return wrote })
	s.Run(time.Second)
	if want := len(victims) * len("adopted"); received != want {
		t.Errorf("the server read %d bytes of the adopted connections' writes, want %d", received, want)
	}

	regs[1].RestartShard(1)
	s.Run(100 * time.Millisecond)
	for i, c := range victims {
		if is := c.rec.cap.Issuer(); is == cover || is == dead {
			t.Errorf("connection %d not taken back by the restarted shard", i)
		}
	}
	if got := regs[1].TransferredConns(); got != n || rebuilt(1) != int64(len(victims)) {
		t.Errorf("%d records held after the restart, %d rebuilt; want %d, %d", got, rebuilt(1), n, len(victims))
	}
	if len(requests) != 0 {
		t.Errorf("the client library sent control messages %v between the crash and the teardown", requests)
	}

	cli.app.Spawn("close", func(th *kern.Thread) {
		for _, c := range conns {
			c.Close(th)
		}
	})
	s.RunUntil(time.Minute, func() bool { return closed == n })
	s.Run(2 * time.Minute) // past TIME_WAIT
	if closed != n {
		t.Fatalf("the server closed %d connections, want %d", closed, n)
	}
	for i, reg := range regs {
		if got := reg.PortsInUse(); got != 0 {
			t.Errorf("host %d: %d ports in use after the teardown", i, got)
		}
	}
}

// TestConnectionTimesOutWhenEveryShardIsGone: a lone registry dies and never
// comes back. Once its grace has run out the module quarantines its
// endpoints, so the writer's segments are dropped at the send path, and no
// shard is left to adopt them: TCP gives up at R2, and the connection fails
// once, with ErrConnTimeout — not ErrRegistryUnavailable — and leaves the
// library.
func TestConnectionTimesOutWhenEveryShardIsGone(t *testing.T) {
	pkt.SetLeakTracking(true)
	defer pkt.SetLeakTracking(false)
	s, libs, ips, regs := twoLibraries()
	srv, cli := libs[0], libs[1]
	srv.app.Spawn("srv", func(th *kern.Thread) {
		l, err := srv.Listen(th, 80, stacks.Options{})
		if err != nil {
			t.Error(err)
			return
		}
		c, err := l.Accept(th)
		if err != nil {
			t.Error(err)
			return
		}
		buf := make([]byte, 512)
		for {
			if _, err := c.Read(th, buf); err != nil {
				return
			}
		}
	})
	var conn stacks.Conn
	cli.app.SpawnAfter(time.Millisecond, "cli", func(th *kern.Thread) {
		c, err := cli.Connect(th, tcp.Endpoint{IP: ips[0], Port: 80}, stacks.Options{RexmtR2: 3})
		if err != nil {
			t.Error(err)
			return
		}
		conn = c
	})
	s.RunUntil(time.Minute, func() bool { return conn != nil })
	if conn == nil {
		t.Fatal("no connection")
	}
	regs[1].CrashShard(0)
	var errs []error
	cli.app.Spawn("write", func(th *kern.Thread) {
		for {
			if _, err := conn.Write(th, make([]byte, 512)); err != nil {
				errs = append(errs, err)
				return
			}
			th.Sleep(100 * time.Millisecond)
		}
	})
	s.RunUntil(5*time.Minute, func() bool { return errs != nil })
	if len(errs) != 1 || errs[0] != stacks.ErrConnTimeout {
		t.Fatalf("the writer saw %v, want one ErrConnTimeout", errs)
	}
	s.Run(time.Second)
	if cli.live != nil || len(cli.closing) != 0 || cli.wheel.Armed() != 0 {
		t.Fatalf("the library still holds the connection (%v), %d to let go of, %d timers",
			cli.live != nil, len(cli.closing), cli.wheel.Armed())
	}
	cli.app.Spawn("read", func(th *kern.Thread) {
		if n, err := conn.Read(th, make([]byte, 4)); n != 0 || err != stacks.ErrConnTimeout {
			t.Errorf("Read after the failure = %d, %v, want ErrConnTimeout", n, err)
		}
	})
	s.Run(time.Second)
	if k := pkt.OutstandingCount(); k != 0 {
		t.Fatalf("%d packet buffers outstanding:\n%s", k, pkt.FormatLeakReport())
	}
}
