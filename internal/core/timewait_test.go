package core

import (
	"testing"
	"time"

	"ulp/internal/conform"
	"ulp/internal/ipv4"
	"ulp/internal/kern"
	"ulp/internal/link"
	"ulp/internal/pkt"
	"ulp/internal/registry"
	"ulp/internal/sim"
	"ulp/internal/stacks"
	"ulp/internal/tcp"
	"ulp/internal/trace"
)

// closeFirst runs n connections through two libraries, one at a time: the
// server accepts each and closes it at once, the client reads it to its end
// and closes it, so the server's half of every one enters TIME_WAIT. It
// returns the server's handles, the records they were given, and the virtual
// instant the last of them entered TIME_WAIT.
func closeFirst(t *testing.T, n int) (s *sim.Sim, libs [2]*Library, regs [2]*registry.Federation, srvEnds []*Conn, recs map[*connRec]bool, last time.Duration) {
	t.Helper()
	s, libs, ips, regs := twoLibraries()
	srv, cli := libs[0], libs[1]
	recs = map[*connRec]bool{}
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
			h := c.(*Conn)
			recs[h.rec] = true
			srvEnds = append(srvEnds, h)
			c.Close(th)
		}
		l.Close(th)
	})
	done := 0
	cli.app.SpawnAfter(time.Millisecond, "cli", func(th *kern.Thread) {
		for range n {
			c, err := cli.Connect(th, tcp.Endpoint{IP: ips[0], Port: 80}, stacks.Options{})
			if err != nil {
				t.Error(err)
				return
			}
			readAll(t, th, c)
			c.Close(th)
			done++
		}
	})
	s.RunUntil(time.Minute, func() bool { return done == n })
	if done != n {
		t.Fatalf("%d of %d connections completed", done, n)
	}
	// The server's last ACK is on its way: let it land.
	s.Run(time.Second)
	for i, c := range srvEnds {
		if c.State() != tcp.TimeWait {
			t.Fatalf("server connection %d in %v, want TIME_WAIT", i, c.State())
		}
	}
	return s, libs, regs, srvEnds, recs, time.Duration(s.Now())
}

// TestTimeWaitHoldsACompactRecord: a connection that closed first keeps
// only a compact record through TIME_WAIT, so the library makes a handful of
// full records for any number of such connections. The handles answer as a
// TIME_WAIT engine does until the 2MSL ends on the tick it was armed for;
// then every port, channel, capability, region and buffer comes back.
func TestTimeWaitHoldsACompactRecord(t *testing.T) {
	pkt.SetLeakTracking(true)
	defer pkt.SetLeakTracking(false)
	const n = 24
	s, libs, regs, srvEnds, recs, last := closeFirst(t, n)
	srv, cli := libs[0], libs[1]

	if len(recs) > 2 {
		t.Errorf("the server library made %d connection records for %d connections in TIME_WAIT, want a handful", len(recs), n)
	}
	compact, full := 0, 0
	for c := srv.live; c != nil; c = c.next {
		if c.rec != nil {
			full++
		} else if c.tw != nil {
			compact++
		}
	}
	if compact != n || full != 0 || srv.free.Len() != len(recs) {
		t.Fatalf("%d compact records, %d full connections, %d of %d records free; want %d, 0, all",
			compact, full, srv.free.Len(), len(recs), n)
	}
	if live := srv.mod.LiveCapabilities(srv.app); live != n {
		t.Fatalf("%d capabilities held in TIME_WAIT, want %d: each keeps its channel", live, n)
	}
	want := srvEnds[0].Stats()
	if want.SegsSent == 0 || want.SegsRcvd == 0 {
		t.Fatalf("stats of a compacted connection lost: %+v", want)
	}

	// A write waits for the end of TIME_WAIT, as on a full engine that takes
	// no more data; a read sees end of stream at once.
	var writeErr error
	var wrote time.Duration
	srv.app.Spawn("late", func(th *kern.Thread) {
		buf := make([]byte, 4)
		if n, err := srvEnds[0].Read(th, buf); n != 0 || err != nil {
			t.Errorf("Read in TIME_WAIT = %d, %v, want 0, nil", n, err)
		}
		_, writeErr = srvEnds[0].Write(th, []byte("x"))
		wrote = time.Duration(s.Now())
	})

	// Every connection entered TIME_WAIT after the client started, 1 ms in,
	// and a 2MSL is 120 ticks of 500 ms.
	s.Run(59*time.Second - time.Duration(s.Now()))
	for i, c := range srvEnds {
		if c.State() != tcp.TimeWait {
			t.Fatalf("connection %d in %v before its 2MSL ended", i, c.State())
		}
	}
	if wrote != 0 {
		t.Fatal("a write on a connection in TIME_WAIT returned before the 2MSL ended")
	}
	s.Run(last + 61*time.Second - time.Duration(s.Now()))
	for i, c := range srvEnds {
		if c.State() != tcp.Closed || c.tw != nil || !c.done {
			t.Fatalf("connection %d in %v after its 2MSL ended", i, c.State())
		}
	}
	if srvEnds[0].Stats() != want {
		t.Errorf("stats moved from %+v to %+v", want, srvEnds[0].Stats())
	}
	if writeErr != stacks.ErrClosed || wrote < 59*time.Second {
		t.Errorf("Write in TIME_WAIT returned %v at %v, want ErrClosed at its end", writeErr, wrote)
	}
	if srv.live != nil || len(srv.closing) != 0 {
		t.Fatal("expired compact records are still the library's")
	}
	for i, l := range libs {
		if got := regs[i].PortsInUse() + regs[i].OwnedConns() + regs[i].TransferredConns(); got != 0 {
			t.Errorf("host %d: registry holds %d ports and connections, want 0", i, got)
		}
		if got := l.mod.LiveCapabilities(l.app) + l.mod.PinnedRegions(); got != 0 {
			t.Errorf("host %d: %d capabilities and pinned regions, want 0", i, got)
		}
	}
	if cli.free.Len() == 0 {
		t.Error("the client library's records were not recycled")
	}
	if k := pkt.OutstandingCount(); k != 0 {
		t.Fatalf("%d packet buffers outstanding:\n%s", k, pkt.FormatLeakReport())
	}
}

// TestExitHandsCompactedConnectionsToTheRegistry: an application that exits
// with connections in TIME_WAIT hands their compact records to the registry
// as it would full ones, and the registry completes their TIME_WAIT.
func TestExitHandsCompactedConnectionsToTheRegistry(t *testing.T) {
	const n = 6
	s, libs, regs, srvEnds, _, last := closeFirst(t, n)
	srv := libs[0]
	exited := false
	srv.app.Spawn("exit", func(th *kern.Thread) {
		srv.Exit(th, false)
		exited = true
	})
	s.Run(time.Second)
	if !exited || srv.live != nil {
		t.Fatal("Exit did not hand back the compacted connections")
	}
	if got := regs[0].OwnedConns(); got != n {
		t.Fatalf("the registry inherited %d connections in TIME_WAIT, want %d", got, n)
	}
	if live := srv.mod.LiveCapabilities(srv.app); live != 0 {
		t.Fatalf("%d capabilities still issued to the exited library", live)
	}
	for i, c := range srvEnds {
		if !c.done {
			t.Fatalf("connection %d still the library's after Exit", i)
		}
	}
	s.Run(last + 63*time.Second - time.Duration(s.Now()))
	if got := regs[0].OwnedConns() + regs[0].PortsInUse(); got != 0 {
		t.Fatalf("the registry holds %d connections and ports after their TIME_WAIT, want 0", got)
	}
}

// TestExitWhileTimeWaitAnswers: Exit takes a compacted connection while the
// input thread is sending TIME_WAIT's answer to a SYN inside its window,
// the answer that would reset it. The connection is the registry's from
// then on, so the record does not end it a second time: every compact
// record not yet handed back stays on the library's list, and the handle
// reports TIME_WAIT, which the registry completes, as a full record's would.
func TestExitWhileTimeWaitAnswers(t *testing.T) {
	const n = 6
	s, libs, regs, srvEnds, _, _ := closeFirst(t, n)
	srv := libs[0]
	first := srv.sortedConns()[0]
	tr := first.tw
	local, peer := tr.tw.Local(), tr.tw.Peer()
	b := pkt.New(64, 0)
	syn := tcp.Header{SrcPort: peer.Port, DstPort: local.Port, Seq: tr.tw.Snapshot().RcvNxt, Flags: tcp.FlagSYN, Window: 4096}
	syn.Encode(b, peer.IP, local.IP)
	ih := ipv4.Header{DF: true, TTL: 64, Proto: ipv4.ProtoTCP, Src: peer.IP, Dst: local.IP}
	ih.Encode(b)
	srv.nif.Frame(b, srv.nif.HW, link.TypeIPv4, 0, 0)

	answered, exitAt := false, 0
	srv.app.Spawn("syn", func(th *kern.Thread) {
		tr.inputFrame(th, b)
		answered = true
		listed := map[*Conn]bool{}
		for c := srv.live; c != nil; c = c.next {
			listed[c] = true
		}
		pending := 0
		for i, c := range srvEnds {
			if listed[c] == c.done {
				t.Errorf("connection %d: done %v, on the library's list %v", i, c.done, listed[c])
			}
			if !c.done {
				pending++
			}
		}
		if pending == 0 {
			t.Error("Exit had handed back every connection before the answer went out: nothing tested")
		}
	})
	srv.app.Spawn("exit", func(th *kern.Thread) {
		for !tr.busy {
			th.Sleep(time.Microsecond)
			exitAt++
		}
		srv.Exit(th, false)
	})
	s.Run(time.Second)
	if !answered || exitAt == 0 {
		t.Fatalf("answer sent %v, Exit after %d µs: the interleaving did not happen", answered, exitAt)
	}
	if first.State() != tcp.TimeWait || !first.done {
		t.Errorf("the connection Exit took is in %v (done %v), want TIME_WAIT, the registry's", first.State(), first.done)
	}
	if srv.live != nil || len(srv.closing) != 0 {
		t.Fatal("compact records still the library's after Exit")
	}
	if got := regs[0].OwnedConns(); got != n {
		t.Fatalf("the registry inherited %d connections in TIME_WAIT, want %d", got, n)
	}
}

// TestTimeWaitReleaseCarriesItsFire: a 2MSL expiry is traced with the instant
// the wheel fired it, whether the library's compact record or, after Exit,
// the registry's inherited pcb ends the TIME_WAIT, and the release follows
// the fire; the conformance checker finds the library's fires within the
// 2MSL's bounds.
func TestTimeWaitReleaseCarriesItsFire(t *testing.T) {
	const n = 3
	for _, exit := range []bool{false, true} {
		s, libs, ips, _ := twoLibraries()
		srv, cli := libs[0], libs[1]
		s.Bus = trace.NewBus(func() time.Duration { return time.Duration(s.Now()) })
		k := conform.New()
		s.Bus.Subscribe(k.HandleEvent)
		var releases []trace.Event
		s.Bus.Subscribe(func(e trace.Event) {
			if e.Kind == trace.TCPState && tcp.State(e.A) == tcp.TimeWait && tcp.Trigger(e.C) == tcp.TrigTimer {
				releases = append(releases, e)
			}
		})
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
				c.Close(th)
			}
		})
		cli.app.SpawnAfter(time.Millisecond, "cli", func(th *kern.Thread) {
			for range n {
				c, err := cli.Connect(th, tcp.Endpoint{IP: ips[0], Port: 80}, stacks.Options{})
				if err != nil {
					t.Error(err)
					return
				}
				readAll(t, th, c)
				c.Close(th)
			}
			if exit {
				srv.app.SpawnAfter(time.Second, "exit", func(th *kern.Thread) { srv.Exit(th, false) })
			}
		})
		s.Run(70 * time.Second)
		if len(releases) != n {
			t.Fatalf("exit %v: %d TIME_WAIT releases by timer, want %d", exit, len(releases), n)
		}
		for _, e := range releases {
			if e.Fired == 0 || e.Fired > e.At {
				t.Errorf("exit %v: %s released at %v, fired at %v", exit, e.Conn, e.At, e.Fired)
			}
		}
		// After Exit the registry's inherited pcb goes on under the library
		// connection's label, so the checker holds its release to the 2MSL
		// the library armed.
		for _, v := range k.Violations() {
			t.Errorf("exit %v: %v", exit, v)
		}
	}
}
