package core

import (
	"testing"
	"time"

	"ulp/internal/kern"
	"ulp/internal/netio"
	"ulp/internal/pkt"
	"ulp/internal/stacks"
	"ulp/internal/tcp"
)

// wakeups reads how many semaphore posts on h had to wake a blocked thread.
// Only channel doorbells are kernel semaphores, so on a library's host these
// are the input thread's wakeups.
func wakeups(h *kern.Host) int64 {
	var n int64
	h.Describe(func(k string, v int64) {
		if k == "wakeups" {
			n = v
		}
	})
	return n
}

// acceptN builds two libraries and makes n connections from the second to
// the first, each with a reader thread on the server that reads whatever
// arrives and counts it in *read. It returns the libraries and both ends of
// every connection once all are up and the exchange has gone quiet.
func acceptN(t *testing.T, n int, read *int) (srv, cli *Library, srvEnds, cliEnds []*Conn) {
	t.Helper()
	s, libs, ips, _ := twoLibraries()
	srv, cli = libs[0], libs[1]
	srv.app.Spawn("srv", func(th *kern.Thread) {
		l, err := srv.Listen(th, 80, stacks.Options{Backlog: n})
		if err != nil {
			t.Error(err)
			return
		}
		for len(srvEnds) < n {
			c, err := l.Accept(th)
			if err != nil {
				t.Error(err)
				return
			}
			srvEnds = append(srvEnds, c.(*Conn))
			srv.app.Spawn("reader", func(th *kern.Thread) {
				buf := make([]byte, 64)
				for {
					k, err := c.Read(th, buf)
					if err != nil || k == 0 {
						return
					}
					*read += k
				}
			})
		}
	})
	cli.app.SpawnAfter(time.Millisecond, "cli", func(th *kern.Thread) {
		for i := 0; i < n; i++ {
			c, err := cli.Connect(th, tcp.Endpoint{IP: ips[0], Port: 80}, stacks.Options{})
			if err != nil {
				t.Error(err)
				return
			}
			cliEnds = append(cliEnds, c.(*Conn))
		}
	})
	s.RunUntil(time.Minute, func() bool { return len(srvEnds) == n && len(cliEnds) == n })
	if len(srvEnds) != n || len(cliEnds) != n {
		t.Fatalf("%d and %d of %d connections up", len(srvEnds), len(cliEnds), n)
	}
	s.Run(time.Second) // the handshakes' last ACKs, and the library asleep
	return srv, cli, srvEnds, cliEnds
}

// writeEach writes one byte on each connection, back to back, from a thread
// of cli's application.
func writeEach(t *testing.T, cli *Library, conns []*Conn) {
	cli.app.Spawn("burst", func(th *kern.Thread) {
		for _, c := range conns {
			if _, err := c.Write(th, []byte{'x'}); err != nil {
				t.Error(err)
			}
		}
	})
}

// Eight connections of one idle library each receive one segment in a burst.
// The input thread is asleep when the first frame lands and its wakeup is on
// its way while the others do, so the library takes one kernel wakeup for
// the eight — where a thread per connection took one each.
func TestBurstAcrossConnectionsTakesOneWakeup(t *testing.T) {
	const n = 8
	read := 0
	srv, cli, _, cliEnds := acceptN(t, n, &read)
	before := wakeups(srv.host)
	writeEach(t, cli, cliEnds)
	srv.s.RunUntil(time.Minute, func() bool { return read == n })
	if read != n {
		t.Fatalf("server read %d of %d bytes", read, n)
	}
	if got := wakeups(srv.host) - before; got != 1 {
		t.Fatalf("the burst cost the server library %d wakeups, want 1", got)
	}
}

// Sixty-four connect/close cycles through one library leave exactly one
// input thread in its domain, give every connection's record back to the
// library's free list, and leak no channel, region or packet buffer.
func TestOneInputThreadServesSequentialConnections(t *testing.T) {
	pkt.SetLeakTracking(true)
	defer pkt.SetLeakTracking(false)
	s, libs, ips, _ := twoLibraries()
	cli := libs[1]
	connect := closers(t, s, libs, tcp.Endpoint{IP: ips[0], Port: 80})
	base := cli.app.Threads() // the library's own: its fast and slow timer threads
	var handles []*Conn
	recs := map[*connRec]bool{}
	done := false
	cli.app.SpawnAfter(time.Millisecond, "cycles", func(th *kern.Thread) {
		for i := 0; i < 64; i++ {
			c, _ := connect(th).(*Conn)
			if c == nil {
				return
			}
			handles = append(handles, c)
			recs[c.rec] = true
			if got := readAll(t, th, c); string(got) != "abc" {
				t.Errorf("cycle %d: read %q, want abc", i, got)
			}
			c.Close(th)
		}
		done = true
	})
	s.RunUntil(time.Minute, func() bool { return done })
	s.Run(time.Second)
	if !done {
		t.Fatalf("%d of 64 cycles completed", len(handles))
	}
	if got := cli.app.Threads(); got != base+1 {
		t.Fatalf("%d threads in the library's domain after 64 cycles, want %d: its own and one input thread", got, base+1)
	}
	for i, c := range handles {
		if c.rec != nil || c.State() != tcp.Closed {
			t.Fatalf("cycle %d: connection in %v still holds its record", i, c.State())
		}
	}
	if cli.free.Len() != len(recs) || len(cli.closing) != 0 {
		t.Fatalf("%d of the %d records used are free, %d connections not let go of; want all, 0",
			cli.free.Len(), len(recs), len(cli.closing))
	}
	if n := cli.mod.LiveCapabilities(cli.app); n != 0 {
		t.Fatalf("%d capabilities still issued to the library", n)
	}
	if n := cli.mod.PinnedRegions(); n != 0 {
		t.Fatalf("%d shared regions still pinned on the library's host", n)
	}
	if n := pkt.OutstandingCount(); n != 0 {
		t.Fatalf("%d packet buffers outstanding:\n%s", n, pkt.FormatLeakReport())
	}
}

// A library is killed while frames for three of its connections are queued
// and its input thread is being woken for them, or part-way through them.
// The three cost one wakeup, and whatever the kill interrupts, every pool
// buffer comes back: queued frames with their channels, the batch being
// processed through the thread's unwinding. Delivered by reference, frames
// the library has finished with hold no lien once it is idle.
func TestKillWithFramesQueuedOnThreeChannels(t *testing.T) {
	pkt.SetLeakTracking(true)
	defer pkt.SetLeakTracking(false)
	const n = 3
	read := 0
	srv, cli, _, cliEnds := acceptN(t, n, &read)
	writeEach(t, cli, cliEnds)
	srv.s.RunUntil(time.Minute, func() bool { return read == n })
	srv.s.Run(time.Second)
	if read != n {
		t.Fatalf("server read %d of %d bytes", read, n)
	}
	if k := pkt.OutstandingCount(); k != 0 {
		t.Fatalf("%d packet buffers outstanding with the library idle:\n%s", k, pkt.FormatLeakReport())
	}
	for _, after := range []time.Duration{0, 500 * time.Microsecond, 800 * time.Microsecond, time.Millisecond, 1500 * time.Microsecond} {
		read := 0
		srv, cli, srvEnds, cliEnds := acceptN(t, n, &read)
		before := wakeups(srv.host)
		// Another address space holds the server's CPU while the frames
		// arrive, so their interrupts complete back to back behind it and
		// all three rings fill before the input thread can run.
		srv.host.NewDomain("hog", false).Spawn("hog", func(th *kern.Thread) { th.Compute(20 * time.Millisecond) })
		writeEach(t, cli, cliEnds)
		chans := make([]*netio.Channel, n)
		for i, c := range srvEnds {
			chans[i] = c.Channel()
		}
		srv.s.RunUntil(time.Minute, func() bool {
			for _, ch := range chans {
				if ch.Pending() == 0 {
					return false
				}
			}
			return true
		})
		for i, ch := range chans {
			if ch.Pending() == 0 {
				t.Fatalf("channel %d never had a frame queued", i)
			}
		}
		if got := wakeups(srv.host) - before; got != 1 {
			t.Fatalf("frames queued on %d channels cost %d wakeups, want 1", n, got)
		}
		if after > 0 {
			srv.s.Run(after)
		}
		srv.app.Kill()
		srv.s.Run(time.Second)
		if k := pkt.OutstandingCount(); k != 0 {
			t.Fatalf("killed %v after the frames were queued (%d bytes read): %d packet buffers outstanding:\n%s",
				after, read, k, pkt.FormatLeakReport())
		}
	}
}
