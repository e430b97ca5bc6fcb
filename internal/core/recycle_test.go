package core

import (
	"bytes"
	"testing"
	"time"

	"ulp/internal/kern"
	"ulp/internal/netio"
	"ulp/internal/sim"
	"ulp/internal/stacks"
	"ulp/internal/tcp"
)

// closers starts a server that sends "abc" on every connection it accepts
// and closes it, and returns a function that makes one client connection.
// The client side ends up the passive closer: no TIME_WAIT, so its
// connection reaches CLOSED as soon as its own Close is acknowledged.
func closers(t *testing.T, s *sim.Sim, libs [2]*Library, remote tcp.Endpoint) func(th *kern.Thread) stacks.Conn {
	srv, cli := libs[0], libs[1]
	srv.app.Spawn("srv", func(th *kern.Thread) {
		l, err := srv.Listen(th, 80, stacks.Options{Backlog: 64})
		if err != nil {
			t.Error(err)
			return
		}
		for {
			c, err := l.Accept(th)
			if err != nil {
				return
			}
			if _, err := c.Write(th, []byte("abc")); err != nil {
				t.Error(err)
			}
			c.Close(th)
		}
	})
	return func(th *kern.Thread) stacks.Conn {
		c, err := cli.Connect(th, remote, stacks.Options{})
		if err != nil {
			t.Error(err)
			return nil
		}
		return c
	}
}

// readAll reads c to end of stream.
func readAll(t *testing.T, th *kern.Thread, c stacks.Conn) []byte {
	var got []byte
	buf := make([]byte, 16)
	for {
		n, err := c.Read(th, buf)
		if err != nil {
			t.Errorf("read: %v", err)
			return got
		}
		if n == 0 {
			return got
		}
		got = append(got, buf[:n]...)
	}
}

// An application may keep a connection's handle for as long as it likes.
// Two are kept here: one closed after reading the stream to its end, one
// closed with the peer's bytes unread. Sixty-four further connections then go
// through the same library, eight at a time, so whatever the library reuses
// has been reused; the kept handles must go on answering as a closed
// connection does, at the price a socket call has, and the unread bytes must
// still be there.
func TestKeptHandleAnswersAfterRecordsAreReused(t *testing.T) {
	s, libs, ips := twoLibraries()
	cli := libs[1]
	connect := closers(t, s, libs, tcp.Endpoint{IP: ips[0], Port: 80})

	var (
		drained, unread stacks.Conn
		chans           [2]*netio.Channel
		phase           int
	)
	cli.app.SpawnAfter(time.Millisecond, "keep", func(th *kern.Thread) {
		drained, unread = connect(th), connect(th)
		if drained == nil || unread == nil {
			return
		}
		chans = [2]*netio.Channel{drained.(*Conn).Channel(), unread.(*Conn).Channel()}
		if got := readAll(t, th, drained); string(got) != "abc" {
			t.Errorf("read %q, want abc", got)
		}
		// Let the server's bytes and FIN arrive before closing unread.
		th.Sleep(100 * time.Millisecond)
		drained.Close(th)
		unread.Close(th)
		phase = 1
	})
	s.RunUntil(time.Minute, func() bool { return phase == 1 })
	s.Run(time.Second)
	if phase != 1 {
		t.Fatal("the two kept connections never closed")
	}
	for _, c := range []stacks.Conn{drained, unread} {
		if c.State() != tcp.Closed {
			t.Fatalf("kept connection in %v after the close was acknowledged, want CLOSED", c.State())
		}
	}
	wantStats := [2]tcp.Stats{drained.Stats(), unread.Stats()}
	if wantStats[0].BytesRcvd != 3 || wantStats[1].BytesRcvd != 3 {
		t.Fatalf("kept connections received %d and %d bytes, want 3 and 3",
			wantStats[0].BytesRcvd, wantStats[1].BytesRcvd)
	}

	done := 0
	for w := 0; w < 8; w++ {
		cli.app.Spawn("churn", func(th *kern.Thread) {
			for k := 0; k < 8; k++ {
				c := connect(th)
				if c == nil {
					return
				}
				if got := readAll(t, th, c); string(got) != "abc" {
					t.Errorf("read %q, want abc", got)
				}
				c.Close(th)
				done++
			}
		})
	}
	s.RunUntil(time.Minute, func() bool { return done == 64 })
	s.Run(time.Second)
	if done != 64 {
		t.Fatalf("%d of 64 further connections completed", done)
	}

	proc := cli.host.Cost.ProcCall
	cli.app.Spawn("ask", func(th *kern.Thread) {
		// timed runs one socket call and checks it cost one entry and no more.
		timed := func(what string, extra time.Duration, call func()) {
			start := s.Now()
			call()
			if got := s.Now().Sub(start); got != proc+extra {
				t.Errorf("%s on a kept handle took %v, want %v", what, got, proc+extra)
			}
		}
		buf := make([]byte, 16)
		for i, c := range []stacks.Conn{drained, unread} {
			if c.State() != tcp.Closed {
				t.Errorf("handle %d: state %v, want CLOSED", i, c.State())
			}
			if c.Stats() != wantStats[i] {
				t.Errorf("handle %d: stats %+v, want %+v", i, c.Stats(), wantStats[i])
			}
			if c.(*Conn).Channel() != chans[i] {
				t.Errorf("handle %d: Channel() changed", i)
			}
			timed("Write", 0, func() {
				if n, err := c.Write(th, []byte("x")); n != 0 || err != stacks.ErrClosed {
					t.Errorf("handle %d: Write = %d, %v, want 0, ErrClosed", i, n, err)
				}
			})
			timed("empty Write", 0, func() {
				if n, err := c.Write(th, nil); n != 0 || err != nil {
					t.Errorf("handle %d: empty Write = %d, %v, want 0, nil", i, n, err)
				}
			})
			timed("Close", 0, func() {
				if err := c.Close(th); err != nil {
					t.Errorf("handle %d: Close = %v", i, err)
				}
			})
		}
		// The bytes nobody read are still the application's, at the price of
		// the copy out; after them, and on the drained handle, end of stream.
		timed("Read", cli.host.Cost.Copy(3)+cli.host.Cost.SockbufOp, func() {
			if n, err := unread.Read(th, buf); err != nil || !bytes.Equal(buf[:n], []byte("abc")) {
				t.Errorf("unread handle: Read = %q, %v, want abc", buf[:n], err)
			}
		})
		for i, c := range []stacks.Conn{drained, unread} {
			timed("Read at end of stream", 0, func() {
				if n, err := c.Read(th, buf); n != 0 || err != nil {
					t.Errorf("handle %d: Read at end of stream = %d, %v, want 0, nil", i, n, err)
				}
			})
			if c.Stats() != wantStats[i] {
				t.Errorf("handle %d: stats moved to %+v", i, c.Stats())
			}
		}
		phase = 2
	})
	s.RunUntil(time.Minute, func() bool { return phase == 2 })
	if phase != 2 {
		t.Fatal("the calls on the kept handles did not return")
	}
}

// The mechanics behind the test above: a closed connection's record goes to
// the library's free list once the last thread has left it — unless there
// are bytes the application has yet to read — and the next connection is made
// from it; a connection that failed or was handed back is not reused.
func TestConnRecordsAreReused(t *testing.T) {
	s, libs, ips := twoLibraries()
	cli := libs[1]
	connect := closers(t, s, libs, tcp.Endpoint{IP: ips[0], Port: 80})

	var first, second, third *Conn
	var rec *connRec
	phase := 0
	cli.app.SpawnAfter(time.Millisecond, "cli", func(th *kern.Thread) {
		first = connect(th).(*Conn)
		rec = first.rec
		th.Sleep(100 * time.Millisecond)
		first.Close(th) // with "abc" unread
		th.Sleep(time.Second)
		phase = 1
		th.Sleep(time.Second)
		readAll(t, th, first)
		phase = 2
		th.Sleep(time.Second)
		second = connect(th).(*Conn)
		phase = 3
		th.Sleep(time.Second)
		third = connect(th).(*Conn)
		cli.Exit(th, false)
		th.Sleep(time.Second)
		phase = 4
	})
	step := func(n int) {
		t.Helper()
		s.RunUntil(time.Minute, func() bool { return phase == n })
		if phase != n {
			t.Fatalf("stuck before phase %d", n)
		}
	}
	step(1)
	if first.State() != tcp.Closed || first.rec != rec || cli.free.Len() != 0 {
		t.Fatalf("closed with bytes unread: state %v, record kept %v, %d free; want CLOSED, true, 0",
			first.State(), first.rec == rec, cli.free.Len())
	}
	step(2)
	if first.rec != nil || first.final == nil || cli.free.Len() != 1 {
		t.Fatalf("drained: record kept %v, %d free; want false, 1", first.rec != nil, cli.free.Len())
	}
	if rec.c != nil || rec.cap != nil || rec.tc.State() != tcp.Closed || rec.cbs.Send == nil {
		t.Fatalf("free record not scrubbed: %+v", rec)
	}
	step(3)
	if second.rec != rec || cli.free.Len() != 0 {
		t.Fatal("the next connection was not made from the free record")
	}
	if first.State() != tcp.Closed || second.State() != tcp.Established {
		t.Fatalf("states %v and %v, want CLOSED and ESTABLISHED", first.State(), second.State())
	}
	step(4)
	if third.rec == nil || third.rec == rec || cli.free.Len() != 0 {
		t.Fatal("a connection handed back by Exit gave its record up for reuse")
	}
}
