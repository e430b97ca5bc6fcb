package ulp

// End-to-end degradation hardening (PR 10): partitions seen from the
// application. A partition shorter than the retransmission give-up horizon
// must be invisible (the transfer stalls, then resumes — no spurious
// reset); a permanent partition must end in stacks.ErrConnTimeout on BOTH
// a blocked sender and a blocked receiver (the receiver via keepalive
// dead-peer detection); and a connection setup whose SYNs die in a
// partitioned segment must surface the registry's bounded failure without
// leaking ports. The conformance checker rides along
// everywhere: give-ups and keepalive teardowns must be legal transitions.

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"ulp/internal/kern"
	"ulp/internal/stacks"
	"ulp/internal/wire"
)

// TestConnSurvivesPartitionShorterThanGiveUp pins the healed-partition
// path: a 3-second whole-segment blackout mid-transfer stalls the stream,
// retransmission backoff rides it out, and the transfer completes intact
// with no error surfaced to either side.
func TestConnSurvivesPartitionShorterThanGiveUp(t *testing.T) {
	w := NewWorld(Config{
		Org: OrgUserLib, Net: Ethernet,
		Conditions: &wire.LinkConditions{
			Seed: 5,
			Partitions: []wire.Window{
				{From: 100 * time.Millisecond, Until: 3100 * time.Millisecond},
			},
		},
	})
	enableConformance(t, w)

	const total = 256 << 10
	srv := w.Node(0).App("server")
	cli := w.Node(1).App("client")
	var got bytes.Buffer
	var cliErr, srvErr error
	var cliConn stacks.Conn
	srvDone := false
	srv.Go("srv", func(th *kern.Thread) {
		l, _ := srv.Stack.Listen(th, 80, stacks.Options{})
		c, err := l.Accept(th)
		if err != nil {
			srvErr = err
			return
		}
		buf := make([]byte, 4096)
		for got.Len() < total {
			n, err := c.Read(th, buf)
			if err != nil {
				srvErr = err
				return
			}
			if n == 0 {
				return
			}
			got.Write(buf[:n])
		}
		srvDone = true
		c.Close(th)
	})
	cli.GoAfter(time.Millisecond, "cli", func(th *kern.Thread) {
		c, err := cli.Stack.Connect(th, w.Endpoint(0, 80), stacks.Options{})
		if err != nil {
			cliErr = err
			return
		}
		cliConn = c
		// The stream straddles the blackout: the send buffer fills during
		// it and every write blocks until retransmission drains it.
		for sent := 0; sent < total; sent += 1024 {
			if _, err := c.Write(th, pattern(1024)); err != nil {
				cliErr = err
				return
			}
		}
	})
	w.RunUntil(5*time.Minute, func() bool { return srvDone })
	if cliErr != nil || srvErr != nil {
		t.Fatalf("healed partition surfaced errors: cli=%v srv=%v", cliErr, srvErr)
	}
	if !srvDone {
		t.Fatal("transfer did not resume after the heal")
	}
	want := make([]byte, 0, total)
	for len(want) < total {
		want = append(want, pattern(1024)...)
	}
	if !bytes.Equal(got.Bytes(), want[:total]) {
		t.Fatal("transfer corrupted across the partition")
	}
	if cliConn.Stats().Rexmits == 0 {
		t.Fatal("no retransmissions — the partition never bit")
	}
	if cliConn.Stats().RexmtGiveUps != 0 {
		t.Fatal("sender gave up across a partition shorter than R2")
	}
}

// TestPermanentPartitionTimesOutSendAndRecv pins the other half: when the
// segment never heals, the blocked writer is released by the R2 give-up
// and the blocked reader by keepalive dead-peer detection, both with
// stacks.ErrConnTimeout — a crisp error on a live thread, never a hang.
func TestPermanentPartitionTimesOutSendAndRecv(t *testing.T) {
	w := NewWorld(Config{
		Org: OrgUserLib, Net: Ethernet,
		Conditions: &wire.LinkConditions{
			Seed: 6,
			Partitions: []wire.Window{
				{From: time.Second}, // never heals
			},
		},
	})
	enableConformance(t, w)

	// R2=4 bounds the writer's retry horizon; the keepalive bounds the
	// reader's. Both sides run with both enabled.
	opts := stacks.Options{RexmtR2: 4, KeepAliveTicks: 20}
	srv := w.Node(0).App("server")
	cli := w.Node(1).App("client")
	var cliErr, srvErr error
	cliDone, srvDone := false, false
	srv.Go("srv", func(th *kern.Thread) {
		defer func() { srvDone = true }()
		l, _ := srv.Stack.Listen(th, 80, opts)
		c, err := l.Accept(th)
		if err != nil {
			srvErr = err
			return
		}
		buf := make([]byte, 4096)
		for {
			// Blocked Recv: after the first kilobyte the wire goes dark and
			// nothing arrives again; only the keepalive can end this read.
			n, err := c.Read(th, buf)
			if err != nil {
				srvErr = err
				return
			}
			if n == 0 {
				return
			}
		}
	})
	cli.GoAfter(time.Millisecond, "cli", func(th *kern.Thread) {
		defer func() { cliDone = true }()
		c, err := cli.Stack.Connect(th, w.Endpoint(0, 80), opts)
		if err != nil {
			cliErr = err
			return
		}
		// Trickle until the partition starts, then keep writing: the send
		// buffer fills and the write blocks until the give-up releases it.
		for {
			if _, err := c.Write(th, pattern(1024)); err != nil {
				cliErr = err
				return
			}
			th.Sleep(100 * time.Millisecond)
		}
	})
	w.RunUntil(10*time.Minute, func() bool { return cliDone && srvDone })
	if !cliDone {
		t.Fatal("blocked Send hung across a permanent partition")
	}
	if !srvDone {
		t.Fatal("blocked Recv hung across a permanent partition")
	}
	if !errors.Is(cliErr, stacks.ErrConnTimeout) {
		t.Fatalf("blocked Send error = %v, want ErrConnTimeout", cliErr)
	}
	if !errors.Is(srvErr, stacks.ErrConnTimeout) {
		t.Fatalf("blocked Recv error = %v, want ErrConnTimeout", srvErr)
	}
	// ErrConnTimeout wraps the generic timeout, so errors.Is(_, ErrTimeout)
	// callers keep working.
	if !errors.Is(cliErr, stacks.ErrTimeout) {
		t.Fatal("ErrConnTimeout does not match ErrTimeout")
	}
}

// TestConnectThroughPartitionBoundedAndLeakFree drives a connection setup
// into a partitioned segment: the registry's handshake SYNs vanish, the
// library's control RPC hits its deadline/backoff budget and surfaces
// ErrRegistryUnavailable in bounded time, and once the registry's own R2
// give-up fires, the abandoned setup releases its ephemeral port —
// nothing leaks from a setup whose requester gave up first.
func TestConnectThroughPartitionBoundedAndLeakFree(t *testing.T) {
	w := NewWorld(Config{
		Org: OrgUserLib, Net: Ethernet, RegistryShards: 2,
		Conditions: &wire.LinkConditions{
			Seed: 7,
			Partitions: []wire.Window{
				{From: 500 * time.Millisecond}, // never heals
			},
		},
	})
	enableConformance(t, w)

	srv := w.Node(0).App("server")
	cli := w.Node(1).App("client")
	var lis stacks.Listener
	srv.Go("srv", func(th *kern.Thread) {
		l, _ := srv.Stack.Listen(th, 80, stacks.Options{})
		lis = l
		for {
			if _, err := l.Accept(th); err != nil {
				return
			}
		}
	})
	var err error
	var elapsed time.Duration
	done := false
	cli.GoAfter(time.Second, "cli", func(th *kern.Thread) {
		start := time.Duration(th.Now())
		// R2=4 bounds how long the registry's orphaned handshake keeps
		// retransmitting after the library has already given up on it.
		_, err = cli.Stack.Connect(th, w.Endpoint(0, 80), stacks.Options{RexmtR2: 4})
		elapsed = time.Duration(th.Now()) - start
		done = true
	})
	w.RunUntil(5*time.Minute, func() bool { return done })
	if !done {
		t.Fatal("connect hung through a partitioned segment")
	}
	if err != stacks.ErrRegistryUnavailable {
		t.Fatalf("connect error = %v, want ErrRegistryUnavailable", err)
	}
	if elapsed > 20*time.Second {
		t.Fatalf("gave up after %v; the RPC retry budget should bound this well under 20s", elapsed)
	}
	// The listener legitimately holds port 80 on every shard; close it so
	// the audit below sees only leaks.
	srv.Go("closer", func(th *kern.Thread) { lis.Close(th) })
	// Let the registry's abandoned handshake exhaust R2 and sweep itself.
	w.Run(3 * time.Minute)
	assertNoLeaks(t, w, 0, 1)
}

// TestConnectsAfterFirstARPRequestLost: the segment is dark for the first
// 100 ms, so the client host's first ARP request is lost. The SYN's
// retransmission repeats the request, and the connection comes up in every
// organization; before requests were repeated, the destination stayed
// unresolved for as long as traffic kept queueing behind the lost one.
func TestConnectsAfterFirstARPRequestLost(t *testing.T) {
	for _, org := range []Org{OrgUserLib, OrgInKernel, OrgSingleServer} {
		w := NewWorld(Config{
			Org: org, Net: Ethernet,
			Conditions: &wire.LinkConditions{
				Seed:       3,
				Partitions: []wire.Window{{Until: 100 * time.Millisecond}},
			},
		})
		enableConformance(t, w)
		srv := w.Node(0).App("server")
		cli := w.Node(1).App("client")
		var got []byte
		var cliErr, srvErr error
		srv.Go("srv", func(th *kern.Thread) {
			l, _ := srv.Stack.Listen(th, 80, stacks.Options{})
			c, err := l.Accept(th)
			if err != nil {
				srvErr = err
				return
			}
			buf := make([]byte, 64)
			n, err := c.Read(th, buf)
			got, srvErr = buf[:n], err
		})
		cli.GoAfter(time.Millisecond, "cli", func(th *kern.Thread) {
			c, err := cli.Stack.Connect(th, w.Endpoint(0, 80), stacks.Options{})
			if err != nil {
				cliErr = err
				return
			}
			_, cliErr = c.Write(th, []byte("hello"))
		})
		w.RunUntil(time.Minute, func() bool { return got != nil || cliErr != nil || srvErr != nil })
		if cliErr != nil || srvErr != nil || string(got) != "hello" {
			t.Errorf("%v: read %q; client error %v, server error %v", org, got, cliErr, srvErr)
		}
	}
}

// TestAbandonedConnectLeavesNothing: the segment goes dark while a connect
// is under way and heals after the library's RPC budget has run out but
// before the registry's handshake gives up. The library withdraws the
// request it stopped waiting for, so the handshake that would have come up
// for nobody is aborted and neither host is left holding a port, a channel
// or a buffer.
func TestAbandonedConnectLeavesNothing(t *testing.T) {
	trackPoolLeaks(t)
	w := NewWorld(Config{
		Org: OrgUserLib, Net: Ethernet,
		Conditions: &wire.LinkConditions{
			Seed:       7,
			Partitions: []wire.Window{{From: 500 * time.Millisecond, Until: 8 * time.Second}},
		},
	})
	enableConformance(t, w)
	srv := w.Node(0).App("server")
	cli := w.Node(1).App("client")
	var lis stacks.Listener
	accepted := 0
	srv.Go("srv", func(th *kern.Thread) {
		lis, _ = srv.Stack.Listen(th, 80, stacks.Options{})
		for {
			c, err := lis.Accept(th)
			if err != nil {
				return
			}
			accepted++
			srv.Go("reader", func(th *kern.Thread) {
				buf := make([]byte, 64)
				for {
					if n, err := c.Read(th, buf); err != nil || n == 0 {
						break
					}
				}
				c.Close(th)
			})
		}
	})
	var err error
	done := false
	cli.GoAfter(time.Millisecond, "cli", func(th *kern.Thread) {
		// A first connection resolves both hosts' ARP entries before the
		// segment goes dark.
		c, err0 := cli.Stack.Connect(th, w.Endpoint(0, 80), stacks.Options{})
		if err0 != nil {
			t.Errorf("first connect: %v", err0)
			return
		}
		c.Close(th)
		th.Sleep(time.Second - time.Duration(th.Now()))
		_, err = cli.Stack.Connect(th, w.Endpoint(0, 80), stacks.Options{})
		done = true
	})
	w.RunUntil(time.Minute, func() bool { return done })
	if err != stacks.ErrRegistryUnavailable {
		t.Fatalf("connect into the dark segment: error %v, want ErrRegistryUnavailable", err)
	}
	w.Run(3 * time.Minute)
	srv.Go("closer", func(th *kern.Thread) { lis.Close(th) })
	w.Run(time.Second)
	if accepted != 1 {
		t.Errorf("server accepted %d connections, want only the first", accepted)
	}
	assertNoLeaks(t, w, 0, 1)
	assertNoPoolLeaks(t)
}
