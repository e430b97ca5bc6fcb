package ulp

// Many-host fast-path integration: the switched fabric, the O(1) demux
// steering, and the timing-wheel timer backend all active at once, under
// seeded faults, with the RFC 793 conformance checker attached. These
// scenarios join the seeded replay matrix: each must be bit-identical
// across replays and finish with zero conformance violations.

import (
	"fmt"
	"hash/fnv"
	"testing"
	"time"

	"ulp/internal/kern"
	"ulp/internal/pkt"
	"ulp/internal/stacks"
	"ulp/internal/tcp"
	"ulp/internal/wire"
)

// runManyHostScenario builds a 6-host switched-AN1 world (one server, five
// clients), runs five concurrent lossy transfers, and returns the frame
// trace.
func runManyHostScenario(t *testing.T, seed uint64) []string {
	t.Helper()
	const clients = 5
	w := NewWorld(Config{
		Org: OrgUserLib, Net: AN1, Hosts: clients + 1,
		Switch:     &wire.SwitchConfig{Latency: time.Microsecond},
		Conditions: &wire.LinkConditions{Seed: seed, LossProb: 0.02, DupProb: 0.01},
	})
	enableConformance(t, w)
	var frames []string
	w.TraceFrames(func(at time.Duration, frame *pkt.Buf) {
		h := fnv.New64a()
		h.Write(frame.Bytes())
		frames = append(frames, fmt.Sprintf("%d %d %016x", at, len(frame.Bytes()), h.Sum64()))
	})

	srv := w.Node(0).App("server")
	served := 0
	srv.Go("srv", func(th *kern.Thread) {
		l, err := srv.Stack.Listen(th, 80, stacks.Options{Backlog: clients})
		if err != nil {
			t.Errorf("listen: %v", err)
			return
		}
		for i := 0; i < clients; i++ {
			c, err := l.Accept(th)
			if err != nil {
				t.Errorf("accept %d: %v", i, err)
				return
			}
			// One reader thread per accepted connection, so transfers
			// overlap and exercise disjoint switch ports concurrently.
			srv.Go(fmt.Sprintf("srv-conn%d", i), func(th *kern.Thread) {
				buf := make([]byte, 4096)
				for {
					n, err := c.Read(th, buf)
					if err != nil || n == 0 {
						break
					}
				}
				c.Close(th)
				served++
			})
		}
	})
	for ci := 1; ci <= clients; ci++ {
		cli := w.Node(ci).App("client")
		cli.GoAfter(time.Duration(ci)*time.Millisecond, "cli", func(th *kern.Thread) {
			c, err := cli.Stack.Connect(th, w.Endpoint(0, 80), stacks.Options{})
			if err != nil {
				t.Errorf("connect: %v", err)
				return
			}
			for k := 0; k < 4; k++ {
				if _, err := c.Write(th, pattern(1024)); err != nil {
					return
				}
			}
			c.Close(th)
		})
	}
	w.RunUntil(time.Minute, func() bool { return served == clients })
	if served != clients {
		t.Fatalf("served %d/%d transfers", served, clients)
	}
	w.Run(2 * time.Second) // drain FINs
	if len(frames) == 0 {
		t.Fatal("scenario produced no frames")
	}
	// ARP broadcasts populate the learning table before the first unicast,
	// so real worlds never flood-on-miss (the wire unit tests cover that
	// path); every data frame must have been unicast-switched.
	learned, switched, _ := w.Seg.SwitchStats()
	if learned < clients+1 || switched == 0 {
		t.Fatalf("switch stats learned/switched = %d/%d — fabric not exercised",
			learned, switched)
	}
	return frames
}

// TestManyHostSwitchedReplayDeterministic is the many-host member of the
// seeded replay matrix: switched fabric + steering + wheel must replay
// bit-identically (and, via runManyHostScenario, with zero conformance
// violations).
func TestManyHostSwitchedReplayDeterministic(t *testing.T) {
	seed := uint64(23)
	a := runManyHostScenario(t, seed)
	b := runManyHostScenario(t, seed)
	diffTraces(t, seed, a, b)
}

// TestTimerWheelLossyTransfer drives the wheel backend through its full
// repertoire on a two-host world: retransmission timers under 5% loss,
// delayed ACKs, and TIME_WAIT expiry returning the ephemeral port.
func TestTimerWheelLossyTransfer(t *testing.T) {
	w := NewWorld(Config{
		Org: OrgUserLib, Net: Ethernet,
		Conditions: &wire.LinkConditions{Seed: 5, LossProb: 0.05},
	})
	enableConformance(t, w)
	srv := w.Node(0).App("server")
	cli := w.Node(1).App("client")
	var cliConn stacks.Conn
	phase := 0
	srv.Go("srv", func(th *kern.Thread) {
		l, _ := srv.Stack.Listen(th, 80, stacks.Options{})
		c, err := l.Accept(th)
		if err != nil {
			return
		}
		buf := make([]byte, 8192)
		total := 0
		for {
			n, err := c.Read(th, buf)
			if err != nil || n == 0 {
				break
			}
			total += n
		}
		c.Close(th)
		if total != 64*1024 {
			t.Errorf("server received %d bytes, want %d", total, 64*1024)
		}
		phase = 2
	})
	cli.GoAfter(time.Millisecond, "cli", func(th *kern.Thread) {
		c, err := cli.Stack.Connect(th, w.Endpoint(0, 80), stacks.Options{})
		if err != nil {
			t.Errorf("connect: %v", err)
			phase = -1
			return
		}
		cliConn = c
		for sent := 0; sent < 64*1024; sent += 4096 {
			if _, err := c.Write(th, pattern(4096)); err != nil {
				t.Errorf("write: %v", err)
				phase = -1
				return
			}
		}
		c.Close(th)
		phase = 1
	})
	w.RunUntil(2*time.Minute, func() bool { return phase >= 2 || phase < 0 })
	if phase < 2 {
		t.Fatalf("transfer incomplete (phase %d)", phase)
	}
	// The active closer sits in TIME_WAIT; the wheel must fire its 2MSL
	// timer (a cross-level cascade: 120 slow ticks) and the library's
	// teardown must return the ephemeral port to the registry.
	w.Run(3 * time.Minute)
	if s := cliConn.State(); s != tcp.Closed {
		t.Fatalf("client state after 2MSL = %v, want Closed", s)
	}
	if n := w.Node(1).Registry.PortsInUse(); n != 0 {
		t.Fatalf("client registry still holds %d ports after teardown", n)
	}
	if n := w.Node(0).Registry.PortsInUse(); n != 1 {
		t.Fatalf("server registry holds %d ports, want 1 (the listener)", n)
	}
}
