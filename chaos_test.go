package ulp

// Chaos harness: seeded, deterministic full-system fault scenarios against
// the user-level library organization. These tests exercise the system's
// crash-failure story (paper §3.2–§3.4): an application torn down with no
// exit path must leave no orphaned ports, no live capabilities, no pinned
// shared regions, and its peers must observe resets — with all recovery
// driven by the trusted registry and network I/O module.

import (
	"fmt"
	"hash/fnv"
	"strconv"
	"strings"
	"testing"
	"time"

	"ulp/internal/chaos"
	"ulp/internal/filter"
	"ulp/internal/ipv4"
	"ulp/internal/kern"
	"ulp/internal/link"
	"ulp/internal/netio"
	"ulp/internal/pkt"
	"ulp/internal/stacks"
	"ulp/internal/tcp"
	"ulp/internal/trace"
	"ulp/internal/wire"
)

// trackPoolLeaks arms the packet-pool leak tracker for the duration of a
// test. assertNoPoolLeaks then requires that every pkt.Buf acquired since
// arming has been released — a crashed domain must not strand frames in
// channel queues, the wire fan-out, or the input batch.
func trackPoolLeaks(t *testing.T) {
	t.Helper()
	pkt.SetLeakTracking(true)
	t.Cleanup(func() { pkt.SetLeakTracking(false) })
}

func assertNoPoolLeaks(t *testing.T) {
	t.Helper()
	if n := pkt.OutstandingCount(); n != 0 {
		t.Errorf("%d pkt.Bufs outstanding at scenario end:\n%s", n, pkt.FormatLeakReport())
	}
}

// assertNoLeaks audits hosts once everything on them has crashed, exited or
// closed: no allocated ports, no transferred or registry-owned connections,
// no listeners, no live capabilities, no pinned regions.
func assertNoLeaks(t *testing.T, w *World, hosts ...int) {
	t.Helper()
	for _, host := range hosts {
		n := w.Node(host)
		r := n.Registry
		if got := r.PortsInUse(); got != 0 {
			t.Errorf("host %d: %d ports still allocated", host, got)
		}
		if got := r.TransferredConns(); got != 0 {
			t.Errorf("host %d: %d transferred connections not reclaimed", host, got)
		}
		if got := r.OwnedConns(); got != 0 {
			t.Errorf("host %d: %d registry-owned pcbs remain", host, got)
		}
		if got := r.ListenerCount(); got != 0 {
			t.Errorf("host %d: %d listeners remain", host, got)
		}
		if got := n.Mod.LiveCapabilities(nil); got != 0 {
			t.Errorf("host %d: %d live capabilities", host, got)
		}
		if got := n.Mod.PinnedRegions(); got != 0 {
			t.Errorf("host %d: %d shared regions still pinned", host, got)
		}
	}
}

// A mid-transfer crash: the client dies abruptly while its connection is
// handed off and carrying data. The registry must reclaim everything and
// the server must observe a reset, with no cooperation from the client.
func TestChaosCrashMidTransferResetsPeer(t *testing.T) {
	trackPoolLeaks(t)
	w := NewWorld(Config{
		Org: OrgUserLib, Net: Ethernet,
		Chaos: &chaos.FaultPlan{
			Seed:    7,
			Crashes: []chaos.CrashPoint{{Host: 1, App: "client", At: 80 * time.Millisecond}},
		},
	})
	enableConformance(t, w)
	srv := w.Node(0).App("server")
	cli := w.Node(1).App("client")
	var srvErr error
	srvDone := false
	srv.Go("srv", func(th *kern.Thread) {
		l, _ := srv.Stack.Listen(th, 80, stacks.Options{})
		c, err := l.Accept(th)
		if err != nil {
			t.Errorf("accept: %v", err)
			return
		}
		buf := make([]byte, 4096)
		for {
			n, err := c.Read(th, buf)
			if err != nil {
				srvErr = err
				break
			}
			if n == 0 {
				break
			}
		}
		srvDone = true
		l.Close(th)
	})
	cli.GoAfter(time.Millisecond, "cli", func(th *kern.Thread) {
		c, err := cli.Stack.Connect(th, w.Endpoint(0, 80), stacks.Options{})
		if err != nil {
			t.Errorf("connect: %v", err)
			return
		}
		// Write past the handoff-time sequence numbers, then keep writing
		// slowly until the crash point kills the domain mid-stream.
		for {
			if _, err := c.Write(th, pattern(512)); err != nil {
				return
			}
			th.Sleep(10 * time.Millisecond)
		}
	})
	w.RunUntil(time.Minute, func() bool { return srvDone })
	if !srvDone {
		t.Fatal("server never unblocked: no reset observed at the peer")
	}
	if srvErr != stacks.ErrReset {
		t.Fatalf("server error = %v, want ErrReset from the registry's crash reset", srvErr)
	}
	if !cli.Dom.Dead() {
		t.Fatal("crash point did not fire")
	}
	// Let teardown messages drain, then audit the crashed node.
	w.Run(5 * time.Second)
	assertNoLeaks(t, w, 1)
	assertNoPoolLeaks(t)
}

// The client's registry restarts within netio.IssuerGrace, so its rebuild
// records the connection from the module alone, with no sequence numbers.
// Data then flows and the client dies: the crash sweep's reset carries
// sequence numbers the peer discards, and only its probe can end the
// peer's connection — the peer answers it, and the answer meets the
// no-endpoint reset. The peer must see a reset, not hang, and the probe,
// which knows no acknowledgment number and carries no ACK bit, breaks no
// conformance rule.
func TestChaosCrashAfterRebuildResetsPeerByProbe(t *testing.T) {
	trackPoolLeaks(t)
	w := NewWorld(Config{
		Org: OrgUserLib, Net: Ethernet,
		Chaos: &chaos.FaultPlan{
			ShardCrashes: []chaos.ShardCrash{{Host: 1, At: 50 * time.Millisecond, RestartAfter: 200 * time.Millisecond}},
			Crashes:      []chaos.CrashPoint{{Host: 1, App: "client", At: 600 * time.Millisecond}},
		},
	})
	enableConformance(t, w)
	srv := w.Node(0).App("server")
	cli := w.Node(1).App("client")
	var srvErr error
	received := 0
	srvDone := false
	srv.Go("srv", func(th *kern.Thread) {
		l, _ := srv.Stack.Listen(th, 80, stacks.Options{})
		c, err := l.Accept(th)
		if err != nil {
			t.Errorf("accept: %v", err)
			return
		}
		buf := make([]byte, 4096)
		for {
			n, err := c.Read(th, buf)
			if err != nil {
				srvErr = err
				break
			}
			if n == 0 {
				break
			}
			received += n
		}
		srvDone = true
		l.Close(th)
	})
	cli.GoAfter(time.Millisecond, "cli", func(th *kern.Thread) {
		c, err := cli.Stack.Connect(th, w.Endpoint(0, 80), stacks.Options{})
		if err != nil {
			t.Errorf("connect: %v", err)
			return
		}
		for {
			if _, err := c.Write(th, pattern(512)); err != nil {
				return
			}
			th.Sleep(10 * time.Millisecond)
		}
	})
	w.RunUntil(time.Minute, func() bool { return srvDone })
	if !cli.Dom.Dead() {
		t.Fatal("crash point did not fire")
	}
	if epoch, rebuilt := Counter(t, w, "registry.h1.shard0.epoch"), Counter(t, w, "registry.h1.shard0.rebuilt_endpoints"); epoch != 2 || rebuilt != 1 {
		t.Fatalf("client registry epoch %d, %d endpoints rebuilt; want 2 and 1", epoch, rebuilt)
	}
	if received < 20*512 {
		t.Fatalf("server received %d bytes: too little data flowed after the rebuild", received)
	}
	if !srvDone || srvErr != stacks.ErrReset {
		t.Fatalf("server done %v with error %v, want ErrReset from the crash sweep's probe", srvDone, srvErr)
	}
	w.Run(5 * time.Second)
	assertNoLeaks(t, w, 1)
	assertNoPoolLeaks(t)
}

// One of the client's two connections is in the slice of a registry shard
// that dies for good; once its grace has run out the surviving shard adopts
// it from the module, with no sequence numbers. The client then dies. Both
// peers must see a reset: the adopted connection's through the crash
// sweep's probe, whose answer reaches the survivor's default path and
// must be reset there, not dropped as a dead shard's stray.
func TestChaosAdoptedConnectionCrashResetsPeer(t *testing.T) {
	trackPoolLeaks(t)
	w := NewWorld(Config{
		Org: OrgUserLib, Net: Ethernet, RegistryShards: 2,
		Chaos: &chaos.FaultPlan{
			ShardCrashes: []chaos.ShardCrash{{Host: 1, Shard: 1, At: 100 * time.Millisecond}},
			Crashes:      []chaos.CrashPoint{{Host: 1, App: "client", At: 6 * time.Second}},
		},
	})
	enableConformance(t, w)
	srv := w.Node(0).App("server")
	cli := w.Node(1).App("client")
	var errs []error
	srv.Go("srv", func(th *kern.Thread) {
		l, _ := srv.Stack.Listen(th, 80, stacks.Options{})
		for range 2 {
			c, err := l.Accept(th)
			if err != nil {
				t.Errorf("accept: %v", err)
				return
			}
			srv.Go("read", func(th *kern.Thread) {
				buf := make([]byte, 4096)
				for {
					if n, err := c.Read(th, buf); err != nil || n == 0 {
						errs = append(errs, err)
						return
					}
				}
			})
		}
		l.Close(th)
	})
	for range 2 {
		cli.GoAfter(time.Millisecond, "cli", func(th *kern.Thread) {
			c, err := cli.Stack.Connect(th, w.Endpoint(0, 80), stacks.Options{})
			if err != nil {
				t.Errorf("connect: %v", err)
				return
			}
			for {
				if _, err := c.Write(th, pattern(512)); err != nil {
					return
				}
				th.Sleep(50 * time.Millisecond)
			}
		})
	}
	w.RunUntil(time.Minute, func() bool { return len(errs) == 2 })
	if n := Counter(t, w, "registry.h1.shard0.rebuilt_endpoints"); n != 1 {
		t.Fatalf("the surviving shard adopted %d connections, want 1", n)
	}
	if len(errs) != 2 || errs[0] != stacks.ErrReset || errs[1] != stacks.ErrReset {
		t.Fatalf("the server's readers ended with %v, want two resets", errs)
	}
	w.Run(5 * time.Second)
	assertNoLeaks(t, w, 1)
	assertNoPoolLeaks(t)
}

// A crash while the handshake is still in the registry's hands: the
// registry-owned pcb is aborted and the reserved channel reclaimed. The
// control-plane delay holds the ConnectReq until after the crash, which
// also exercises reclamation of requests issued by already-dead domains.
func TestChaosCrashDuringHandshake(t *testing.T) {
	trackPoolLeaks(t)
	w := NewWorld(Config{
		Org: OrgUserLib, Net: AN1, // AN1 reserves the channel before the SYN
		Chaos: &chaos.FaultPlan{
			Seed:    11,
			Control: chaos.ControlFaults{DelayProb: 1.0, Delay: 50 * time.Millisecond},
			Crashes: []chaos.CrashPoint{{Host: 1, App: "client", At: 20 * time.Millisecond}},
		},
	})
	enableConformance(t, w)
	srv := w.Node(0).App("server")
	cli := w.Node(1).App("client")
	srv.Go("srv", func(th *kern.Thread) {
		l, err := srv.Stack.Listen(th, 80, stacks.Options{})
		if err != nil {
			return // listen itself is delayed; may race the run budget
		}
		for {
			if _, err := l.Accept(th); err != nil {
				return
			}
		}
	})
	cli.GoAfter(time.Millisecond, "cli", func(th *kern.Thread) {
		// The domain dies while this call is outstanding.
		_, _ = cli.Stack.Connect(th, w.Endpoint(0, 80), stacks.Options{})
		t.Error("connect returned in a crashed domain")
	})
	w.Run(30 * time.Second)
	if !cli.Dom.Dead() {
		t.Fatal("crash point did not fire")
	}
	assertNoLeaks(t, w, 1)
	assertNoPoolLeaks(t)
}

// A listener closed with hand-offs still queued on its accept port: nobody
// will read them, so their records are the collector's, but the connections
// they carry are the application's, and its death gives every one back —
// ports, channels, capabilities, regions and buffers on both hosts — and
// resets each client.
func TestChaosListenerClosedWithQueuedHandoffs(t *testing.T) {
	trackPoolLeaks(t)
	const n = 3
	w := NewWorld(Config{Org: OrgUserLib, Net: AN1})
	enableConformance(t, w)
	srv := w.Node(0).App("server")
	cli := w.Node(1).App("client")
	queued, closed := false, false
	srv.Go("srv", func(th *kern.Thread) {
		l, err := srv.Stack.Listen(th, 80, stacks.Options{Backlog: n})
		if err != nil {
			t.Errorf("listen: %v", err)
			return
		}
		for !queued {
			th.Sleep(time.Millisecond)
		}
		l.Close(th)
		closed = true
	})
	resets := 0
	for i := range n {
		cli.GoAfter(time.Duration(i+1)*time.Millisecond, "cli", func(th *kern.Thread) {
			c, err := cli.Stack.Connect(th, w.Endpoint(0, 80), stacks.Options{})
			if err != nil {
				t.Errorf("connect: %v", err)
				return
			}
			if _, err := c.Read(th, make([]byte, 16)); err == stacks.ErrReset {
				resets++
			}
			c.Close(th)
		})
	}
	w.RunUntil(time.Minute, func() bool {
		queued = w.Node(0).Registry.TransferredConns() == n
		return closed
	})
	if !closed || w.Node(0).Registry.ListenerCount() != 0 {
		t.Fatalf("listener closed %v with %d hand-offs queued", closed, w.Node(0).Registry.TransferredConns())
	}
	srv.Crash()
	w.Run(5 * time.Second)
	if resets != n {
		t.Errorf("%d of %d clients reset", resets, n)
	}
	assertNoLeaks(t, w, 0, 1)
	assertNoPoolLeaks(t)
}

// Regression for the orderly path: an application that exits cleanly
// (InheritReq) must also leave zero ports and bindings once the registry
// has driven TIME_WAIT to completion.
func TestChaosOrderlyExitLeavesNoState(t *testing.T) {
	trackPoolLeaks(t)
	w := NewWorld(Config{Org: OrgUserLib, Net: Ethernet})
	enableConformance(t, w)
	srv := w.Node(0).App("server")
	cli := w.Node(1).App("client")
	srvSawEOF, cliDone := false, false
	srv.Go("srv", func(th *kern.Thread) {
		l, _ := srv.Stack.Listen(th, 80, stacks.Options{})
		c, _ := l.Accept(th)
		buf := make([]byte, 256)
		for {
			n, err := c.Read(th, buf)
			if err != nil {
				return
			}
			if n == 0 {
				srvSawEOF = true
				c.Close(th)
				l.Close(th)
				return
			}
		}
	})
	cli.GoAfter(time.Millisecond, "cli", func(th *kern.Thread) {
		c, err := cli.Stack.Connect(th, w.Endpoint(0, 80), stacks.Options{})
		if err != nil {
			t.Errorf("connect: %v", err)
			return
		}
		c.Write(th, []byte("orderly"))
		cli.Lib.Exit(th, false) // inherit: registry drives FIN + TIME_WAIT
		cliDone = true
	})
	w.RunUntil(2*time.Minute, func() bool { return srvSawEOF && cliDone })
	if !srvSawEOF || !cliDone {
		t.Fatalf("orderly shutdown incomplete: eof=%v done=%v", srvSawEOF, cliDone)
	}
	// TIME_WAIT is 2*MSL = 60 s of virtual time; run well past it.
	w.Run(2 * time.Minute)
	assertNoLeaks(t, w, 1)
	assertNoPoolLeaks(t)
}

// A dead registry turns into a clean error, not a hung application: with
// every service request dropped, Connect must fail with
// ErrRegistryUnavailable within its bounded retry budget.
func TestChaosRegistryUnavailable(t *testing.T) {
	w := NewWorld(Config{
		Org: OrgUserLib, Net: Ethernet,
		Chaos: &chaos.FaultPlan{
			Seed:    3,
			Control: chaos.ControlFaults{DropRequestProb: 1.0},
		},
	})
	cli := w.Node(1).App("client")
	var err error
	var elapsed time.Duration
	done := false
	cli.Go("cli", func(th *kern.Thread) {
		start := time.Duration(th.Now())
		_, err = cli.Stack.Connect(th, w.Endpoint(0, 80), stacks.Options{})
		elapsed = time.Duration(th.Now()) - start
		done = true
	})
	w.RunUntil(5*time.Minute, func() bool { return done })
	if !done {
		t.Fatal("connect hung against a dead registry")
	}
	if err != stacks.ErrRegistryUnavailable {
		t.Fatalf("connect error = %v, want ErrRegistryUnavailable", err)
	}
	// 4 attempts with doubling deadlines and jittered backoff: bounded.
	if elapsed > 20*time.Second {
		t.Fatalf("gave up after %v; retry budget should bound this well under 20s", elapsed)
	}
}

// Data transfer completes under combined wire loss and control-plane
// delays; the delays stretch connection setup but must not break it.
func TestChaosTransferSurvivesCombinedFaults(t *testing.T) {
	w := NewWorld(Config{
		Org: OrgUserLib, Net: Ethernet,
		Chaos: &chaos.FaultPlan{
			Seed:    42,
			Control: chaos.ControlFaults{DelayProb: 0.5, Delay: 30 * time.Millisecond},
		},
		Conditions: &wire.LinkConditions{Seed: 42, LossProb: 0.03, DupProb: 0.01},
	})
	enableConformance(t, w)
	echoTransfer(t, w, 64*1024, stacks.Options{}, 5*time.Minute)
}

// The tentpole scenario: the SERVER's registry is killed mid-transfer and
// restarted within netio.IssuerGrace. The data path never touches the
// registry, so the transfer keeps moving through the outage; the reborn
// registry rebuilds its port table and connection map from the module's
// installed templates, and — because the restart came within the grace —
// nothing is ever quarantined.
func TestChaosRegistryCrashRestartMidTransfer(t *testing.T) {
	w := NewWorld(Config{
		Org: OrgUserLib, Net: Ethernet,
		Chaos: &chaos.FaultPlan{
			Seed: 21,
			ShardCrashes: []chaos.ShardCrash{
				{Host: 0, At: 100 * time.Millisecond, RestartAfter: 200 * time.Millisecond},
			},
		},
	})
	enableConformance(t, w)
	srv := w.Node(0).App("server")
	cli := w.Node(1).App("client")
	const chunks, chunk = 50, 512
	received := 0
	srvDone := false
	srv.Go("srv", func(th *kern.Thread) {
		l, err := srv.Stack.Listen(th, 80, stacks.Options{})
		if err != nil {
			t.Errorf("listen: %v", err)
			return
		}
		c, err := l.Accept(th)
		if err != nil {
			t.Errorf("accept: %v", err)
			return
		}
		buf := make([]byte, 4096)
		for {
			n, err := c.Read(th, buf)
			if err != nil {
				t.Errorf("server read: %v", err)
				return
			}
			if n == 0 {
				break
			}
			received += n
		}
		srvDone = true
	})
	cli.GoAfter(time.Millisecond, "cli", func(th *kern.Thread) {
		c, err := cli.Stack.Connect(th, w.Endpoint(0, 80), stacks.Options{})
		if err != nil {
			t.Errorf("connect: %v", err)
			return
		}
		// Slow writes straddle the crash window [100ms, 300ms].
		for i := 0; i < chunks; i++ {
			if _, err := c.Write(th, pattern(chunk)); err != nil {
				t.Errorf("client write: %v", err)
				return
			}
			th.Sleep(10 * time.Millisecond)
		}
		c.Close(th)
	})
	w.RunUntil(time.Minute, func() bool { return srvDone })
	if !srvDone {
		t.Fatal("transfer did not survive the registry crash")
	}
	if received != chunks*chunk {
		t.Fatalf("server received %d bytes, want %d", received, chunks*chunk)
	}
	if epoch := Counter(t, w, "registry.h0.shard0.epoch"); epoch != 2 {
		t.Fatalf("server registry epoch = %d, want 2 (one restart)", epoch)
	}
	if Counter(t, w, "registry.h0.shard0.rebuilt_endpoints") < 1 {
		t.Fatal("reborn registry rebuilt nothing from the module's templates")
	}
	// Restart within the issuer grace: the quarantine machinery must stay cold.
	if n := Counter(t, w, "netio.h0.quarantine_drops") + Counter(t, w, "netio.h1.quarantine_drops"); n != 0 {
		t.Fatalf("%d frames quarantined despite the restart coming within the issuer grace", n)
	}
}

// The outage outlasts netio.IssuerGrace: the client host's module
// quarantines the endpoint once its issuer has been dead that long (sends
// rejected with netio.ErrQuarantined, delivery suppressed), the reborn
// registry's rebuild re-issues it from the module, and TCP's retransmissions
// carry the transfer on to completion — a terminal error never surfaces to
// the application, and the client library sends its registry no control
// message from the crash until it closes.
func TestChaosTransferResumesAfterOutageLongerThanGrace(t *testing.T) {
	w := NewWorld(Config{
		Org: OrgUserLib, Net: Ethernet,
		Chaos: &chaos.FaultPlan{
			Seed: 23,
			ShardCrashes: []chaos.ShardCrash{
				{Host: 1, At: 100 * time.Millisecond, RestartAfter: 4 * time.Second},
			},
		},
	})
	enableConformance(t, w)
	closing := false
	var requests []string
	w.Bus().Subscribe(func(e trace.Event) {
		if !closing && e.Kind == trace.RegistryRPC && e.Node == "h1" && e.At >= 100*time.Millisecond && e.Text != "shard-crash" {
			requests = append(requests, e.Text)
		}
	})
	srv := w.Node(0).App("server")
	cli := w.Node(1).App("client")
	const chunks, chunk = 300, 512
	received := 0
	srvDone := false
	srv.Go("srv", func(th *kern.Thread) {
		l, _ := srv.Stack.Listen(th, 80, stacks.Options{})
		c, err := l.Accept(th)
		if err != nil {
			t.Errorf("accept: %v", err)
			return
		}
		buf := make([]byte, 4096)
		for {
			n, err := c.Read(th, buf)
			if err != nil {
				t.Errorf("server read: %v", err)
				return
			}
			if n == 0 {
				break
			}
			received += n
		}
		srvDone = true
	})
	cli.GoAfter(time.Millisecond, "cli", func(th *kern.Thread) {
		c, err := cli.Stack.Connect(th, w.Endpoint(0, 80), stacks.Options{})
		if err != nil {
			t.Errorf("connect: %v", err)
			return
		}
		// ~6s of writes: quarantine starts at ~3.1s (crash + grace), the
		// registry returns at ~4.1s, and the stream must ride through both.
		for i := 0; i < chunks; i++ {
			if _, err := c.Write(th, pattern(chunk)); err != nil {
				t.Errorf("client write: %v", err)
				return
			}
			th.Sleep(20 * time.Millisecond)
		}
		closing = true
		c.Close(th)
	})
	w.RunUntil(2*time.Minute, func() bool { return srvDone })
	if !srvDone {
		t.Fatal("transfer did not resume after the quarantine")
	}
	if received != chunks*chunk {
		t.Fatalf("server received %d bytes, want %d", received, chunks*chunk)
	}
	if Counter(t, w, "netio.h1.send_rejected") < 1 {
		t.Fatal("no send was ever rejected: the endpoint was never quarantined, scenario is not testing quarantine")
	}
	if epoch := Counter(t, w, "registry.h1.shard0.epoch"); epoch != 2 {
		t.Fatalf("client registry epoch = %d, want 2", epoch)
	}
	if n := Counter(t, w, "registry.h1.shard0.rebuilt_endpoints"); n != 1 {
		t.Fatalf("the reborn registry rebuilt %d endpoints, want the connection's 1", n)
	}
	if len(requests) != 0 {
		t.Fatalf("the client library sent control messages %v between the crash and its close", requests)
	}
}

// Satellite: the chaos injector's delayed-reply path. Every control-plane
// request is delayed past the library's first RPC timeout, so every request
// is retried while the original is still in flight — without request-ID
// dedup the retried listen would see ErrPortInUse from its own first
// attempt and the retried connect would run a second handshake.
func TestChaosDelayedReplyDeduped(t *testing.T) {
	w := NewWorld(Config{
		Org: OrgUserLib, Net: Ethernet,
		Chaos: &chaos.FaultPlan{
			Seed:    13,
			Control: chaos.ControlFaults{DelayProb: 1.0, Delay: 400 * time.Millisecond},
		},
	})
	srv := w.Node(0).App("server")
	cli := w.Node(1).App("client")
	received := ""
	srvDone, cliDone := false, false
	srv.Go("srv", func(th *kern.Thread) {
		l, err := srv.Stack.Listen(th, 80, stacks.Options{})
		if err != nil {
			t.Errorf("listen under delayed replies: %v", err)
			return
		}
		c, err := l.Accept(th)
		if err != nil {
			t.Errorf("accept: %v", err)
			return
		}
		buf := make([]byte, 64)
		for {
			n, err := c.Read(th, buf)
			if err != nil || n == 0 {
				break
			}
			received += string(buf[:n])
		}
		srvDone = true
	})
	// Start the client late enough that the (delayed) listen is registered
	// before the SYN can arrive.
	cli.GoAfter(600*time.Millisecond, "cli", func(th *kern.Thread) {
		c, err := cli.Stack.Connect(th, w.Endpoint(0, 80), stacks.Options{})
		if err != nil {
			t.Errorf("connect under delayed replies: %v", err)
			return
		}
		if _, err := c.Write(th, []byte("deduped")); err != nil {
			t.Errorf("write: %v", err)
			return
		}
		c.Close(th)
		cliDone = true
	})
	w.RunUntil(time.Minute, func() bool { return srvDone && cliDone })
	if !srvDone || !cliDone {
		t.Fatalf("incomplete under delayed replies: srv=%v cli=%v", srvDone, cliDone)
	}
	if received != "deduped" {
		t.Fatalf("server received %q", received)
	}
	// At least one retried request must have been answered from the cache.
	if hits := Counter(t, w, "registry.h0.dedup_hits") + Counter(t, w, "registry.h1.dedup_hits"); hits < 1 {
		t.Fatal("no dedup hits: the delayed-reply path never exercised the request-ID cache")
	}
}

// rawTCPFrame builds a complete Ethernet/IPv4/TCP frame for module-level
// injection, bypassing any stack — the hostile-tenant scenarios need
// traffic aimed at a channel no library is draining.
func rawTCPFrame(srcIP, dstIP ipv4.Addr, src, dst link.Addr, srcPort, dstPort uint16, payload []byte) *pkt.Buf {
	b := pkt.FromBytes(link.EthHeaderLen+ipv4.HeaderLen+tcp.HeaderLen, payload)
	th := tcp.Header{SrcPort: srcPort, DstPort: dstPort, Flags: tcp.FlagACK, Window: 1024}
	th.Encode(b, srcIP, dstIP)
	ih := ipv4.Header{TTL: 64, Proto: ipv4.ProtoTCP, Src: srcIP, Dst: dstIP}
	ih.Encode(b)
	lh := link.EthHeader{Dst: dst, Src: src, Type: link.TypeIPv4}
	lh.Encode(b)
	return b
}

// By-reference safety among nontrusting tenants, half 1: a hostile tenant
// claims a receive ring and never drains it while a flood is aimed at it.
// By-reference delivery must not let that pin unbounded pool storage — once
// the ring is full, further frames are dropped at delivery with buffer and
// ring slot released on the spot, so the flood's footprint is bounded by
// the hostile tenant's own ring capacity and a well-behaved neighbor's
// transfer through the same module proceeds untouched.
func TestChaosZeroCopyHostileFloodBounded(t *testing.T) {
	trackPoolLeaks(t)
	w := NewWorld(Config{Org: OrgUserLib, Net: Ethernet})
	n0, n1 := w.Node(0), w.Node(1)

	// The hostile tenant: a ring of 8 frames, never drained.
	const ring = 8
	hostile := n0.Host.NewDomain("hostile", true)
	spec := filter.Spec{
		LinkHdrLen: link.EthHeaderLen, Proto: ipv4.ProtoTCP,
		LocalIP: n0.IP, LocalPort: 9,
		RemoteIP: n1.IP, RemotePort: 1999,
	}
	tmpl := netio.Template{
		LinkSrc: link.MakeAddr(1), LinkDst: link.MakeAddr(2), Type: link.TypeIPv4,
		Proto: ipv4.ProtoTCP, LocalIP: n0.IP, LocalPort: 9,
		RemoteIP: n1.IP, RemotePort: 1999,
	}
	hcap, hch, err := n0.Mod.CreateChannel(hostile, spec, tmpl, ring)
	if err != nil {
		t.Fatal(err)
	}
	pinnedWithHostile := n0.Mod.PinnedRegions()

	// The flood: far more frames than the ring holds, paced to overlap the
	// neighbor's whole transfer.
	const floodFrames = 120
	flooder := n1.Host.NewDomain("flooder", true)
	flooder.Spawn("flood", func(th *kern.Thread) {
		for i := 0; i < floodFrames; i++ {
			b := rawTCPFrame(n1.IP, n0.IP, link.MakeAddr(2), link.MakeAddr(1),
				1999, 9, pattern(1024))
			n1.Mod.SendKernel(th, b)
			th.Sleep(500 * time.Microsecond)
		}
	})

	// The well-behaved neighbor: a full echo through the same two modules,
	// in flight while the flood saturates the hostile ring.
	echoTransfer(t, w, 64*1024, stacks.Options{}, 5*time.Minute)
	w.Run(5 * time.Second) // drain the close handshake and flood tail

	if hch.Overflows == 0 || hch.Dropped == 0 {
		t.Fatalf("flood never overflowed the hostile ring (overflows=%d dropped=%d) — scenario is not exercising saturation",
			hch.Overflows, hch.Dropped)
	}
	if hch.Delivered != ring {
		t.Fatalf("hostile ring queued %d frames, want exactly its capacity %d", hch.Delivered, ring)
	}
	// The flood's entire pool footprint is the hostile ring: every other
	// buffer in the world has been released (the neighbor's liens settle
	// when its library's input thread drains its channels empty).
	if n := pkt.OutstandingCount(); n != ring {
		t.Fatalf("%d pkt.Bufs outstanding with the hostile ring full, want %d:\n%s",
			n, ring, pkt.FormatLeakReport())
	}
	// Destroying the hostile channel reclaims the queued references.
	if err := n0.Mod.DestroyChannel(hostile, hcap); err != nil {
		t.Fatalf("destroy hostile channel: %v", err)
	}
	if got := n0.Mod.PinnedRegions(); got != pinnedWithHostile-1 {
		t.Fatalf("pinned regions = %d after destroy, want %d", got, pinnedWithHostile-1)
	}
	assertNoPoolLeaks(t)
}

// By-reference safety among nontrusting tenants, half 2: an application
// crashes while the module still holds by-reference deliveries on its
// behalf — frames queued in its ring and liens on the batch its input
// thread was processing. The kill path must sweep every reference (no
// pinned regions, no live capabilities, no stranded pool buffers) and the
// peer must observe a reset, all without the dead application's help. Every
// batch is delivered by reference, so the teardown has liens to sweep: at
// least the peer library's, whose connection fails on the reset while the
// batch that carried it is still liened.
func TestChaosZeroCopyCrashSweepsReferences(t *testing.T) {
	trackPoolLeaks(t)
	w := NewWorld(Config{
		Org: OrgUserLib, Net: Ethernet,
		Chaos: &chaos.FaultPlan{
			Seed: 7,
			// The receiver dies mid-stream: it is the side holding
			// references when the crash lands.
			Crashes: []chaos.CrashPoint{{Host: 0, App: "server", At: 80 * time.Millisecond}},
		},
	})
	enableConformance(t, w)
	swept := int64(0)
	w.Bus().Subscribe(func(e trace.Event) {
		if e.Kind == trace.ChanSweep {
			swept += e.B
		}
	})
	srv := w.Node(0).App("server")
	cli := w.Node(1).App("client")
	var cliErr error
	cliDone := false
	srv.Go("srv", func(th *kern.Thread) {
		l, _ := srv.Stack.Listen(th, 80, stacks.Options{})
		c, err := l.Accept(th)
		if err != nil {
			return
		}
		buf := make([]byte, 4096)
		for {
			if _, err := c.Read(th, buf); err != nil {
				return
			}
		}
	})
	cli.GoAfter(time.Millisecond, "cli", func(th *kern.Thread) {
		c, err := cli.Stack.Connect(th, w.Endpoint(0, 80), stacks.Options{})
		if err != nil {
			t.Errorf("connect: %v", err)
			return
		}
		// Stream into the receiver until its crash turns into a reset.
		for {
			if _, cliErr = c.Write(th, pattern(1024)); cliErr != nil {
				cliDone = true
				return
			}
			th.Sleep(2 * time.Millisecond)
		}
	})
	w.RunUntil(time.Minute, func() bool { return cliDone })
	if !cliDone {
		t.Fatal("client never unblocked: no reset observed from the crashed receiver")
	}
	if cliErr != stacks.ErrReset {
		t.Fatalf("client error = %v, want ErrReset", cliErr)
	}
	if !srv.Dom.Dead() {
		t.Fatal("crash point did not fire")
	}
	// Drain the teardown, then audit the crashed node: the sweep must have
	// reclaimed the dead receiver's rings, liens, and capabilities.
	w.Run(5 * time.Second)
	if swept == 0 {
		t.Error("the teardown swept no lien: no batch was held by reference")
	}
	if out := Counter(t, w, "pkt.outstanding"); out != 0 {
		t.Errorf("pkt.outstanding = %d after the drain, want 0", out)
	}
	assertNoLeaks(t, w, 0)
	assertNoPoolLeaks(t)
}

// A registry-crash entry is honoured whatever the world's shape, or refused:
// the plan that crashes "the registry" (shard 0) of a four-shard world must
// really take that shard down and bring it back as a new incarnation, and a
// plan naming a shard the world does not have must be rejected, not dropped.
// Both used to be silently ignored: the lone and the sharded shape each read
// only its own list. The host keeps its one listener record throughout, so a
// SYN whose tuple hashes to shard 0 is accepted by the sibling that covers
// for it and, with no copy step, by its next incarnation.
func TestChaosCrashScheduleHonouredOrRefused(t *testing.T) {
	const crashAt, restartAt = 100 * time.Millisecond, 300 * time.Millisecond
	plan := func(shard int) *chaos.FaultPlan {
		return &chaos.FaultPlan{Seed: 5, ShardCrashes: []chaos.ShardCrash{
			{Host: 0, Shard: shard, At: crashAt, RestartAfter: restartAt - crashAt}}}
	}
	w := NewWorld(Config{Org: OrgUserLib, Net: Ethernet, RegistryShards: 4, Chaos: plan(0)})
	// Host 0's passive set-ups of shard 0's tuples, by when they established.
	var covered, reborn int
	w.EnableTrace().Subscribe(func(e trace.Event) {
		if e.Kind != trace.TCPState || e.A != int64(tcp.SynRcvd) || e.B != int64(tcp.Established) ||
			!strings.HasPrefix(e.Conn, "h0 ") {
			return
		}
		port, err := strconv.Atoi(e.Conn[strings.LastIndex(e.Conn, ":")+1:])
		if err != nil || passiveShard(w.Endpoint(0, 80), w.Endpoint(1, uint16(port)), 4) != 0 {
			return
		}
		switch {
		case e.At > crashAt && e.At < restartAt:
			covered++
		case e.At > restartAt:
			reborn++
		}
	})
	serveAndClose(t, w, stacks.Options{})
	cli := w.Node(1).App("client")
	var refused []time.Duration
	cli.GoAfter(time.Millisecond, "cli", func(th *kern.Thread) {
		buf := make([]byte, 64)
		for {
			start := w.Now()
			c, err := cli.Stack.Connect(th, w.Endpoint(0, 80), stacks.Options{})
			if err != nil {
				refused = append(refused, start)
				continue
			}
			for {
				if n, err := c.Read(th, buf); err != nil || n == 0 {
					break
				}
			}
			c.Close(th)
		}
	})
	reg := w.Node(0).Registry
	w.Run(crashAt + 50*time.Millisecond)
	if Counter(t, w, "registry.h0.shard0.live") != 0 {
		t.Fatal("shard 0 still live after its scheduled crash")
	}
	if got := reg.ListenerCount(); got != 1 {
		t.Fatalf("%d listeners while shard 0 is down, want the host's one", got)
	}
	w.Run(restartAt - crashAt + 100*time.Millisecond)
	if live, epoch := Counter(t, w, "registry.h0.shard0.live"), Counter(t, w, "registry.h0.shard0.epoch"); live != 1 || epoch != 2 {
		t.Fatalf("shard 0 live=%d epoch=%d after its scheduled restart, want 1 and 2", live, epoch)
	}
	if got := reg.ListenerCount(); got != 1 {
		t.Fatalf("%d listeners after shard 0's restart, want the host's one", got)
	}
	if covered == 0 || reborn == 0 {
		t.Errorf("shard 0's tuples: %d set-ups accepted while it was covered, %d after its restart; want some of each", covered, reborn)
	}
	if len(refused) != 0 {
		t.Errorf("connects started at %v failed", refused)
	}

	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "shard 3 on host 0") {
			t.Fatalf("a one-shard world accepted a crash of shard 3 (panic %q)", msg)
		}
	}()
	NewWorld(Config{Org: OrgUserLib, Net: Ethernet, Chaos: plan(3)})
}

// passiveShard is the shard that owns a passive open's tuple among n: the
// FNV-1a hash of the local and the peer endpoint, each its address and then
// its port, high byte first.
func passiveShard(local, peer tcp.Endpoint, n int) int {
	h := fnv.New32a()
	for _, e := range []tcp.Endpoint{local, peer} {
		h.Write(e.IP[:])
		h.Write([]byte{byte(e.Port >> 8), byte(e.Port)})
	}
	return int(h.Sum32() % uint32(n))
}

// Shards crash independently — on both hosts — while a dozen connections
// churn through setup, echo, and teardown. The control plane must keep
// admitting and completing setups (dead shards are routed around through
// the covering shard and the one listener table), migrated connections must
// finish their transfers, and when the dust settles nothing may leak: no
// ports, no transferred-connection records, no capabilities, no pinned
// regions, no pool buffers — on either host — with the RFC 793 conformance
// checker watching every frame.
func TestChaosShardCrashesUnderChurnLeaveNoLeaks(t *testing.T) {
	trackPoolLeaks(t)
	w := NewWorld(Config{
		Org: OrgUserLib, Net: Ethernet, RegistryShards: 2,
		Conditions: &wire.LinkConditions{Seed: 11, LossProb: 0.02},
		Chaos: &chaos.FaultPlan{
			ShardCrashes: []chaos.ShardCrash{
				{Host: 0, Shard: 0, At: 1 * time.Second, RestartAfter: 5 * time.Second},
				{Host: 1, Shard: 1, At: 3 * time.Second, RestartAfter: 5 * time.Second},
				{Host: 0, Shard: 1, At: 8 * time.Second, RestartAfter: 5 * time.Second},
			},
		},
	})
	enableConformance(t, w)
	srv := w.Node(0).App("server")
	cli := w.Node(1).App("client")
	const conns = 12
	served := 0
	srv.Go("srv", func(th *kern.Thread) {
		l, _ := srv.Stack.Listen(th, 80, stacks.Options{})
		for i := 0; i < conns; i++ {
			c, err := l.Accept(th)
			if err != nil {
				return
			}
			served++
			srv.Go("echo", func(th *kern.Thread) {
				buf := make([]byte, 1024)
				for {
					n, err := c.Read(th, buf)
					if err != nil {
						return
					}
					if n == 0 {
						c.Close(th)
						return
					}
					if _, err := c.Write(th, buf[:n]); err != nil {
						return
					}
				}
			})
		}
		l.Close(th)
	})
	okConns, doneConns := 0, 0
	for i := 0; i < conns; i++ {
		// Staggered starts straddle all three shard outages.
		cli.GoAfter(time.Duration(i)*900*time.Millisecond, "cli", func(th *kern.Thread) {
			defer func() { doneConns++ }()
			c, err := cli.Stack.Connect(th, w.Endpoint(0, 80), stacks.Options{})
			if err != nil {
				t.Errorf("connect: %v", err)
				return
			}
			msg := pattern(256)
			if _, err := c.Write(th, msg); err != nil {
				return
			}
			buf := make([]byte, 512)
			got := 0
			for got < len(msg) {
				n, err := c.Read(th, buf)
				if err != nil || n == 0 {
					break
				}
				got += n
			}
			c.Close(th)
			if got == len(msg) {
				okConns++
			}
		})
	}
	w.RunUntil(3*time.Minute, func() bool { return doneConns == conns })
	if doneConns != conns || okConns != conns || served != conns {
		t.Fatalf("churn incomplete: done=%d ok=%d served=%d want %d", doneConns, okConns, served, conns)
	}
	// Ride out the last restart and TIME_WAIT (2*MSL = 60 s), then audit.
	w.Run(2 * time.Minute)
	// Every crashed shard reborn, siblings untouched.
	wantEpoch := map[[2]int]int{{0, 0}: 2, {0, 1}: 2, {1, 0}: 1, {1, 1}: 2}
	for host := 0; host < 2; host++ {
		for i := 0; i < 2; i++ {
			pfx := fmt.Sprintf("registry.h%d.shard%d.", host, i)
			if Counter(t, w, pfx+"live") != 1 {
				t.Errorf("host %d shard %d not live at end", host, i)
			}
			if got := int(Counter(t, w, pfx+"epoch")); got != wantEpoch[[2]int{host, i}] {
				t.Errorf("host %d shard %d epoch = %d, want %d", host, i, got, wantEpoch[[2]int{host, i}])
			}
		}
	}
	assertNoLeaks(t, w, 0, 1)
	assertNoPoolLeaks(t)
}

// An application whose connections were handed off by two registry shards
// dies after one shard has crashed for good. The dead shard never runs its
// crash sweep; the survivor's sweep revokes, through the module's
// RevokeOwner, every endpoint issued to the application, so the one the dead
// shard issued is revoked and its region unpinned too. Both peers are reset
// by the probe: the one of the dead shard's connection is answered by the
// survivor, since no endpoint on the host claims its tuple any more.
func TestChaosRevokeOwnerReclaimsDeadShardsChannel(t *testing.T) {
	trackPoolLeaks(t)
	w := NewWorld(Config{
		Org: OrgUserLib, Net: Ethernet, RegistryShards: 2,
		Chaos: &chaos.FaultPlan{
			ShardCrashes: []chaos.ShardCrash{{Host: 0, Shard: 1, At: 200 * time.Millisecond}},
			// Well inside the issuer grace: the application has not migrated
			// the dead shard's connection to the survivor.
			Crashes: []chaos.CrashPoint{{Host: 0, App: "client", At: 400 * time.Millisecond}},
		},
	})
	enableConformance(t, w)
	srv := w.Node(1).App("server")
	cli := w.Node(0).App("client")
	var errs []error
	srv.Go("srv", func(th *kern.Thread) {
		l, _ := srv.Stack.Listen(th, 80, stacks.Options{})
		for range 2 {
			c, err := l.Accept(th)
			if err != nil {
				return
			}
			srv.Go("read", func(th *kern.Thread) {
				buf := make([]byte, 64)
				for {
					if n, err := c.Read(th, buf); err != nil || n == 0 {
						errs = append(errs, err)
						return
					}
				}
			})
		}
	})
	cli.GoAfter(time.Millisecond, "cli", func(th *kern.Thread) {
		// Connects go round-robin over the live shards: one through each.
		for range 2 {
			if _, err := cli.Stack.Connect(th, w.Endpoint(1, 80), stacks.Options{}); err != nil {
				t.Errorf("connect: %v", err)
				return
			}
		}
		th.Sleep(time.Hour)
	})
	mod := w.Node(0).Mod
	w.Run(300 * time.Millisecond)
	if mod.LiveCapabilities(cli.Dom) != 2 {
		t.Fatalf("before the application crash: %d capabilities held, want 2", mod.LiveCapabilities(cli.Dom))
	}
	if Counter(t, w, "registry.h0.shard1.live") != 0 {
		t.Fatal("shard 1 did not crash")
	}
	w.Run(time.Second)
	if !cli.Dom.Dead() {
		t.Fatal("crash point did not fire")
	}
	if len(errs) != 2 || errs[0] != stacks.ErrReset || errs[1] != stacks.ErrReset {
		t.Errorf("the server's readers ended with %v, want two resets", errs)
	}
	if got := mod.LiveCapabilities(cli.Dom); got != 0 {
		t.Errorf("%d capabilities of the dead application left in host 0's module", got)
	}
	if got := mod.PinnedRegions(); got != 0 {
		t.Errorf("%d shared regions still pinned on host 0", got)
	}
	assertNoPoolLeaks(t)
}

// A scripted partition under connection churn: the whole segment goes dark
// for three seconds in the middle of a staggered run of short echo
// connections. SYNs and data sent into the outage vanish silently (no
// RST), so everything rides on retransmission; after the heal every
// connection — including those started mid-partition — must complete, and
// the control plane must come out clean: no leaked ports, no stranded
// transferred or registry-owned pcbs, no pinned regions, no pool buffers.
func TestChaosPartitionUnderChurnHealsWithoutLeaks(t *testing.T) {
	trackPoolLeaks(t)
	w := NewWorld(Config{
		Org: OrgUserLib, Net: Ethernet,
		Conditions: &wire.LinkConditions{
			Seed:     29,
			LossProb: 0.02,
			Partitions: []wire.Window{
				{From: 2 * time.Second, Until: 5 * time.Second},
			},
		},
	})
	enableConformance(t, w)
	srv := w.Node(0).App("server")
	cli := w.Node(1).App("client")
	const conns = 10
	served := 0
	srv.Go("srv", func(th *kern.Thread) {
		l, _ := srv.Stack.Listen(th, 80, stacks.Options{})
		for i := 0; i < conns; i++ {
			c, err := l.Accept(th)
			if err != nil {
				return
			}
			served++
			srv.Go("echo", func(th *kern.Thread) {
				buf := make([]byte, 1024)
				for {
					n, err := c.Read(th, buf)
					if err != nil {
						return
					}
					if n == 0 {
						c.Close(th)
						return
					}
					if _, err := c.Write(th, buf[:n]); err != nil {
						return
					}
				}
			})
		}
		l.Close(th)
	})
	okConns, doneConns := 0, 0
	for i := 0; i < conns; i++ {
		// Staggered starts: early connections carry data into the outage,
		// middle ones open into it, late ones open right after the heal.
		cli.GoAfter(time.Duration(i)*500*time.Millisecond, "cli", func(th *kern.Thread) {
			defer func() { doneConns++ }()
			c, err := cli.Stack.Connect(th, w.Endpoint(0, 80), stacks.Options{})
			if err != nil {
				t.Errorf("connect: %v", err)
				return
			}
			msg := pattern(256)
			if _, err := c.Write(th, msg); err != nil {
				return
			}
			buf := make([]byte, 512)
			got := 0
			for got < len(msg) {
				n, err := c.Read(th, buf)
				if err != nil || n == 0 {
					break
				}
				got += n
			}
			c.Close(th)
			if got == len(msg) {
				okConns++
			}
		})
	}
	w.RunUntil(3*time.Minute, func() bool { return doneConns == conns })
	if doneConns != conns || okConns != conns || served != conns {
		t.Fatalf("churn incomplete: done=%d ok=%d served=%d want %d", doneConns, okConns, served, conns)
	}
	// Ride out TIME_WAIT (2*MSL = 60 s), then audit both hosts.
	w.Run(2 * time.Minute)
	assertNoLeaks(t, w, 0, 1)
	assertNoPoolLeaks(t)
}
