package ulp

// Integration coverage for the observability layer: the per-layer stats
// registry must reproduce the Table-style breakdowns from a live run, the
// pcap export must parse back frame-for-frame, and the trace bus must
// respect the registry's crash-sweep ordering (no channel activity after a
// capability is revoked).

import (
	"bytes"
	"flag"
	"os"
	"regexp"
	"testing"
	"time"

	"ulp/internal/chaos"
	"ulp/internal/kern"
	"ulp/internal/link"
	"ulp/internal/pkt"
	"ulp/internal/stacks"
	"ulp/internal/trace"
	"ulp/internal/wire"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from the current output")

// Counter reads one key of the world's stats report, failing the test when
// the world does not export it. Tests outside a layer read its counters
// through this, never through the layer's fields.
func Counter(tb testing.TB, w *World, key string) int64 {
	tb.Helper()
	v, ok := w.StatsRegistry().Snapshot()[key]
	if !ok {
		tb.Fatalf("the world exports no counter %q", key)
	}
	return v
}

// TestStatsReportPerLayer runs a 64 KB echo under the user-level library and
// asserts the per-layer counters a Table 2/3-style breakdown depends on.
func TestStatsReportPerLayer(t *testing.T) {
	w := NewWorld(Config{Org: OrgUserLib, Net: Ethernet})
	echoTransfer(t, w, 64*1024, stacks.Options{}, 2*time.Minute)
	// echoTransfer stops the world the instant the client returns from
	// Close, which can leave its FIN mid-flight (wire propagation plus the
	// receive interrupt are simulated events). Drain so the close handshake
	// completes and every in-flight frame reaches a releasing consumer.
	w.Run(5 * time.Second)

	atLeast := func(name string, min int64) int64 {
		t.Helper()
		v := Counter(t, w, name)
		if v < min {
			t.Errorf("%s = %d, want >= %d", name, v, min)
		}
		return v
	}

	atLeast("wire.frames_sent", 10)
	atLeast("wire.bytes_sent", 2*64*1024) // 64 KB each way plus headers
	atLeast("netdev.h0.tx_frames", 5)
	atLeast("netdev.h1.rx_frames", 5)

	// The user-level library receives data over per-connection channels:
	// software demux must have matched, deliveries must have been posted,
	// and batching means notifications never exceed deliveries.
	atLeast("netio.h1.demux_matched", 5)
	delivered := atLeast("netio.h1.delivered", 5)
	notifs := atLeast("netio.h1.notifications", 1)
	if notifs > delivered {
		t.Errorf("notifications (%d) > deliveries (%d): batching counter inverted", notifs, delivered)
	}
	// The LANCE stages packets in kernel memory; moving them into the
	// channel's shared region is a counted copy.
	atLeast("netio.h1.copied_bytes", 64*1024)

	// A lone registry reports as a registry of one shard: the same keys a
	// sharded world emits, its incarnation counters under shard0.
	for name, want := range map[string]int64{
		"registry.h0.shards": 1, "registry.h0.shard0.live": 1, "registry.h0.shard0.epoch": 1,
		"registry.h0.shard0.syn_dropped": 0, "registry.h0.admission_denied": 0,
		"registry.h0.transferred": 0, // closed and torn down by now
	} {
		if got := Counter(t, w, name); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	atLeast("registry.h0.listeners", 0)
	atLeast("registry.h0.ports_in_use", 0)

	// Both directions checksum the payload at sender and receiver.
	atLeast("checksum.bytes_summed", 2*2*64*1024)

	// The pool served the run and nothing leaked.
	atLeast("pkt.gets", 10)
	if out := Counter(t, w, "pkt.outstanding"); out != 0 {
		t.Errorf("pkt.outstanding = %d, want 0 after a clean run", out)
	}
	atLeast("sim.events_fired", 100)

	if rep := w.StatsReport(); !bytes.Contains([]byte(rep), []byte("wire.frames_sent")) {
		t.Errorf("StatsReport missing wire namespace:\n%s", rep)
	}
}

// poolHistory matches the packet-pool counters that depend on what earlier
// worlds in the same process left in the pool, not on this world's run.
var poolHistory = regexp.MustCompile(`(?m)^pkt\.(heap_allocs|recycled) .*\n`)

// TestShardedStatsGolden pins the full stats report of a short churn in
// bench's churn shape — switched AN1, four registry shards per host, the wide
// ephemeral range, five hosts — less the pool-history lines. It holds the key
// set and values of what only a sharded AN1 world emits: per-shard registry
// rows, AN1 devices, and per-channel rows of the connections still in
// TIME_WAIT.
func TestShardedStatsGolden(t *testing.T) {
	const clients, workers, each = 4, 4, 4
	w := NewWorld(Config{
		Org: OrgUserLib, Net: AN1, Hosts: clients + 1,
		Switch:         &wire.SwitchConfig{Latency: time.Microsecond},
		RegistryShards: 4,
		EphemeralLo:    1024, EphemeralHi: 60000,
	})
	srv := w.Node(0).App("server")
	srv.Go("srv", func(th *kern.Thread) {
		l, err := srv.Stack.Listen(th, 80, stacks.Options{Backlog: clients * workers})
		if err != nil {
			t.Errorf("listen: %v", err)
			return
		}
		for {
			c, err := l.Accept(th)
			if err != nil {
				return
			}
			c.Close(th)
		}
	})
	done := 0
	for ci := 1; ci <= clients; ci++ {
		cli := w.Node(ci).App("client")
		for wi := 0; wi < workers; wi++ {
			cli.GoAfter(time.Duration(wi)*50*time.Microsecond, "worker", func(th *kern.Thread) {
				buf := make([]byte, 64)
				for k := 0; k < each; k++ {
					c, err := cli.Stack.Connect(th, w.Endpoint(0, 80), stacks.Options{})
					if err != nil {
						t.Errorf("connect: %v", err)
						return
					}
					for {
						if n, err := c.Read(th, buf); err != nil || n == 0 {
							break
						}
					}
					c.Close(th)
					done++
				}
			})
		}
	}
	w.RunUntil(time.Minute, func() bool { return done == clients*workers*each })
	if done != clients*workers*each {
		t.Fatalf("churn completed %d of %d connections", done, clients*workers*each)
	}
	got := poolHistory.ReplaceAllString(w.StatsReport(), "")
	const golden = "testdata/sharded_stats.golden"
	if *update {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("stats report drifted from %s:\n%s", golden, got)
	}
}

// TestPcapExportParses captures a traced run to a pcap stream and reads it
// back: the header must identify Ethernet, timestamps must be nondecreasing
// virtual time, and every packet must decode as a link frame.
func TestPcapExportParses(t *testing.T) {
	w := NewWorld(Config{Org: OrgUserLib, Net: Ethernet})
	var buf bytes.Buffer
	pw, err := trace.NewPcapWriter(&buf, trace.LinkTypeEthernet)
	if err != nil {
		t.Fatal(err)
	}
	w.EnableTrace().Subscribe(func(e trace.Event) {
		if e.Kind == trace.FrameTx {
			if err := pw.WritePacket(e.At, e.Frame); err != nil {
				t.Errorf("pcap write: %v", err)
			}
		}
	})
	echoTransfer(t, w, 16*1024, stacks.Options{}, 2*time.Minute)

	linkType, packets, err := trace.ReadPcap(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("pcap read-back: %v", err)
	}
	if linkType != trace.LinkTypeEthernet {
		t.Fatalf("link type = %d, want %d", linkType, trace.LinkTypeEthernet)
	}
	if len(packets) < 10 {
		t.Fatalf("only %d packets captured", len(packets))
	}
	var prev time.Duration
	ipFrames := 0
	for i, p := range packets {
		if p.At < prev {
			t.Fatalf("packet %d: timestamp %v before %v", i, p.At, prev)
		}
		prev = p.At
		f := pkt.FromBytes(0, p.Data)
		h, err := link.DecodeEth(f)
		if err != nil {
			t.Fatalf("packet %d: not an Ethernet frame: %v", i, err)
		}
		if h.Type == link.TypeIPv4 {
			ipFrames++
		}
		f.Release()
	}
	if ipFrames == 0 {
		t.Fatal("capture contains no IPv4 frames")
	}
}

// TestCrashSweepRevokesBeforeSilence kills a domain mid-stream with a trace
// subscriber attached and asserts the crash sweep's ordering contract: once
// the network I/O module emits CapRevoked for a capability, no further
// demux or channel events may reference that channel — a hit after
// revocation would mean packets were still being steered into a torn-down
// shared region.
func TestCrashSweepRevokesBeforeSilence(t *testing.T) {
	w := NewWorld(Config{
		Org: OrgUserLib, Net: Ethernet,
		Chaos: &chaos.FaultPlan{
			Seed:    7,
			Crashes: []chaos.CrashPoint{{Host: 1, App: "client", At: 80 * time.Millisecond}},
		},
	})
	var events []trace.Event
	w.EnableTrace().Subscribe(func(e trace.Event) {
		e.Frame = nil // Frame is only valid during the callback
		events = append(events, e)
	})

	srv := w.Node(0).App("server")
	cli := w.Node(1).App("client")
	srvDone := false
	srv.Go("srv", func(th *kern.Thread) {
		l, _ := srv.Stack.Listen(th, 80, stacks.Options{})
		c, err := l.Accept(th)
		if err != nil {
			return
		}
		buf := make([]byte, 4096)
		for {
			if n, err := c.Read(th, buf); err != nil || n == 0 {
				break
			}
		}
		srvDone = true
		l.Close(th)
	})
	cli.GoAfter(time.Millisecond, "cli", func(th *kern.Thread) {
		c, err := cli.Stack.Connect(th, w.Endpoint(0, 80), stacks.Options{})
		if err != nil {
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
	w.Run(5 * time.Second) // drain resets and teardown

	if !cli.Dom.Dead() {
		t.Fatal("crash point did not fire")
	}
	type chanKey struct {
		node string
		id   int64
	}
	revokedAt := map[chanKey]int{}
	for i, e := range events {
		if e.Kind == trace.CapRevoked {
			if _, dup := revokedAt[chanKey{e.Node, e.A}]; !dup {
				revokedAt[chanKey{e.Node, e.A}] = i
			}
		}
	}
	crashedNode := w.Node(1).Mod.Device().Name()
	sawCrashRevoke := false
	for k := range revokedAt {
		if k.node == crashedNode {
			sawCrashRevoke = true
		}
	}
	if !sawCrashRevoke {
		t.Fatalf("no CapRevoked emitted on %s: crash sweep untraced (revocations: %v)",
			crashedNode, revokedAt)
	}
	for i, e := range events {
		switch e.Kind {
		case trace.DemuxHit, trace.ChanDeliver, trace.ChanNotify, trace.ChanDrop:
			if at, ok := revokedAt[chanKey{e.Node, e.A}]; ok && i > at {
				t.Errorf("event %d %s on %s channel %d after its revocation at event %d",
					i, e.Kind, e.Node, e.A, at)
			}
		}
	}
}

// TestTraceBusIsPerWorld: a world's trace bus is a pure observer of that
// world alone. World a is traced; world b, built and run beside it in the
// same process, is not, and none of b's activity may reach a's subscriber.
func TestTraceBusIsPerWorld(t *testing.T) {
	a := NewWorld(Config{Org: OrgUserLib, Net: Ethernet})
	seen := map[string]int{}
	a.EnableTrace().Subscribe(func(e trace.Event) { seen[e.Kind.String()]++ })

	b := NewWorld(Config{Org: OrgUserLib, Net: Ethernet})
	srv, cli := b.Node(0).App("server"), b.Node(1).App("client")
	got := 0
	srv.Go("srv", func(th *kern.Thread) {
		l, _ := srv.Stack.Listen(th, 80, stacks.Options{})
		c, err := l.Accept(th)
		if err != nil {
			t.Errorf("accept: %v", err)
			return
		}
		buf := make([]byte, 512)
		for {
			n, err := c.Read(th, buf)
			if err != nil || n == 0 {
				return
			}
			got += n
		}
	})
	cli.GoAfter(time.Millisecond, "cli", func(th *kern.Thread) {
		c, err := cli.Stack.Connect(th, b.Endpoint(0, 80), stacks.Options{})
		if err != nil {
			t.Errorf("connect: %v", err)
			return
		}
		c.Write(th, pattern(512))
		c.Close(th)
	})
	b.RunUntil(time.Minute, func() bool { return got == 512 })
	if got != 512 {
		t.Fatalf("world b moved %d of 512 bytes", got)
	}
	b.Run(5 * time.Second) // the close handshake
	if len(seen) != 0 {
		t.Fatalf("world a's subscriber saw world b's events: %v", seen)
	}
}
