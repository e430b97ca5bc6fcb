package ulp

// The replay matrix: one table of seeded scenarios, each pinned by one line
// of testdata/replay.golden — its name, the number of frames it put on the
// wire and the SHA-256 of those frames (virtual timestamp, length, bytes).
// Every row runs twice in one process, once plain and once with the trace
// bus and the RFC 793 conformance checker attached, and both runs must equal
// the golden line. So each row is at once an in-process replay, a pin across
// processes and builds, and a check that observing a run never changes it.
//
// Anything order-sensitive feeds the hash: event-heap pops decide frame
// timing, recycled buffers could leak stale bytes into frames, a map walked
// in its random order would move a reset or a ring index, and a trace hook
// that consumed virtual time or randomness would shift every later frame.
// Regenerate the golden with `go test . -run TestReplayMatrix -update`, and
// say in the change why it moved.

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"

	"ulp/internal/chaos"
	"ulp/internal/conform"
	"ulp/internal/kern"
	"ulp/internal/pkt"
	"ulp/internal/sim"
	"ulp/internal/stacks"
	"ulp/internal/tcp"
	"ulp/internal/wire"
)

// replayRow is one scenario of the replay matrix.
type replayRow struct {
	name string
	cfg  Config
	load replayLoad
	// arm, when set, is called on the built world before it runs; the check
	// it returns is made after the run.
	arm func(t *testing.T, w *World) func()
}

// replayLoad is a row's applications. Host 0's "server" app listens on port
// 80; the "client" app on each of hosts 1..clients opens conns connections
// to it, the k-th of them (counting from 1 across hosts) start + k ms in. On every
// connection the writer — the client, or the server when reverse is set —
// writes pattern(chunk) writes times (0: until a write fails), sleeping pace
// after each, then closes. The reader checks every byte against the
// pattern, echoes it when echo is set (the writer then checks each write's
// echo before the next write), and closes when it reads the end of the
// stream.
type replayLoad struct {
	clients, conns int // 0 counts as 1
	chunk, writes  int
	start, pace    time.Duration
	echo, reverse  bool
	// crashAfter, when non-zero, crashes host 1's client app once the server
	// has read that many bytes.
	crashAfter int
}

// replayDrain is how long a row runs on after its last reader has finished:
// long enough for resets, retransmissions, registry restarts and TIME_WAIT
// to play out on the wire and under the checker.
const replayDrain = 5 * time.Minute

// seededFaults is the frame-fault plan of the seeded rows.
func seededFaults(seed uint64) *wire.LinkConditions {
	return &wire.LinkConditions{
		Seed:         seed,
		LossProb:     0.05,
		DupProb:      0.03,
		CorruptProb:  0.02,
		ReorderProb:  0.05,
		ReorderDelay: 2 * time.Millisecond,
	}
}

// replayRows is the matrix.
func replayRows() []replayRow {
	// A client streaming 1 KiB every 5 ms until it is crashed once the server
	// has read 32 KiB.
	stream := replayLoad{chunk: 1024, pace: 5 * time.Millisecond, crashAfter: 32 << 10}
	chaosStream := stream
	chaosStream.start = 50 * time.Millisecond
	rows := []replayRow{
		{name: "seeded/7", cfg: Config{Org: OrgUserLib, Net: Ethernet, Conditions: seededFaults(7)}, load: stream},
		{name: "seeded/42", cfg: Config{Org: OrgUserLib, Net: Ethernet, Conditions: seededFaults(42)}, load: stream},
		// Control-plane delays on top of wire loss. The client starts once the
		// server's delayed listen is surely in place.
		{name: "chaos/99", cfg: Config{Org: OrgUserLib, Net: Ethernet,
			Chaos:      &chaos.FaultPlan{Seed: 99, Control: chaos.ControlFaults{DelayProb: 0.3, Delay: 10 * time.Millisecond}},
			Conditions: &wire.LinkConditions{Seed: 99, LossProb: 0.05},
		}, load: chaosStream},
		// The server's registry is killed mid-transfer and restarted: rebuild
		// order, re-issue of the rebuilt endpoints and the reborn registry's
		// perturbed ISS.
		{name: "registry-crash/17", cfg: Config{Org: OrgUserLib, Net: Ethernet,
			Conditions: &wire.LinkConditions{Seed: 17, LossProb: 0.03, DupProb: 0.02},
			Chaos: &chaos.FaultPlan{ShardCrashes: []chaos.ShardCrash{
				{Host: 0, At: 150 * time.Millisecond, RestartAfter: 200 * time.Millisecond}}},
		}, load: replayLoad{chunk: 512, writes: 60, pace: 5 * time.Millisecond}, arm: registryReborn},
		// Both server-side shards of a two-shard federation die in turn, each
		// for longer than netio.IssuerGrace. The server writes: once the
		// grace has run out the surviving shard adopts the endpoint, and the
		// restarted shard takes it back.
		{name: "shard-crash/23", cfg: Config{Org: OrgUserLib, Net: Ethernet, RegistryShards: 2,
			Conditions: &wire.LinkConditions{Seed: 23, LossProb: 0.03, DupProb: 0.02},
			Chaos: &chaos.FaultPlan{ShardCrashes: []chaos.ShardCrash{
				{Host: 0, Shard: 0, At: 500 * time.Millisecond, RestartAfter: 8 * time.Second},
				{Host: 0, Shard: 1, At: 9 * time.Second, RestartAfter: 8 * time.Second}}},
		}, load: replayLoad{chunk: 512, writes: 60, pace: 200 * time.Millisecond, reverse: true}, arm: shardsMigrated},
		// Every impairment stage at once: two probabilistic stages draw from
		// their own generators, both derived from the one seed.
		{name: "degradation/23", cfg: Config{Org: OrgUserLib, Net: Ethernet, Conditions: &wire.LinkConditions{
			Seed:         23,
			LossProb:     0.03,
			DupProb:      0.02,
			ReorderProb:  0.03,
			ReorderDelay: 2 * time.Millisecond,
			Burst:        &wire.GilbertElliott{PGoodBad: 0.02, PBadGood: 0.3, LossBad: 1},
			Flaps: []wire.Window{
				{From: 80 * time.Millisecond, Until: 120 * time.Millisecond},
				{From: 300 * time.Millisecond, Until: 340 * time.Millisecond},
			},
			Queue: &wire.QueueModel{RateBitsPerSec: 8_000_000, MaxFrames: 12},
		}}, load: replayLoad{chunk: 1024, writes: 40, pace: 5 * time.Millisecond}},
		// A client holding twelve connections dies: the order of its
		// registry's crash sweep decides the order of the resets on the wire.
		{name: "crash-many-conns", cfg: Config{Org: OrgUserLib, Net: Ethernet,
			Chaos: &chaos.FaultPlan{Crashes: []chaos.CrashPoint{{Host: 1, App: "client", At: 300 * time.Millisecond}}},
		}, load: replayLoad{conns: 12, chunk: 256, pace: 20 * time.Millisecond}},
		// Five clients through a learning switch on the AN1.
		{name: "many-host/23", cfg: Config{Org: OrgUserLib, Net: AN1, Hosts: 6,
			Switch:     &wire.SwitchConfig{Latency: time.Microsecond},
			Conditions: &wire.LinkConditions{Seed: 23, LossProb: 0.02, DupProb: 0.01},
		}, load: replayLoad{clients: 5, chunk: 1024, writes: 4}, arm: switchUsed},
	}
	// The paper's three organizations on each network, and under loss.
	echo := replayLoad{chunk: 1024, writes: 60, echo: true}
	orgs := []Org{OrgUserLib, OrgInKernel, OrgSingleServer}
	for _, org := range orgs {
		for _, net := range []Net{Ethernet, AN1, AN1Jumbo} {
			rows = append(rows, replayRow{name: "echo/" + org.String() + "/" + net.String(),
				cfg: Config{Org: org, Net: net}, load: echo})
		}
	}
	for _, org := range orgs {
		rows = append(rows, replayRow{name: "loss/" + org.String(), cfg: Config{Org: org, Net: Ethernet,
			Conditions: &wire.LinkConditions{Seed: 42, LossProb: 0.03, DupProb: 0.01}},
			load: replayLoad{chunk: 1024, writes: 20, echo: true}})
	}
	return rows
}

// registryReborn checks that the server's registry crashed and came back.
func registryReborn(t *testing.T, w *World) func() {
	return func() {
		if epoch := Counter(t, w, "registry.h0.shard0.epoch"); epoch != 2 {
			t.Errorf("epoch = %d, want 2", epoch)
		}
	}
}

// shardsMigrated samples the survivor's adoption count before shard 1's
// crash discards it (the counters belong to a shard incarnation), then
// checks that both shards came back.
func shardsMigrated(t *testing.T, w *World) func() {
	migrated := int64(0)
	w.Sim.After(sim.Dur(8900*time.Millisecond), func() {
		migrated = Counter(t, w, "registry.h0.shard1.rebuilt_endpoints")
	})
	return func() {
		if migrated == 0 {
			t.Error("quarantine did not drive a cross-shard migration")
		}
		for i := 0; i < 2; i++ {
			pfx := fmt.Sprintf("registry.h0.shard%d.", i)
			if Counter(t, w, pfx+"live") != 1 {
				t.Errorf("shard %d not live after restarts", i)
			}
			if epoch := Counter(t, w, pfx+"epoch"); epoch != 2 {
				t.Errorf("shard %d epoch = %d, want 2 (crashed and reborn)", i, epoch)
			}
		}
	}
}

// switchUsed checks that the switch learned every host and forwarded data.
// ARP broadcasts fill the learning table before the first unicast, so real
// worlds never flood on a miss (the wire unit tests cover that path).
func switchUsed(t *testing.T, w *World) func() {
	return func() {
		learned, switched, _ := w.Seg.SwitchStats()
		if learned < w.Nodes() || switched == 0 {
			t.Errorf("switch learned %d hosts and switched %d frames", learned, switched)
		}
	}
}

// readResult is how one reader's connection ended.
type readResult struct {
	n   int
	err error // nil: end of stream
}

// runReplay runs one row, traced or plain, makes the row's checks and
// returns its golden line.
func runReplay(t *testing.T, row replayRow, traced bool) string {
	t.Helper()
	ld := row.load
	w := NewWorld(row.cfg)
	var ck *conform.Checker
	if traced {
		ck = enableConformance(t, w)
	}
	sum, frames := sha256.New(), 0
	w.TraceFrames(func(at time.Duration, b *pkt.Buf) {
		frames++
		var hdr [12]byte
		binary.BigEndian.PutUint64(hdr[:8], uint64(at))
		binary.BigEndian.PutUint32(hdr[8:], uint32(b.Len()))
		sum.Write(hdr[:])
		sum.Write(b.Bytes())
	})
	var check func()
	if row.arm != nil {
		check = row.arm(t, w)
	}

	conns := max(ld.clients, 1) * max(ld.conns, 1)
	pat := pattern(ld.chunk)
	srv := w.Node(0).App("server")
	var clients []*App
	for i := 1; i <= max(ld.clients, 1); i++ {
		clients = append(clients, w.Node(i).App("client"))
	}
	var results []readResult
	serverRead, written := 0, 0
	write := func(th *kern.Thread, c stacks.Conn) {
		back := make([]byte, ld.chunk)
		for i := 0; ld.writes == 0 || i < ld.writes; i++ {
			if _, err := c.Write(th, pat); err != nil {
				return
			}
			for got := 0; ld.echo && got < len(back); {
				n, err := c.Read(th, back[got:])
				if err != nil || n == 0 {
					t.Errorf("echo of write %d: %d bytes, %v", i, got, err)
					return
				}
				got += n
			}
			if ld.echo && !bytes.Equal(back, pat) {
				t.Errorf("echo of write %d differs from what was written", i)
				return
			}
			if ld.pace > 0 {
				th.Sleep(ld.pace)
			}
		}
		written++
		c.Close(th)
	}
	read := func(th *kern.Thread, c stacks.Conn, server bool) {
		buf := make([]byte, 4096)
		res := readResult{}
		for {
			n, err := c.Read(th, buf)
			if err != nil || n == 0 {
				res.err = err
				break
			}
			for i, b := range buf[:n] {
				if b != pat[(res.n+i)%len(pat)] {
					t.Errorf("byte %d of the stream differs from the pattern", res.n+i)
					break
				}
			}
			res.n += n
			if ld.echo {
				if _, err := c.Write(th, buf[:n]); err != nil {
					res.err = err
					break
				}
			}
			if server {
				serverRead += n
				if ld.crashAfter > 0 && serverRead >= ld.crashAfter && serverRead-n < ld.crashAfter {
					clients[0].Crash()
				}
			}
		}
		if res.err == nil {
			c.Close(th)
		}
		results = append(results, res)
	}
	srv.Go("srv", func(th *kern.Thread) {
		opts := stacks.Options{}
		if conns > 1 {
			opts.Backlog = conns
		}
		l, err := srv.Stack.Listen(th, 80, opts)
		if err != nil {
			t.Errorf("listen: %v", err)
			return
		}
		for i := 0; i < conns; i++ {
			c, err := l.Accept(th)
			if err != nil {
				return
			}
			serve := func(th *kern.Thread) {
				if ld.reverse {
					write(th, c)
				} else {
					read(th, c, true)
				}
			}
			if conns == 1 {
				serve(th)
			} else {
				srv.Go(fmt.Sprintf("srv%d", i), serve)
			}
		}
	})
	k := 0
	for _, cli := range clients {
		for range max(ld.conns, 1) {
			k++
			cli.GoAfter(ld.start+time.Duration(k)*time.Millisecond, "cli", func(th *kern.Thread) {
				c, err := cli.Stack.Connect(th, w.Endpoint(0, 80), stacks.Options{})
				if err != nil {
					return
				}
				if ld.reverse {
					read(th, c, false)
				} else {
					write(th, c)
				}
			})
		}
	}
	w.RunUntil(20*time.Minute, func() bool { return len(results) == conns })
	w.Run(replayDrain)

	if len(results) != conns {
		t.Fatalf("%d of %d connections finished", len(results), conns)
	}
	if frames < 50 {
		t.Errorf("%d frames on the wire, want at least 50", frames)
	}
	crashes := ld.crashAfter > 0 || row.cfg.Chaos != nil && len(row.cfg.Chaos.Crashes) > 0
	total := 0
	for i, r := range results {
		total += r.n
		switch {
		case crashes && !errors.Is(r.err, stacks.ErrReset):
			t.Errorf("reader %d ended with %v after %d bytes, want a reset", i, r.err, r.n)
		case !crashes && (r.err != nil || r.n != ld.chunk*ld.writes):
			t.Errorf("reader %d got %d of %d bytes, then %v", i, r.n, ld.chunk*ld.writes, r.err)
		}
	}
	if total == 0 {
		t.Error("no application byte was delivered")
	}
	if !crashes && written != conns {
		t.Errorf("%d of %d writers finished", written, conns)
	}
	if row.cfg.Conditions == nil {
		assertNoDrops(t, w)
	}
	if traced && !leftEstablished(ck.Coverage()) {
		t.Error("the checker saw no connection leave ESTABLISHED")
	}
	if check != nil {
		check()
	}
	return fmt.Sprintf("%s %d %x", row.name, frames, sum.Sum(nil))
}

// enableConformance attaches a conformance checker to the world and
// registers a cleanup that fails the test on any violation.
func enableConformance(t *testing.T, w *World) *conform.Checker {
	t.Helper()
	ck := w.EnableConformance()
	t.Cleanup(func() {
		for _, v := range ck.Violations() {
			t.Errorf("conformance: %v", v)
		}
		if n := ck.Reported() - len(ck.Violations()); n > 0 {
			t.Errorf("conformance: %d more violations past the %d listed", n, len(ck.Violations()))
		}
	})
	return ck
}

var channelDropped = regexp.MustCompile(`^netio\.h\d+\.ch\d+\.dropped$`)

// assertNoDrops checks that a world without an impairment plan dropped no
// frame: not on the wire, not at a device, not in the module or any live
// channel's ring.
func assertNoDrops(t *testing.T, w *World) {
	t.Helper()
	snap := w.StatsRegistry().Snapshot()
	keys := []string{"wire.frames_dropped"}
	for i := range w.Nodes() {
		keys = append(keys, fmt.Sprintf("netdev.h%d.rx_dropped", i), fmt.Sprintf("netio.h%d.rx_dropped", i))
	}
	for key := range snap {
		if channelDropped.MatchString(key) {
			keys = append(keys, key)
		}
	}
	for _, key := range keys {
		if v, ok := snap[key]; !ok || v != 0 {
			t.Errorf("%s = %d (exported %v) on an unimpaired link", key, v, ok)
		}
	}
}

// leftEstablished reports whether cov holds an edge out of ESTABLISHED.
func leftEstablished(cov *conform.Coverage) bool {
	missing := map[conform.Edge]bool{}
	for _, e := range cov.Missing() {
		missing[e] = true
	}
	for _, e := range conform.NewCoverage().Missing() {
		if e.From == tcp.Established && !missing[e] {
			return true
		}
	}
	return false
}

const replayGolden = "testdata/replay.golden"

// readReplayGolden returns the golden lines by row name. Under -update a
// missing golden reads as empty.
func readReplayGolden(t *testing.T) map[string]string {
	t.Helper()
	want := map[string]string{}
	data, err := os.ReadFile(replayGolden)
	if err != nil {
		if !*update {
			t.Fatal(err)
		}
		return want
	}
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		want[strings.Fields(line)[0]] = line
	}
	return want
}

// checkReplay runs row once per entry of traced, in order, and returns the
// first run's line. The first run must equal want (unless -update is set)
// and every later run must equal the first.
func checkReplay(t *testing.T, row replayRow, want string, traced ...bool) string {
	t.Helper()
	first := ""
	for i, tr := range traced {
		line := runReplay(t, row, tr)
		switch {
		case i == 0:
			first = line
			if !*update && line != want {
				t.Errorf("run differs from %s:\n  got:    %s\n  golden: %q", replayGolden, line, want)
			}
		case line != first:
			t.Errorf("tracing changed the run:\n  plain:  %s\n  traced: %s", first, line)
		}
	}
	return first
}

// TestReplayMatrix runs every row plain and traced and holds both to the
// row's line in testdata/replay.golden.
func TestReplayMatrix(t *testing.T) {
	rows := replayRows()
	want := readReplayGolden(t)
	got := map[string]string{}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			got[row.name] = checkReplay(t, row, want[row.name], false, true)
		})
	}
	var lines []string
	for _, row := range rows {
		line, ok := got[row.name]
		if !ok {
			line, ok = want[row.name] // a row -run filtered out keeps its line
		}
		if ok {
			lines = append(lines, line)
		}
		delete(want, row.name)
	}
	for name := range want {
		if !*update {
			t.Errorf("%s pins %s, which is no row of the matrix", replayGolden, name)
		}
	}
	if *update {
		if err := os.WriteFile(replayGolden, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// replayFamily runs the matrix rows named family, or family/<sub> as
// subtest <sub>, once per entry of traced, against their golden lines.
func replayFamily(t *testing.T, family string, traced ...bool) {
	t.Helper()
	want := readReplayGolden(t)
	found := false
	for _, row := range replayRows() {
		if row.name == family {
			found = true
			checkReplay(t, row, want[row.name], traced...)
		} else if sub, ok := strings.CutPrefix(row.name, family+"/"); ok {
			found = true
			t.Run(sub, func(t *testing.T) { checkReplay(t, row, want[row.name], traced...) })
		}
	}
	if !found {
		t.Fatalf("the replay matrix has no row %s or %s/...", family, family)
	}
}

// The long-standing names of the scenarios the matrix absorbed. Each runs
// its rows of the one table, plain or traced as the name says, against the
// same golden lines; TestReplayMatrix runs every row both ways.

func TestDeterministicReplay(t *testing.T)         { replayFamily(t, "seeded", false) }
func TestTracingPreservesDeterminism(t *testing.T) { replayFamily(t, "seeded", true) }
func TestChaosDeterministic(t *testing.T)          { replayFamily(t, "chaos", false) }
func TestRegistryCrashReplayDeterministic(t *testing.T) {
	replayFamily(t, "registry-crash", false)
}
func TestShardCrashReplayDeterministic(t *testing.T)  { replayFamily(t, "shard-crash", false) }
func TestDegradationReplayDeterministic(t *testing.T) { replayFamily(t, "degradation", false) }
func TestCrashManyConnsReplayDeterministic(t *testing.T) {
	replayFamily(t, "crash-many-conns", false)
}
func TestConformanceUnderCrash(t *testing.T) { replayFamily(t, "crash-many-conns", true) }
func TestManyHostSwitchedReplayDeterministic(t *testing.T) {
	replayFamily(t, "many-host", false)
}
func TestEchoAllOrganizationsAndNetworks(t *testing.T)   { replayFamily(t, "echo", false) }
func TestConformanceEchoAllOrganizations(t *testing.T)   { replayFamily(t, "echo", true) }
func TestTransferUnderLossAllOrganizations(t *testing.T) { replayFamily(t, "loss", false) }
func TestConformanceUnderLoss(t *testing.T)              { replayFamily(t, "loss", true) }
