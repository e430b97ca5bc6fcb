package registry

// Federation tests: static shard ownership, frame steering to the
// authoritative shard, the per-application admission quota, shard
// crash/restart with ownership-filtered rebuild and listener replication,
// and the two stale-state regressions the sharded control plane exposed —
// dedup-cache eviction of in-flight setups and admission/lease leaks on
// the connect path's error branches.

import (
	"errors"
	"testing"
	"time"

	"ulp/internal/costs"
	"ulp/internal/ipv4"
	"ulp/internal/kern"
	"ulp/internal/link"
	"ulp/internal/netdev"
	"ulp/internal/netio"
	"ulp/internal/sim"
	"ulp/internal/stacks"
	"ulp/internal/tcp"
	"ulp/internal/wire"
)

// fedRig is a two-host world: host 0 runs a lone registry (the far side),
// host 1 runs an N-shard federation. Tests speak the service
// protocol directly to individual shards, which is legitimate exactly
// because ownership is static: a shard only ever allocates ports from its
// own slice, so a connect sent to shard k is owned by shard k.
type fedRig struct {
	s    *sim.Sim
	r0   *Server
	fed  *Federation
	ips  []ipv4.Addr
	apps []*kern.Domain
}

func newFedRig(t *testing.T, shards, quota int) *fedRig {
	t.Helper()
	s := sim.New()
	seg := wire.New(s, wire.EthernetConfig())
	rg := &fedRig{s: s, ips: []ipv4.Addr{{10, 0, 0, 1}, {10, 0, 0, 2}}}
	mkMod := func(i int) *netio.Module {
		h := kern.NewHost(s, []string{"h0", "h1"}[i], costs.Default())
		dev := netdev.NewLance(h, seg, link.MakeAddr(i+1))
		mod := netio.New(h, dev)
		rg.apps = append(rg.apps, h.NewDomain("app", false))
		return mod
	}
	rg.r0 = NewFederation(s, mkMod(0), rg.ips[0], 1).Shard(0)
	rg.fed = NewFederation(s, mkMod(1), rg.ips[1], shards)
	if quota > 0 {
		rg.fed.quota = quota
	}
	return rg
}

// listenOn0 registers a listener on the far (single-registry) host.
func (rg *fedRig) listenOn0(t *testing.T, port uint16) {
	t.Helper()
	accept := kern.NewPort(rg.r0.host, "accept")
	done := false
	rg.apps[0].Spawn("listen", func(th *kern.Thread) {
		reply := rg.r0.Svc.Call(th, kern.Msg{Op: "listen", Body: ListenReq{Port: port, AcceptPort: accept}})
		if err, _ := reply.Body.(error); err != nil {
			t.Errorf("listen: %v", err)
		}
		done = true
	})
	rg.s.RunUntil(time.Second, func() bool { return done })
}

// connectVia performs an active open through one specific shard.
func (rg *fedRig) connectVia(t *testing.T, shard int, remote tcp.Endpoint, id uint64, budget time.Duration) (Handoff, bool) {
	t.Helper()
	var ho Handoff
	got := false
	rg.apps[1].Spawn("connect", func(th *kern.Thread) {
		reply := rg.fed.Shard(shard).Svc.Call(th, kern.Msg{
			Op: "connect", ID: id,
			Body: ConnectReq{Remote: remote, Owner: rg.apps[1]},
		})
		ho, _ = reply.Body.(Handoff)
		got = true
	})
	rg.s.RunUntil(budget, func() bool { return got })
	return ho, got
}

// Shard slices partition the ephemeral window with no gaps or overlaps,
// and every port in a shard's slice maps back to that shard.
func TestFederationPartitionsPortSpace(t *testing.T) {
	rg := newFedRig(t, 4, 0)
	lo, hi := tcp.NewPortAlloc().EphemeralRange()
	if rg.fed.slices[0][0] != lo || rg.fed.slices[3][1] != hi {
		t.Fatalf("slices %v do not span [%d,%d)", rg.fed.slices, lo, hi)
	}
	for i := 1; i < 4; i++ {
		if rg.fed.slices[i][0] != rg.fed.slices[i-1][1] {
			t.Fatalf("gap or overlap between slice %d and %d: %v", i-1, i, rg.fed.slices)
		}
	}
	peer := tcp.Endpoint{IP: rg.ips[0], Port: 80}
	for i, sl := range rg.fed.slices {
		for _, p := range []uint16{sl[0], sl[1] - 1} {
			local := tcp.Endpoint{IP: rg.ips[1], Port: p}
			if got := rg.fed.ownerEndpoints(local, peer); got != i {
				t.Fatalf("port %d owned by shard %d, want %d", p, got, i)
			}
		}
	}
}

// A connect through shard k completes the handshake: the SYN|ACK arriving
// on the shared interface is classified by tuple and steered to shard k's
// receive queue, not to shard 0.
func TestFederationSteersHandshakeToOwner(t *testing.T) {
	rg := newFedRig(t, 4, 0)
	rg.listenOn0(t, 80)
	for shard := 0; shard < 4; shard++ {
		ho, got := rg.connectVia(t, shard, tcp.Endpoint{IP: rg.ips[0], Port: 80}, 0, time.Minute)
		if !got || ho.Err != nil {
			t.Fatalf("shard %d connect: got=%v err=%v", shard, got, ho.Err)
		}
		if rg.fed.ownerEndpoints(ho.Snap.Local, ho.Snap.Peer) != shard {
			t.Fatalf("shard %d handed off a tuple it does not own: %v", shard, ho.Snap.Local)
		}
		if rg.fed.Shard(shard).TransferredConns() != 1 {
			t.Fatalf("shard %d transferred %d conns, want 1", shard, rg.fed.Shard(shard).TransferredConns())
		}
	}
	// No shard adopted another's connection.
	if rg.fed.TransferredConns() != 4 {
		t.Fatalf("federation transferred %d conns, want 4", rg.fed.TransferredConns())
	}
}

// The admission quota bounds outstanding setups per application domain:
// with quota 2 and two handshakes stalled against an unresolvable peer, a
// third connect is refused immediately with ErrAdmissionDenied and no side
// effects; completion of a setup frees its slot.
func TestFederationAdmissionQuota(t *testing.T) {
	rg := newFedRig(t, 2, 2)
	// 10.0.0.9 answers no ARP: the two admitted setups stay in flight.
	dead := tcp.Endpoint{IP: ipv4.Addr{10, 0, 0, 9}, Port: 80}
	for i := 0; i < 2; i++ {
		shard := i
		rg.apps[1].Spawn("stall", func(th *kern.Thread) {
			rg.fed.Shard(shard).Svc.Call(th, kern.Msg{
				Op: "connect", Body: ConnectReq{Remote: dead, Owner: rg.apps[1]}})
		})
	}
	rg.s.Run(10 * time.Millisecond)
	if got := rg.fed.Outstanding(rg.apps[1]); got != 2 {
		t.Fatalf("outstanding = %d, want 2", got)
	}
	portsBefore := rg.fed.PortsInUse()
	ho, got := rg.connectVia(t, 0, dead, 0, time.Second)
	if !got {
		t.Fatal("denied connect never answered")
	}
	if ho.Err != stacks.ErrAdmissionDenied {
		t.Fatalf("third connect err = %v, want ErrAdmissionDenied", ho.Err)
	}
	if rg.fed.AdmissionDenied() != 1 {
		t.Fatalf("denied = %d, want 1", rg.fed.AdmissionDenied())
	}
	// A denied setup has no side effects: no port, no pcb, no slot.
	if rg.fed.PortsInUse() != portsBefore {
		t.Fatalf("denied connect allocated a port: %d -> %d", portsBefore, rg.fed.PortsInUse())
	}
	if got := rg.fed.Outstanding(rg.apps[1]); got != 2 {
		t.Fatalf("outstanding after denial = %d, want 2", got)
	}
	// Let the stalled handshakes give up (12 SYN backoffs capped at 64 s
	// each — just over ten virtual minutes); their slots must come back.
	rg.s.Run(11 * time.Minute)
	if got := rg.fed.Outstanding(rg.apps[1]); got != 0 {
		t.Fatalf("outstanding after aborts = %d, want 0 (admission slots leaked)", got)
	}
}

// A crashed shard's incarnation is rebuilt from the module on restart, and
// only with the endpoints it statically owns: the other shards' live
// connections stay where they are (dropForeign removes nothing of theirs),
// and listeners come back via replication from a surviving sibling.
func TestFederationShardRestartRebuilds(t *testing.T) {
	rg := newFedRig(t, 2, 0)
	rg.listenOn0(t, 80)
	// One connection owned by each shard.
	for shard := 0; shard < 2; shard++ {
		if ho, got := rg.connectVia(t, shard, tcp.Endpoint{IP: rg.ips[0], Port: 80}, 0, time.Minute); !got || ho.Err != nil {
			t.Fatalf("shard %d connect failed: %v", shard, ho.Err)
		}
	}
	// Replicated listener on every shard (the library's fed Listen
	// broadcasts; here we do it by hand).
	for shard := 0; shard < 2; shard++ {
		done := false
		sh := shard
		rg.apps[1].Spawn("listen", func(th *kern.Thread) {
			rg.fed.Shard(sh).Svc.Call(th, kern.Msg{Op: "listen",
				Body: ListenReq{Port: 7070, AcceptPort: kern.NewPort(rg.fed.Shard(sh).host, "a"), Owner: rg.apps[1]}})
			done = true
		})
		rg.s.RunUntil(time.Second, func() bool { return done })
	}

	rg.fed.CrashShard(1)
	if rg.fed.Live(1) {
		t.Fatal("shard 1 still live after crash")
	}
	rg.s.Run(50 * time.Millisecond)
	rg.fed.RestartShard(1)
	rg.s.Run(50 * time.Millisecond)

	sh1 := rg.fed.Shard(1)
	if sh1.Epoch() != 2 {
		t.Fatalf("restarted shard epoch = %d, want 2", sh1.Epoch())
	}
	if sh1.RebuiltEndpoints() != 1 {
		t.Fatalf("restarted shard rebuilt %d endpoints, want exactly its own 1", sh1.RebuiltEndpoints())
	}
	if sh1.TransferredConns() != 1 {
		t.Fatalf("restarted shard holds %d transferred conns, want 1", sh1.TransferredConns())
	}
	// Shard 0's connection was untouched by the sweep.
	if rg.fed.Shard(0).TransferredConns() != 1 {
		t.Fatalf("surviving shard lost its connection: %d", rg.fed.Shard(0).TransferredConns())
	}
	// The replicated listener came back from the surviving sibling.
	if sh1.ListenerCount() != 1 {
		t.Fatalf("restarted shard has %d listeners, want 1 (replicated from sibling)", sh1.ListenerCount())
	}
}

// Frames for a dead shard's tuples fail over to the successor, and the
// successor must not answer tuples it is not authoritative for with RST —
// a reset would kill a live connection that is merely mid-migration.
func TestFederationDeadShardStrayDropsNotRST(t *testing.T) {
	rg := newFedRig(t, 2, 0)
	rg.listenOn0(t, 80)
	ho, got := rg.connectVia(t, 1, tcp.Endpoint{IP: rg.ips[0], Port: 80}, 0, time.Minute)
	if !got || ho.Err != nil {
		t.Fatal("setup failed")
	}
	rg.fed.CrashShard(1)
	rg.s.Run(10 * time.Millisecond)

	// The peer retransmits into the dead shard's tuple. The frame steers to
	// the successor (shard 0), which does not own it: it must drop, not RST.
	tx0 := rg.r0.nif.Mod.Device().Stats().TxFrames
	sent := false
	rg.r0.host.NewDomain("k", true).Spawn("tx", func(th *kern.Thread) {
		hdr := tcp.Header{SrcPort: 80, DstPort: ho.Snap.Local.Port,
			Seq: ho.Snap.RcvNxt, Ack: ho.Snap.SndNxt, Flags: tcp.FlagACK, Window: 100}
		b := pktFromBytes(rg.r0.nif.Headroom()+tcp.HeaderLen, nil)
		hdr.Encode(b, rg.ips[0], rg.ips[1])
		rg.r0.nif.SendTCP(th, b, rg.ips[1], 0)
		sent = true
	})
	rg.s.RunUntil(time.Second, func() bool { return sent })
	rg.s.Run(100 * time.Millisecond)
	rx0 := rg.r0.nif.Mod.Device().Stats().RxFrames
	_ = tx0
	// Host 0 received no RST: its rx counter grew only by its own ARP
	// traffic (none expected — addresses already resolved). Allow zero.
	if rg.r0.nif.Mod.Device().Stats().RxFrames != rx0 {
		t.Fatal("successor answered a non-authoritative stray")
	}
}

// Regression (stale-state bug #1): the dedup cache must never evict an
// in-flight entry. Pre-fix, FIFO eviction past dedupCap dropped the oldest
// entry unconditionally; a retry of a still-running connect then
// re-executed it — a second ephemeral port and a second handshake for one
// logical open. The flood here completes >cap requests while one connect
// is stalled in flight, then retries the connect's ID.
func TestDedupNeverEvictsInFlight(t *testing.T) {
	rg := newRig(false)
	// A connect to a host that answers no ARP: in flight for minutes.
	inFlightID := uint64(500)
	started := false
	rg.apps[1].Spawn("stall", func(th *kern.Thread) {
		started = true
		rg.r1.Svc.Call(th, kern.Msg{Op: "connect", ID: inFlightID,
			Body: ConnectReq{Remote: tcp.Endpoint{IP: ipv4.Addr{10, 0, 0, 9}, Port: 80}}})
	})
	rg.s.RunUntil(time.Second, func() bool { return started })
	rg.s.Run(10 * time.Millisecond)
	base := rg.r1.PortsInUse()
	if rg.r1.OwnedConns() != 1 {
		t.Fatalf("stalled connect not in flight: owned=%d", rg.r1.OwnedConns())
	}

	// Flood the cache with dedupCap+50 completed requests (idempotent
	// unlistens of a port nobody holds).
	flooded := false
	rg.apps[1].Spawn("flood", func(th *kern.Thread) {
		for i := 0; i < dedupCap+50; i++ {
			rg.r1.Svc.Call(th, kern.Msg{Op: "unlisten", ID: uint64(10000 + i),
				Body: UnlistenReq{Port: 9999}})
		}
		flooded = true
	})
	rg.s.RunUntil(time.Minute, func() bool { return flooded })

	// Retry the in-flight connect (a client whose reply timed out). The
	// entry must still be cached: the retry retargets the eventual handoff
	// instead of running a second handshake.
	hits := rg.r1.DedupHits()
	retried := false
	rg.apps[1].Spawn("retry", func(th *kern.Thread) {
		retried = true
		rg.r1.Svc.Call(th, kern.Msg{Op: "connect", ID: inFlightID,
			Body: ConnectReq{Remote: tcp.Endpoint{IP: ipv4.Addr{10, 0, 0, 9}, Port: 80}}})
	})
	rg.s.RunUntil(time.Second, func() bool { return retried })
	rg.s.Run(10 * time.Millisecond)
	if rg.r1.DedupHits() != hits+1 {
		t.Fatalf("retry of in-flight connect was not a dedup hit (hits %d -> %d): entry was evicted",
			hits, rg.r1.DedupHits())
	}
	if rg.r1.OwnedConns() != 1 {
		t.Fatalf("retry re-executed the connect: %d handshake pcbs, want 1", rg.r1.OwnedConns())
	}
	if rg.r1.PortsInUse() != base {
		t.Fatalf("retry allocated a second port: %d -> %d", base, rg.r1.PortsInUse())
	}
}

// Regression (stale-state bug #2): every error branch of the sharded
// connect path must unwind completely — admission slot, ephemeral port,
// lease/capability state. Exhausting a shard's (small) port slice and
// failing BQI reservations must both leave the module's capability and
// pinned-region audits at baseline and release their admission slots.
func TestFederationFailedSetupLeaksNothing(t *testing.T) {
	rg := newFedRig(t, 2, 0)
	rg.listenOn0(t, 80)
	// Squeeze shard 0 to a 2-port slice (shard 1 gets the rest).
	rg.fed.SetEphemeralRange(2000, 2004)
	mod := rg.fed.Netif().Mod
	capsBase := mod.LiveCapabilities(nil)
	pinsBase := mod.PinnedRegions()

	// Two setups hold shard 0's whole slice (stalled against a dead peer);
	// the third must fail with port exhaustion, leaving no state behind.
	dead := tcp.Endpoint{IP: ipv4.Addr{10, 0, 0, 9}, Port: 80}
	for i := 0; i < 2; i++ {
		rg.apps[1].Spawn("stall", func(th *kern.Thread) {
			rg.fed.Shard(0).Svc.Call(th, kern.Msg{Op: "connect",
				Body: ConnectReq{Remote: dead, Owner: rg.apps[1]}})
		})
	}
	rg.s.Run(10 * time.Millisecond)
	ho, got := rg.connectVia(t, 0, tcp.Endpoint{IP: rg.ips[0], Port: 80}, 0, time.Second)
	if !got || ho.Err == nil {
		t.Fatalf("connect on exhausted slice: got=%v err=%v, want port exhaustion", got, ho.Err)
	}
	if out := rg.fed.Outstanding(rg.apps[1]); out != 2 {
		t.Fatalf("failed setup leaked an admission slot: outstanding=%d, want 2", out)
	}

	// Induced channel-creation failure on the healthy shard: same audit.
	mod.FailSetup = func(op string) error {
		if op == "create" {
			return errors.New("induced: channel setup failed")
		}
		return nil
	}
	ho, got = rg.connectVia(t, 1, tcp.Endpoint{IP: rg.ips[0], Port: 80}, 0, time.Minute)
	if !got || ho.Err == nil {
		t.Fatal("induced channel failure did not surface")
	}
	mod.FailSetup = nil
	rg.s.Run(100 * time.Millisecond)
	if out := rg.fed.Outstanding(rg.apps[1]); out != 2 {
		t.Fatalf("aborted setup leaked an admission slot: outstanding=%d, want 2", out)
	}
	if sh1 := rg.fed.Shard(1); sh1.PortsInUse() != 0 || sh1.OwnedConns() != 0 {
		t.Fatalf("aborted setup leaked on shard 1: ports=%d owned=%d", sh1.PortsInUse(), sh1.OwnedConns())
	}
	// Let the stalled pair abort too (SYN retransmissions exhaust after
	// just over ten virtual minutes), then audit the module: no capability
	// or pinned region outlives its failed setup.
	rg.s.Run(11 * time.Minute)
	if out := rg.fed.Outstanding(rg.apps[1]); out != 0 {
		t.Fatalf("admission slots leaked after aborts: %d", out)
	}
	if rg.fed.PortsInUse() != 0 {
		t.Fatalf("ports leaked after aborts: %d", rg.fed.PortsInUse())
	}
	if mod.LiveCapabilities(nil) != capsBase {
		t.Fatalf("capabilities leaked: %d -> %d", capsBase, mod.LiveCapabilities(nil))
	}
	if mod.PinnedRegions() != pinsBase {
		t.Fatalf("pinned regions leaked: %d -> %d", pinsBase, mod.PinnedRegions())
	}
}
