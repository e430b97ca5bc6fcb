package registry

// Federation tests: static shard ownership, frame steering to the
// authoritative shard, the per-application admission quota, shard
// crash/restart with ownership-filtered rebuild and the one listener table,
// and the dedup-cache regression the sharded control plane exposed:
// eviction of in-flight setups. The connect path's error branches are
// audited in leak_test.go.

import (
	"testing"
	"time"

	"ulp/internal/costs"
	"ulp/internal/ipv4"
	"ulp/internal/kern"
	"ulp/internal/link"
	"ulp/internal/netdev"
	"ulp/internal/netio"
	"ulp/internal/pkt"
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
	seg  *wire.Segment
	r0   *Server
	fed  *Federation
	ips  []ipv4.Addr
	apps []*kern.Domain
}

func newFedRig(t *testing.T, shards, quota int) *fedRig {
	return newFedRigOn(t, false, shards, quota)
}

// newFedRigOn is newFedRig on an AN1 segment if an1 is set, else on an
// Ethernet.
func newFedRigOn(t *testing.T, an1 bool, shards, quota int) *fedRig {
	t.Helper()
	s := sim.New()
	rg := &fedRig{s: s, ips: []ipv4.Addr{{10, 0, 0, 1}, {10, 0, 0, 2}}}
	if an1 {
		rg.seg = wire.New(s, wire.AN1Config())
	} else {
		rg.seg = wire.New(s, wire.EthernetConfig())
	}
	mkMod := func(i int) *netio.Module {
		h := kern.NewHost(s, []string{"h0", "h1"}[i], costs.Default())
		var dev netdev.Device
		if an1 {
			dev = netdev.NewAN1(h, rg.seg, link.MakeAddr(i+1), 0)
		} else {
			dev = netdev.NewLance(h, rg.seg, link.MakeAddr(i+1))
		}
		mod := netio.New(h, dev)
		rg.apps = append(rg.apps, h.NewDomain("app", false))
		return mod
	}
	rg.r0 = NewFederation(s, mkMod(0), rg.ips[0], 1).shards[0]
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

// connectVia performs an active open through one specific shard, calling
// on slot id.
func (rg *fedRig) connectVia(t *testing.T, shard int, remote tcp.Endpoint, id uint32, budget time.Duration) (Handoff, bool) {
	t.Helper()
	var ho Handoff
	got := false
	rg.apps[1].Spawn("connect", func(th *kern.Thread) {
		reply := rg.fed.shards[shard].Svc.Call(th, kern.Msg{
			Op: "connect", ID: id, Slot: id,
			Body: ConnectReq{Remote: remote},
		})
		ho = received(reply)
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
		if rg.fed.shards[shard].TransferredConns() != 1 {
			t.Fatalf("shard %d transferred %d conns, want 1", shard, rg.fed.shards[shard].TransferredConns())
		}
	}
	// No shard adopted another's connection.
	if rg.fed.TransferredConns() != 4 {
		t.Fatalf("federation transferred %d conns, want 4", rg.fed.TransferredConns())
	}
}

// A frame into a shard's empty receive queue posts the shard's input thread
// as a channel's doorbell posts its consumer: a kernel wakeup, on the shard's
// CPU, only while the thread sleeps in its receive; a semaphore signal while
// it is at work on a set-up (here the state transfer after setupChannel).
// Both are counted in the host's wakeups and signals.
func TestShardPostCostsWhatTheDoorbellCharges(t *testing.T) {
	rg := newFedRig(t, 4, 0)
	rg.listenOn0(t, 80)
	sh := rg.fed.shards[0]
	cost := sh.host.Cost
	// post steers a frame no handler takes (an unknown EtherType, which
	// classifies to shard 0) into the shard's empty queue and returns what
	// that cost, by counter and on the shard's CPU.
	post := func() (wakeups, signals int64, cpu time.Duration) {
		if n := sh.rxq.Len(); n != 0 {
			t.Fatalf("shard queue holds %d frames, want it empty", n)
		}
		w0, s0 := counter(t, sh.host.Describe, "wakeups"), counter(t, sh.host.Describe, "signals")
		busy := sh.dom.CPU().Busy()
		b := pkt.FromBytes(link.EthHeaderLen, make([]byte, 46))
		lh := link.EthHeader{Dst: link.MakeAddr(2), Src: link.MakeAddr(9), Type: 0x88b5}
		lh.Encode(b)
		rg.fed.steer(b)
		return counter(t, sh.host.Describe, "wakeups") - w0,
			counter(t, sh.host.Describe, "signals") - s0,
			time.Duration(sh.dom.CPU().Busy() - busy)
	}
	type charge struct {
		wakeups, signals int64
		cpu              time.Duration
	}
	var atWork *charge
	rg.fed.mod.FailSetup = func(op string) error {
		if op == "create" && atWork == nil {
			// setupChannel is done; the input thread now computes the state
			// transfer.
			rg.s.After(sim.Dur(100*time.Microsecond), func() {
				w, s, c := post()
				atWork = &charge{w, s, c}
			})
		}
		return nil
	}
	if ho, got := rg.connectVia(t, 0, tcp.Endpoint{IP: rg.ips[0], Port: 80}, 0, time.Minute); !got || ho.Err != nil {
		t.Fatalf("connect: got=%v err=%v", got, ho.Err)
	}
	if atWork == nil {
		t.Fatal("no frame reached the shard during its set-up")
	}
	if *atWork != (charge{0, 1, cost.SemSignal}) {
		t.Errorf("frame to a shard at work: %d wakeups, %d signals, %v of CPU; want 0, 1, %v",
			atWork.wakeups, atWork.signals, atWork.cpu, cost.SemSignal)
	}
	rg.s.Run(100 * time.Millisecond) // the shard falls asleep
	if w, s, c := post(); (charge{w, s, c}) != (charge{1, 0, cost.KernelWakeup}) {
		t.Errorf("frame to a sleeping shard: %d wakeups, %d signals, %v of CPU; want 1, 0, %v",
			w, s, c, cost.KernelWakeup)
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
			rg.fed.shards[shard].Svc.Call(th, kern.Msg{
				Op: "connect", Body: ConnectReq{Remote: dead}})
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
	if rg.fed.denied != 1 {
		t.Fatalf("denied = %d, want 1", rg.fed.denied)
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
// connections stay where they are, and the host's one listener record stays
// as it was.
func TestFederationShardRestartRebuilds(t *testing.T) {
	rg := newFedRig(t, 2, 0)
	rg.listenOn0(t, 80)
	// One connection owned by each shard.
	for shard := 0; shard < 2; shard++ {
		if ho, got := rg.connectVia(t, shard, tcp.Endpoint{IP: rg.ips[0], Port: 80}, 0, time.Minute); !got || ho.Err != nil {
			t.Fatalf("shard %d connect failed: %v", shard, ho.Err)
		}
	}
	// One listen, to shard 1: the crash below does not take the record.
	done := false
	rg.apps[1].Spawn("listen", func(th *kern.Thread) {
		rg.fed.shards[1].Svc.Call(th, kern.Msg{Op: "listen",
			Body: ListenReq{Port: 7070, AcceptPort: kern.NewPort(rg.fed.host, "a")}})
		done = true
	})
	rg.s.RunUntil(time.Second, func() bool { return done })

	rg.fed.CrashShard(1)
	if rg.fed.live[1] {
		t.Fatal("shard 1 still live after crash")
	}
	rg.s.Run(50 * time.Millisecond)
	rg.fed.RestartShard(1)
	rg.s.Run(50 * time.Millisecond)

	sh1 := rg.fed.shards[1]
	if sh1.epoch != 2 {
		t.Fatalf("restarted shard epoch = %d, want 2", sh1.epoch)
	}
	if sh1.rebuilt != 1 {
		t.Fatalf("restarted shard rebuilt %d endpoints, want exactly its own 1", sh1.rebuilt)
	}
	if sh1.TransferredConns() != 1 {
		t.Fatalf("restarted shard holds %d transferred conns, want 1", sh1.TransferredConns())
	}
	// Shard 0's connection was untouched by the sweep.
	if rg.fed.shards[0].TransferredConns() != 1 {
		t.Fatalf("surviving shard lost its connection: %d", rg.fed.shards[0].TransferredConns())
	}
	if n := rg.fed.ListenerCount(); n != 1 {
		t.Fatalf("%d listeners after the restart, want the one record", n)
	}
}

// A shard that dies holding a passive handshake gives back its listener's
// backlog slot: the listener counts no set-up once the shard is gone, and
// after the restart the host holds a full backlog of handshakes at once,
// with no SYN dropped. The far host connects; host 1 listens by one call.
func TestListenBacklogSurvivesShardCrash(t *testing.T) {
	const port, backlog = 7070, 2
	rg := newFedRig(t, 4, 0)
	done := false
	rg.apps[1].Spawn("listen", func(th *kern.Thread) {
		reply := rg.fed.shards[0].Svc.Call(th, kern.Msg{Op: "listen", Body: ListenReq{Port: port,
			Opts: stacks.Options{Backlog: backlog}, AcceptPort: kern.NewPort(rg.fed.host, "accept")}})
		if err, _ := reply.Body.(error); err != nil {
			t.Errorf("listen: %v", err)
		}
		done = true
	})
	rg.s.RunUntil(time.Second, func() bool { return done })
	// connect opens a connection from the far host on call slot id.
	returned, failed := 0, 0
	connect := func(id uint32) {
		rg.apps[0].Spawn("connect", func(th *kern.Thread) {
			ho := received(rg.r0.Svc.Call(th, kern.Msg{Op: "connect", ID: id, Slot: id,
				Body: ConnectReq{Remote: tcp.Endpoint{IP: rg.ips[1], Port: port}}}))
			if ho.Err != nil {
				failed++
			}
			returned++
		})
	}
	l := rg.fed.listeners[port]

	connect(1)
	rg.s.RunUntil(time.Second, func() bool { return rg.fed.OwnedConns() > 0 })
	held := -1
	for i, sh := range rg.fed.shards {
		if len(sh.conns) > 0 {
			held = i
		}
	}
	if held < 0 || l.pending != 1 {
		t.Fatalf("no shard holds the handshake (pending %d)", l.pending)
	}
	rg.fed.CrashShard(held)
	if l.pending != 0 {
		t.Fatalf("the listener counts %d set-ups after the crash of the shard that held them", l.pending)
	}
	rg.s.RunUntil(time.Minute, func() bool { return returned == 1 })
	rg.fed.RestartShard(held)
	rg.s.Run(50 * time.Millisecond)

	returned, failed = 0, 0
	most := 0
	for id := uint32(2); id < 2+backlog; id++ {
		connect(id)
	}
	rg.s.RunUntil(time.Minute, func() bool {
		most = max(most, l.pending)
		return returned == backlog
	})
	drops := 0
	for _, sh := range rg.fed.shards {
		drops += sh.synDrops
	}
	if returned != backlog || failed != 0 || drops != 0 || most != backlog || l.pending != 0 {
		t.Fatalf("after the restart: %d of %d connects returned, %d failed, %d SYNs dropped, up to %d held at once, %d still held",
			returned, backlog, failed, drops, most, l.pending)
	}
}

// Frames for a dead shard's tuples fail over to the successor, which must
// not answer one of a live connection with RST — a reset would kill a
// connection that is merely mid-migration. The module's endpoint table
// names the connection, so the stray goes into its channel. On the AN1 a
// frame sent to BQI zero takes the default path, where the registry decides.
func TestFederationDeadShardStrayForwardedNotReset(t *testing.T) {
	rg := newFedRigOn(t, true, 2, 0)
	rg.listenOn0(t, 80)
	ho, got := rg.connectVia(t, 1, tcp.Endpoint{IP: rg.ips[0], Port: 80}, 0, time.Minute)
	if !got || ho.Err != nil {
		t.Fatal("setup failed")
	}
	rg.fed.CrashShard(1)
	rg.s.Run(10 * time.Millisecond)

	// The peer retransmits into the dead shard's tuple. The frame steers to
	// the successor (shard 0), which does not own it: it must not RST.
	rx0 := counter(t, rg.r0.nif.Mod.Device().Describe, "rx_frames")
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
	// Host 0 received no RST (and no ARP: addresses are resolved).
	if counter(t, rg.r0.nif.Mod.Device().Describe, "rx_frames") != rx0 {
		t.Fatal("successor answered a dead shard's stray")
	}
	if ch := ho.Cap.Chan(); ch.Delivered != 1 {
		t.Fatalf("%d frames delivered into the connection's channel, want the stray", ch.Delivered)
	}
}

// Regression (stale-state bug #1): no other call retires an in-flight
// connect's entry. A FIFO cache once evicted the oldest entry past its bound
// unconditionally; a retry of a still-running connect then re-executed it —
// a second ephemeral port and a second handshake for one logical open. Here
// the connect is caller slot 0's, and another caller of the same domain
// (slot 1) completes many requests while it is stalled; then the connect's
// ID is retried on its own slot.
func TestDedupNeverEvictsInFlight(t *testing.T) {
	rg := newRig(false)
	// A connect to a host that answers no ARP: in flight for minutes.
	inFlightID := uint32(500)
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

	// Flood with 562 completed requests from slot 1 (idempotent unlistens of
	// a port nobody holds).
	flooded := false
	rg.apps[1].Spawn("flood", func(th *kern.Thread) {
		for i := 0; i < 562; i++ {
			rg.r1.Svc.Call(th, kern.Msg{Op: "unlisten", ID: uint32(10000 + i), Slot: 1,
				Body: UnlistenReq{Port: 9999}})
		}
		flooded = true
	})
	rg.s.RunUntil(time.Minute, func() bool { return flooded })
	if n := len(rg.r1.fed.calls); n != 2 {
		t.Fatalf("the registry holds %d callers' entries, want the two callers'", n)
	}

	// Retry the in-flight connect (a client whose reply timed out). The
	// entry must still be cached: the retry is dropped, its answer due on
	// the call's reply port, instead of running a second handshake.
	hits := rg.r1.dedupHits
	retried := false
	rg.apps[1].Spawn("retry", func(th *kern.Thread) {
		retried = true
		rg.r1.Svc.Call(th, kern.Msg{Op: "connect", ID: inFlightID,
			Body: ConnectReq{Remote: tcp.Endpoint{IP: ipv4.Addr{10, 0, 0, 9}, Port: 80}}})
	})
	rg.s.RunUntil(time.Second, func() bool { return retried })
	rg.s.Run(10 * time.Millisecond)
	if rg.r1.dedupHits != hits+1 {
		t.Fatalf("retry of in-flight connect was not a dedup hit (hits %d -> %d): entry was evicted",
			hits, rg.r1.dedupHits)
	}
	if rg.r1.OwnedConns() != 1 {
		t.Fatalf("retry re-executed the connect: %d handshake pcbs, want 1", rg.r1.OwnedConns())
	}
	if rg.r1.PortsInUse() != base {
		t.Fatalf("retry allocated a second port: %d -> %d", base, rg.r1.PortsInUse())
	}
}

// adoptVia1 sets up a connection through shard 1 of an AN1 rig and lets
// shard 1 die for longer than netio.IssuerGrace, so that shard 0, which
// covers it, adopts the connection.
func adoptVia1(t *testing.T) (*fedRig, Handoff) {
	t.Helper()
	rg := newFedRigOn(t, true, 2, 0)
	rg.listenOn0(t, 80)
	ho, got := rg.connectVia(t, 1, tcp.Endpoint{IP: rg.ips[0], Port: 80}, 1, time.Minute)
	if !got || ho.Err != nil {
		t.Fatalf("set-up: got=%v err=%v", got, ho.Err)
	}
	rg.fed.CrashShard(1)
	rg.s.Run(netio.IssuerGrace + 100*time.Millisecond)
	if sh0 := rg.fed.shards[0]; sh0.rebuilt != 1 || sh0.TransferredConns() != 1 || ho.Cap.Issuer() != sh0.dom {
		t.Fatalf("shard 0 adopted %d connections and holds %d; want the dead shard's 1", sh0.rebuilt, sh0.TransferredConns())
	}
	return rg, ho
}

// A segment of an adopted connection that reaches the default path — on the
// AN1, one sent to BQI zero — is forwarded into the library's channel: the
// module's endpoint table names it, though no shard issued it before.
func TestAdoptedConnectionStrayReachesChannel(t *testing.T) {
	rg, ho := adoptVia1(t)
	ch := ho.Cap.Chan()
	before := ch.Delivered
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
	if got := ch.Delivered - before; got != 1 || ch.Pending() != 1 {
		t.Fatalf("%d frames delivered into the adopted connection's channel, %d queued; want 1 and 1", got, ch.Pending())
	}
	ch.TryRecv()
}

// The dead shard comes back and takes its connection from the survivor
// that adopted it; once the connection is torn down, no shard holds a
// port. The survivor's adoption took no port of its own to give back.
func TestRestartAfterAdoptionLeavesNoPorts(t *testing.T) {
	rg, ho := adoptVia1(t)
	rg.fed.RestartShard(1)
	rg.s.Run(50 * time.Millisecond)
	if sh1 := rg.fed.shards[1]; sh1.rebuilt != 1 || ho.Cap.Issuer() != sh1.dom {
		t.Fatalf("the restarted shard took back %d connections, want 1", sh1.rebuilt)
	}
	rg.teardown(rg.fed.shards[1].Svc, rg.apps[1], ho)
	rg.s.Run(50 * time.Millisecond)
	for i, sh := range rg.fed.shards {
		if n := sh.PortsInUse(); n != 0 {
			t.Errorf("shard %d holds %d ports after the teardown, want 0", i, n)
		}
	}
	rg.auditNoLeaks(t)
}

// A datagram end-point bound through a survivor while shard 0 was down is
// taken back by shard 0's restart, which stands for every datagram
// end-point, and unbound through it: then no shard holds its port, and the
// survivor can bind it again.
func TestBindingTakenBackByRestartLeavesNoPort(t *testing.T) {
	rg := newFedRig(t, 2, 0)
	rg.fed.CrashShard(0)
	bind := func(shard int) (ho UDPHandoff) {
		rg.apps[1].Spawn("bind", func(th *kern.Thread) {
			ho, _ = rg.fed.shards[shard].Svc.Call(th, kern.Msg{Op: "bind-udp", Body: BindUDPReq{Port: 53}}).Body.(UDPHandoff)
		})
		rg.s.Run(50 * time.Millisecond)
		return ho
	}
	ho := bind(1)
	if ho.Err != nil || ho.Cap == nil {
		t.Fatalf("bind through the survivor: %v", ho.Err)
	}
	rg.fed.RestartShard(0)
	rg.s.Run(50 * time.Millisecond)
	rg.oneWay(0, kern.Msg{Op: "unbind-udp", Body: TeardownReq{Cap: ho.Cap}})
	for i, sh := range rg.fed.shards {
		if n := sh.PortsInUse(); n != 0 {
			t.Errorf("shard %d holds %d ports after the unbind, want 0", i, n)
		}
	}
	if again := bind(1); again.Err != nil {
		t.Fatalf("the survivor refused to bind the freed port again: %v", again.Err)
	}
}
