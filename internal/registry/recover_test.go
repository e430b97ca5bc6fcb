package registry

// Crash-recovery tests for the registry itself: restart with state rebuild
// from the network I/O module, request-ID deduplication, idempotent
// teardown and bounded listen backlogs.

import (
	"testing"
	"time"
	"ulp/internal/ctl"

	"ulp/internal/ipv4"
	"ulp/internal/kern"
	"ulp/internal/link"
	"ulp/internal/pkt"
	"ulp/internal/stacks"
	"ulp/internal/tcp"
)

// restart crashes a lone registry and returns the fresh incarnation booted
// over the same module.
func restart(r *Server) *Server {
	r.fed.CrashShard(0)
	r.fed.RestartShard(0)
	return r.fed.shards[0]
}

// restartR1 crashes host 1's registry and boots a fresh incarnation over
// the same module, running the sim long enough for the rebuild to finish.
// The settle step first lets in-flight handshake frames (the final ACK the
// crash would otherwise strand) reach both sides.
func (rg *rig) restartR1() {
	rg.s.Run(100 * time.Millisecond)
	rg.r1 = restart(rg.r1)
	rg.s.Run(50 * time.Millisecond)
}

// A restarted registry reconstructs its port table and connection map from
// the module's installed header templates — the kernel, not the crashed
// server's memory, is the ground truth. Listeners are deliberately lost:
// the library's RPC retry re-creates them.
func TestRestartRebuildsFromModule(t *testing.T) {
	rg := newRig(false)
	rg.listenOn(t, 80)
	ho, got := rg.connectFrom(t, 80, time.Minute)
	if !got || ho.Err != nil {
		t.Fatalf("setup: got=%v err=%v", got, ho.Err)
	}

	rg.restartR1()
	if rg.r1.epoch != 2 {
		t.Fatalf("epoch = %d, want 2", rg.r1.epoch)
	}
	if rg.r1.rebuilt != 1 {
		t.Fatalf("rebuilt %d endpoints, want 1 (the transferred connection)", rg.r1.rebuilt)
	}
	if rg.r1.TransferredConns() != 1 {
		t.Fatalf("restarted registry holds %d transferred conns, want 1", rg.r1.TransferredConns())
	}
	// The connection's local port stays held by its endpoint — a
	// post-restart allocation cannot collide with the live connection.
	if rg.r1.ports.Reserve(ho.Snap.Local.Port) {
		t.Fatal("the restarted registry let the transferred connection's port go")
	}

	// The passive host: its transferred connection is rebuilt too, but the
	// listener is not — the host's listener table goes with its last live
	// shard, and a lone registry is that shard.
	rg.r0 = restart(rg.r0)
	rg.s.Run(50 * time.Millisecond)
	if rg.r0.TransferredConns() != 1 {
		t.Fatalf("passive side rebuilt %d transferred conns, want 1", rg.r0.TransferredConns())
	}
	if rg.r0.fed.ListenerCount() != 0 {
		t.Fatal("listener survived the restart; it must be deliberately lost")
	}
}

// A retried request with the same ID replays the cached reply instead of
// executing twice: the retried listen must NOT see ErrPortInUse from its
// own first attempt.
func TestDedupReplaysCachedReply(t *testing.T) {
	rg := newRig(false)
	accept := kern.NewPort(rg.r0.host, "accept")
	listen := func(id uint32) error {
		var err error
		done := false
		rg.apps[0].Spawn("listen", func(th *kern.Thread) {
			reply := rg.r0.Svc.Call(th, kern.Msg{Op: "listen", ID: id,
				Body: ctl.ListenReq{Port: 80, AcceptPort: accept}})
			err, _ = reply.Body.(error)
			done = true
		})
		rg.s.RunUntil(time.Second, func() bool { return done })
		return err
	}
	if err := listen(77); err != nil {
		t.Fatalf("first listen: %v", err)
	}
	// Same ID: a retry after a lost reply. Must succeed from the cache.
	if err := listen(77); err != nil {
		t.Fatalf("retried listen re-executed and failed: %v", err)
	}
	if rg.r0.dedupHits != 1 {
		t.Fatalf("dedup hits = %d, want 1", rg.r0.dedupHits)
	}
	if rg.r0.fed.ListenerCount() != 1 {
		t.Fatalf("%d listeners after retry, want 1", rg.r0.fed.ListenerCount())
	}
	// A genuinely new request still executes (and correctly fails).
	if err := listen(78); err != stacks.ErrPortInUse {
		t.Fatalf("fresh duplicate listen = %v, want ErrPortInUse", err)
	}
}

// A duplicated teardown must not double-release the connection's port: only
// the first destruction of its endpoint succeeds, so a duplicate cannot free
// a port a new holder owns.
func TestTeardownIdempotent(t *testing.T) {
	rg := newRig(false)
	rg.listenOn(t, 80)
	ho, got := rg.connectFrom(t, 80, time.Minute)
	if !got || ho.Err != nil {
		t.Fatal("setup failed")
	}
	teardown := func() {
		done := false
		rg.apps[1].Spawn("td", func(th *kern.Thread) {
			rg.r1.Svc.Send(th, kern.Msg{Op: "teardown", Body: ctl.TeardownReq{Cap: ho.Cap}})
			done = true
		})
		rg.s.RunUntil(time.Second, func() bool { return done })
		rg.s.Run(50 * time.Millisecond)
	}
	teardown()
	// The port is free; a new holder takes it.
	if !rg.r1.ports.Reserve(ho.Snap.Local.Port) {
		t.Fatal("teardown did not release the port")
	}
	// The duplicate teardown (retry, or a race with a crash sweep) must
	// leave the new holder's reservation intact.
	teardown()
	if rg.r1.ports.Reserve(ho.Snap.Local.Port) {
		t.Fatal("duplicate teardown released a port it no longer owned")
	}
}

// A SYN burst beyond the listener's backlog is dropped deterministically:
// the accepted handshakes are bounded and the excess is counted, so a SYN
// flood cannot grow registry state without bound.
func TestSynFloodBoundedByBacklog(t *testing.T) {
	rg := newRig(false)
	accept := kern.NewPort(rg.r0.host, "accept")
	done := false
	rg.apps[0].Spawn("listen", func(th *kern.Thread) {
		rg.call(th, rg.r0.Svc, kern.Msg{Op: "listen",
			Body: ctl.ListenReq{Port: 80, Opts: stacks.Options{Backlog: 4}, AcceptPort: accept}})
		done = true
	})
	rg.s.RunUntil(time.Second, func() bool { return done })

	// 12 SYNs from an unresolvable source (no host answers 10.0.0.9's ARP),
	// pushed back-to-back into the registry's default receive path: the
	// handshakes can never complete, so the backlog stays saturated.
	src := ipv4.Addr{10, 0, 0, 9}
	pushed := false
	rg.r0.host.NewDomain("flood", true).Spawn("push", func(th *kern.Thread) {
		for i := 0; i < 12; i++ {
			hdr := tcp.Header{SrcPort: uint16(2000 + i), DstPort: 80,
				Seq: tcp.Seq(1000 * uint32(i)), Flags: tcp.FlagSYN, Window: 4096}
			b := pkt.FromBytes(link.EthHeaderLen+ipv4.HeaderLen+tcp.HeaderLen, nil)
			hdr.Encode(b, src, rg.ips[0])
			ih := ipv4.Header{TTL: 64, Proto: ipv4.ProtoTCP, Src: src, Dst: rg.ips[0]}
			ih.Encode(b)
			lh := link.EthHeader{Dst: link.MakeAddr(1), Src: link.MakeAddr(9), Type: link.TypeIPv4}
			lh.Encode(b)
			rg.r0.rxq.Push(b)
		}
		pushed = true
	})
	rg.s.RunUntil(time.Second, func() bool { return pushed })
	rg.s.Run(100 * time.Millisecond)

	if got := rg.r0.synDrops; got != 8 {
		t.Fatalf("dropped %d SYNs, want 8 (12 sent, backlog 4)", got)
	}
	if got := rg.r0.OwnedConns(); got != 4 {
		t.Fatalf("registry owns %d handshake pcbs, want exactly the backlog (4)", got)
	}
}

// Orphaned TIME_WAIT: an inherited closing pcb dies with the registry and
// is deliberately not rebuilt (its channel was already destroyed, so no
// kernel template exists). A stray from the peer at the orphaned tuple
// must draw a reset from the no-endpoint path.
func TestOrphanedTimeWaitStrayGetsRST(t *testing.T) {
	rg := newRig(false)
	accept := rg.listenOn(t, 80)
	ho, got := rg.connectFrom(t, 80, time.Minute)
	if !got || ho.Err != nil {
		t.Fatal("setup failed")
	}
	// Drain the passive handoff so we can watch host 0's data channel.
	var srvHo ctl.Handoff
	gotSrv := false
	rg.apps[0].Spawn("accept", func(th *kern.Thread) {
		m := accept.Receive(th)
		srvHo = received(m)
		gotSrv = true
	})
	rg.s.RunUntil(time.Minute, func() bool { return gotSrv })

	// The application exits cleanly; the registry inherits the close.
	done := false
	rg.apps[1].Spawn("exit", func(th *kern.Thread) {
		rg.r1.Svc.Send(th, kern.Msg{Op: "inherit", Body: ctl.InheritReq{Snap: ho.Snap, Cap: ho.Cap}})
		done = true
	})
	rg.s.RunUntil(time.Second, func() bool { return done })
	rg.s.Run(100 * time.Millisecond)
	if rg.r1.OwnedConns() != 1 {
		t.Fatalf("registry owns %d pcbs before crash, want 1 (inherited)", rg.r1.OwnedConns())
	}

	// Crash mid-close. The reborn registry has nothing to rebuild: inherit
	// destroyed the channel, so the kernel holds no template for the tuple.
	rg.restartR1()
	if rg.r1.OwnedConns() != 0 || rg.r1.rebuilt != 0 {
		t.Fatalf("owned=%d rebuilt=%d after restart, want 0/0 (TIME_WAIT deliberately lost)",
			rg.r1.OwnedConns(), rg.r1.rebuilt)
	}

	// The peer retransmits into the orphaned tuple; host 1's no-endpoint
	// path must answer with RST, observable as a new frame arriving on host
	// 0's channel for the connection (nothing else transmits any more).
	ch := srvHo.Cap.Chan()
	base := ch.Pending()
	sent := false
	rg.r0.host.NewDomain("k", true).Spawn("tx", func(th *kern.Thread) {
		hdr := tcp.Header{SrcPort: 80, DstPort: ho.Snap.Local.Port,
			Seq: ho.Snap.RcvNxt, Ack: ho.Snap.SndNxt, Flags: tcp.FlagACK, Window: 100}
		b := pkt.FromBytes(rg.r0.nif.Headroom()+tcp.HeaderLen, nil)
		hdr.Encode(b, rg.ips[0], rg.ips[1])
		rg.r0.nif.SendTCP(th, b, rg.ips[1], 0)
		sent = true
	})
	rg.s.RunUntil(time.Second, func() bool { return sent })
	rg.s.Run(100 * time.Millisecond)
	if ch.Pending() <= base {
		t.Fatal("no RST came back for the orphaned TIME_WAIT tuple")
	}
	for _, b := range ch.TryRecv() {
		b.Release()
	}
}
