package registry

// Crash-recovery tests for the registry itself: restart with state rebuild
// from the network I/O module, verified re-registration, request-ID
// deduplication, idempotent teardown, bounded listen backlogs, and the
// leak audit of the connect path's error branches.

import (
	"errors"
	"testing"
	"time"

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
	return r.fed.Shard(0)
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
	if rg.r1.Epoch() != 2 {
		t.Fatalf("epoch = %d, want 2", rg.r1.Epoch())
	}
	if rg.r1.RebuiltEndpoints() != 1 {
		t.Fatalf("rebuilt %d endpoints, want 1 (the transferred connection)", rg.r1.RebuiltEndpoints())
	}
	if rg.r1.TransferredConns() != 1 {
		t.Fatalf("transferred map has %d entries after rebuild, want 1", rg.r1.TransferredConns())
	}
	// The connection's local port is reserved again — a post-restart
	// allocation cannot collide with the live connection.
	if rg.r1.ports.Reserve(ho.Snap.Local.Port) {
		t.Fatal("rebuild did not re-reserve the transferred connection's port")
	}

	// The passive host: its transferred connection is rebuilt too, but the
	// listener is not — listeners have no kernel-side template to rebuild
	// from, by design.
	rg.r0 = restart(rg.r0)
	rg.s.Run(50 * time.Millisecond)
	if rg.r0.TransferredConns() != 1 {
		t.Fatalf("passive side rebuilt %d transferred conns, want 1", rg.r0.TransferredConns())
	}
	if rg.r0.ListenerCount() != 0 {
		t.Fatal("listener survived the restart; it must be deliberately lost")
	}
}

// Re-registration claims are verified against the module: the capability
// must be installed and its template must name exactly the claimed
// four-tuple. A library cannot talk its way into someone else's port.
func TestReRegisterVerifiedAgainstModule(t *testing.T) {
	rg := newRig(false)
	rg.listenOn(t, 80)
	ho, got := rg.connectFrom(t, 80, time.Minute)
	if !got || ho.Err != nil {
		t.Fatal("setup failed")
	}
	rg.restartR1()

	call := func(req ReRegisterReq) error {
		var err error
		done := false
		rg.apps[1].Spawn("rereg", func(th *kern.Thread) {
			reply := rg.r1.Svc.Call(th, kern.Msg{Op: "reregister", Body: req})
			err, _ = reply.Body.(error)
			done = true
		})
		rg.s.RunUntil(time.Second, func() bool { return done })
		return err
	}

	// A forged claim without a capability is refused.
	if err := call(ReRegisterReq{Local: ho.Snap.Local, Peer: ho.Snap.Peer}); err == nil {
		t.Fatal("reregister without a capability accepted")
	}
	// A real capability claimed for the wrong four-tuple is refused.
	wrong := ho.Snap.Peer
	wrong.Port++
	if err := call(ReRegisterReq{Local: ho.Snap.Local, Peer: wrong, Cap: ho.Cap}); err == nil {
		t.Fatal("reregister with mismatched tuple accepted")
	}
	// The honest claim is adopted and brings the sequence numbers with it.
	err := call(ReRegisterReq{
		Local: ho.Snap.Local, Peer: ho.Snap.Peer, Cap: ho.Cap,
		PeerHW: ho.PeerHW, PeerBQI: ho.PeerBQI,
		SndNxt: ho.Snap.SndNxt, RcvNxt: ho.Snap.RcvNxt,
	})
	if err != nil {
		t.Fatalf("honest reregister refused: %v", err)
	}
	if rg.r1.ReRegistered() != 1 {
		t.Fatalf("reregistered = %d, want 1", rg.r1.ReRegistered())
	}
	xc := rg.r1.transferred[tcp.FourTuple{Local: ho.Snap.Local, Peer: ho.Snap.Peer}]
	if xc == nil || xc.sndNxt != ho.Snap.SndNxt {
		t.Fatal("re-registration did not refresh the recorded sequence numbers")
	}
}

// A retried request with the same ID replays the cached reply instead of
// executing twice: the retried listen must NOT see ErrPortInUse from its
// own first attempt.
func TestDedupReplaysCachedReply(t *testing.T) {
	rg := newRig(false)
	accept := kern.NewPort(rg.r0.host, "accept")
	listen := func(id uint64) error {
		var err error
		done := false
		rg.apps[0].Spawn("listen", func(th *kern.Thread) {
			reply := rg.r0.Svc.Call(th, kern.Msg{Op: "listen", ID: id,
				Body: ListenReq{Port: 80, AcceptPort: accept}})
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
	if rg.r0.DedupHits() != 1 {
		t.Fatalf("dedup hits = %d, want 1", rg.r0.DedupHits())
	}
	if rg.r0.ListenerCount() != 1 {
		t.Fatalf("%d listeners after retry, want 1", rg.r0.ListenerCount())
	}
	// A genuinely new request still executes (and correctly fails).
	if err := listen(78); err != stacks.ErrPortInUse {
		t.Fatalf("fresh duplicate listen = %v, want ErrPortInUse", err)
	}
}

// A duplicated teardown must not double-release the connection's port: the
// release happens only if the transferred entry still existed, so a
// duplicate cannot free a port a new holder owns.
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
			rg.r1.Svc.Send(th, kern.Msg{Op: "teardown", Body: TeardownReq{
				Local: ho.Snap.Local, Peer: ho.Snap.Peer, Cap: ho.Cap,
			}})
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
		rg.r0.Svc.Call(th, kern.Msg{Op: "listen",
			Body: ListenReq{Port: 80, Opts: stacks.Options{Backlog: 4}, AcceptPort: accept}})
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

	if got := rg.r0.SynDrops(); got != 8 {
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
	var srvHo Handoff
	gotSrv := false
	rg.apps[0].Spawn("accept", func(th *kern.Thread) {
		m := accept.Receive(th)
		srvHo = m.Body.(Handoff)
		gotSrv = true
	})
	rg.s.RunUntil(time.Minute, func() bool { return gotSrv })

	// The application exits cleanly; the registry inherits the close.
	done := false
	rg.apps[1].Spawn("exit", func(th *kern.Thread) {
		rg.r1.Svc.Send(th, kern.Msg{Op: "inherit", Body: InheritReq{
			Snap: ho.Snap, Cap: ho.Cap, PeerHW: ho.PeerHW, PeerBQI: ho.PeerBQI,
		}})
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
	if rg.r1.OwnedConns() != 0 || rg.r1.RebuiltEndpoints() != 0 {
		t.Fatalf("owned=%d rebuilt=%d after restart, want 0/0 (TIME_WAIT deliberately lost)",
			rg.r1.OwnedConns(), rg.r1.RebuiltEndpoints())
	}

	// The peer retransmits into the orphaned tuple; host 1's no-endpoint
	// path must answer with RST, observable as a new frame arriving on host
	// 0's channel for the connection (nothing else transmits any more).
	base := srvHo.Channel.Pending()
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
	if srvHo.Channel.Pending() <= base {
		t.Fatal("no RST came back for the orphaned TIME_WAIT tuple")
	}
	for _, b := range srvHo.Channel.TryRecv() {
		b.Release()
	}
}

// Leak audit, AN1 connect path: a BQI reservation failure must release the
// ephemeral port and leave no pcb behind.
func TestConnectBQIFailureLeaksNothing(t *testing.T) {
	rg := newRig(true)
	rg.listenOn(t, 80)
	rg.r1.nif.Mod.FailSetup = func(op string) error {
		if op == "bqi" {
			return errors.New("induced: BQI exhausted")
		}
		return nil
	}
	base := rg.r1.PortsInUse()
	ho, got := rg.connectFrom(t, 80, time.Minute)
	if !got || ho.Err == nil {
		t.Fatalf("connect should fail: got=%v err=%v", got, ho.Err)
	}
	if rg.r1.PortsInUse() != base {
		t.Fatalf("ports in use %d != baseline %d after failed connect", rg.r1.PortsInUse(), base)
	}
	if rg.r1.OwnedConns() != 0 {
		t.Fatalf("%d pcbs leaked by the failed connect", rg.r1.OwnedConns())
	}
}

// Leak audit, Ethernet connect path: a channel-creation failure at
// establishment time (abortSetup) must unwind the port, the pcb-table
// entry, and still answer the client.
func TestConnectChannelFailureLeaksNothing(t *testing.T) {
	rg := newRig(false)
	rg.listenOn(t, 80)
	rg.r1.nif.Mod.FailSetup = func(op string) error {
		if op == "create" {
			return errors.New("induced: channel setup failed")
		}
		return nil
	}
	base := rg.r1.PortsInUse()
	ho, got := rg.connectFrom(t, 80, time.Minute)
	if !got {
		t.Fatal("failed setup never answered the client")
	}
	if ho.Err == nil {
		t.Fatal("connect should surface the channel failure")
	}
	rg.s.Run(100 * time.Millisecond)
	if rg.r1.PortsInUse() != base {
		t.Fatalf("ports in use %d != baseline %d after aborted setup", rg.r1.PortsInUse(), base)
	}
	if rg.r1.OwnedConns() != 0 || rg.r1.TransferredConns() != 0 {
		t.Fatalf("aborted setup left owned=%d transferred=%d",
			rg.r1.OwnedConns(), rg.r1.TransferredConns())
	}
}
