package registry

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

// rig is a two-host world with a registry on each host and raw access to
// the registry service ports (tests speak the library protocol directly).
type rig struct {
	s      *sim.Sim
	r0, r1 *Server
	ips    []ipv4.Addr
	apps   []*kern.Domain
}

func newRig(an1 bool) *rig {
	s := sim.New()
	var seg *wire.Segment
	if an1 {
		seg = wire.New(s, wire.AN1Config())
	} else {
		seg = wire.New(s, wire.EthernetConfig())
	}
	rg := &rig{s: s, ips: []ipv4.Addr{{10, 0, 0, 1}, {10, 0, 0, 2}}}
	mk := func(i int) *Server {
		h := kern.NewHost(s, []string{"h0", "h1"}[i], costs.Default())
		var dev netdev.Device
		if an1 {
			dev = netdev.NewAN1(h, seg, link.MakeAddr(i+1), 0)
		} else {
			dev = netdev.NewLance(h, seg, link.MakeAddr(i+1))
		}
		mod := netio.New(h, dev)
		rg.apps = append(rg.apps, h.NewDomain("app", false))
		return NewFederation(s, mod, rg.ips[i], 1).Shard(0)
	}
	rg.r0 = mk(0)
	rg.r1 = mk(1)
	return rg
}

// listenOn registers a listener on r0:port through the service protocol and
// returns the accept port.
func (rg *rig) listenOn(t *testing.T, port uint16) *kern.Port {
	t.Helper()
	accept := kern.NewPort(rg.r0.host, "accept")
	done := false
	var failure error
	rg.apps[0].Spawn("listen", func(th *kern.Thread) {
		reply := rg.r0.Svc.Call(th, kern.Msg{Op: "listen", Body: ListenReq{Port: port, AcceptPort: accept}})
		if err, _ := reply.Body.(error); err != nil {
			failure = err
		}
		done = true
	})
	rg.s.RunUntil(time.Second, func() bool { return done })
	if failure != nil {
		t.Fatalf("listen: %v", failure)
	}
	return accept
}

// connectFrom performs an active open from host 1 to host 0.
func (rg *rig) connectFrom(t *testing.T, port uint16, budget time.Duration) (Handoff, bool) {
	t.Helper()
	var ho Handoff
	got := false
	rg.apps[1].Spawn("connect", func(th *kern.Thread) {
		reply := rg.r1.Svc.Call(th, kern.Msg{
			Op:   "connect",
			Body: ConnectReq{Remote: tcp.Endpoint{IP: rg.ips[0], Port: port}},
		})
		ho, _ = reply.Body.(Handoff)
		got = true
	})
	rg.s.RunUntil(budget, func() bool { return got })
	return ho, got
}

func TestHandshakeAndHandoff(t *testing.T) {
	rg := newRig(false)
	accept := rg.listenOn(t, 80)
	ho, got := rg.connectFrom(t, 80, time.Minute)
	if !got || ho.Err != nil {
		t.Fatalf("connect: got=%v err=%v", got, ho.Err)
	}
	if ho.Snap.State != tcp.Established {
		t.Fatalf("handoff state = %v", ho.Snap.State)
	}
	if ho.Cap == nil || ho.Channel == nil {
		t.Fatal("handoff missing capability or channel")
	}
	if ho.PeerHW != link.MakeAddr(1) {
		t.Fatalf("peer hw = %v", ho.PeerHW)
	}
	// The passive side must hand off through the accept port.
	var srvHo Handoff
	gotSrv := false
	rg.apps[0].Spawn("accept", func(th *kern.Thread) {
		m := accept.Receive(th)
		srvHo = m.Body.(Handoff)
		gotSrv = true
	})
	rg.s.RunUntil(time.Minute, func() bool { return gotSrv })
	if !gotSrv || srvHo.Err != nil {
		t.Fatalf("server handoff: got=%v err=%v", gotSrv, srvHo.Err)
	}
	if srvHo.Snap.State != tcp.Established {
		t.Fatalf("server handoff state = %v", srvHo.Snap.State)
	}
	// Registries no longer own any pcbs.
	if rg.r0.owned.Len() != 0 || rg.r1.owned.Len() != 0 {
		t.Fatalf("registries still own pcbs: %d/%d", rg.r0.owned.Len(), rg.r1.owned.Len())
	}
}

func TestBQIExchangedThroughLinkHeader(t *testing.T) {
	rg := newRig(true)
	rg.listenOn(t, 80)
	ho, got := rg.connectFrom(t, 80, time.Minute)
	if !got || ho.Err != nil {
		t.Fatalf("connect: %v", ho.Err)
	}
	if ho.PeerBQI == 0 {
		t.Fatal("active side did not learn the peer's BQI from the SYN|ACK link header")
	}
	if ho.Channel.BQI() == 0 {
		t.Fatal("active side channel has no hardware ring")
	}
}

func TestListenPortConflict(t *testing.T) {
	rg := newRig(false)
	rg.listenOn(t, 80)
	var second error
	done := false
	rg.apps[0].Spawn("listen2", func(th *kern.Thread) {
		reply := rg.r0.Svc.Call(th, kern.Msg{Op: "listen", Body: ListenReq{Port: 80, AcceptPort: kern.NewPort(rg.r0.host, "a2")}})
		second, _ = reply.Body.(error)
		done = true
	})
	rg.s.RunUntil(time.Second, func() bool { return done })
	if second != stacks.ErrPortInUse {
		t.Fatalf("second listen: %v", second)
	}
}

func TestUnlistenReleases(t *testing.T) {
	rg := newRig(false)
	rg.listenOn(t, 80)
	done := false
	var relisten error
	rg.apps[0].Spawn("cycle", func(th *kern.Thread) {
		rg.r0.Svc.Call(th, kern.Msg{Op: "unlisten", Body: UnlistenReq{Port: 80}})
		reply := rg.r0.Svc.Call(th, kern.Msg{Op: "listen", Body: ListenReq{Port: 80, AcceptPort: kern.NewPort(rg.r0.host, "a")}})
		relisten, _ = reply.Body.(error)
		done = true
	})
	rg.s.RunUntil(time.Second, func() bool { return done })
	if relisten != nil {
		t.Fatalf("relisten after unlisten: %v", relisten)
	}
}

func TestConnectRefusedWithoutListener(t *testing.T) {
	rg := newRig(false)
	ho, got := rg.connectFrom(t, 4444, time.Minute)
	if !got {
		t.Fatal("connect never returned")
	}
	if ho.Err != stacks.ErrRefused {
		t.Fatalf("err = %v, want refused", ho.Err)
	}
	// The failed connection's resources are reclaimed.
	if rg.r1.owned.Len() != 0 {
		t.Fatal("failed pcb not reclaimed")
	}
}

func TestInheritAbortSendsRST(t *testing.T) {
	rg := newRig(false)
	rg.listenOn(t, 80)
	ho, got := rg.connectFrom(t, 80, time.Minute)
	if !got || ho.Err != nil {
		t.Fatal("setup failed")
	}
	// The "application" dies abnormally: return the connection for abort.
	done := false
	rg.apps[1].Spawn("exit", func(th *kern.Thread) {
		rg.r1.Svc.Send(th, kern.Msg{Op: "inherit", Body: InheritReq{
			Snap: ho.Snap, Cap: ho.Cap, Abort: true, PeerHW: ho.PeerHW, PeerBQI: ho.PeerBQI,
		}})
		done = true
	})
	rg.s.RunUntil(time.Minute, func() bool { return done })
	rg.s.Run(100 * time.Millisecond)
	// The peer registry owns the passive pcb? No — it was handed off. The
	// RST lands at the server app's connection if adopted; here nobody
	// adopted it, so it reaches the channel. What we can check centrally:
	// the aborting registry reclaimed everything.
	if rg.r1.owned.Len() != 0 {
		t.Fatalf("aborted pcb retained: %d", rg.r1.owned.Len())
	}
}

func TestInheritOrderlyDrivesTimeWait(t *testing.T) {
	rg := newRig(false)
	rg.listenOn(t, 80)
	ho, got := rg.connectFrom(t, 80, time.Minute)
	if !got || ho.Err != nil {
		t.Fatal("setup failed")
	}
	done := false
	rg.apps[1].Spawn("exit", func(th *kern.Thread) {
		rg.r1.Svc.Send(th, kern.Msg{Op: "inherit", Body: InheritReq{
			Snap: ho.Snap, Cap: ho.Cap, PeerHW: ho.PeerHW, PeerBQI: ho.PeerBQI,
		}})
		done = true
	})
	rg.s.RunUntil(time.Minute, func() bool { return done })
	rg.s.Run(200 * time.Millisecond)
	// The registry now owns the closing pcb and drives its FIN exchange;
	// the far side never adopted its handoff, so the close cannot complete,
	// but the registry must be retrying (owning the pcb) rather than
	// dropping it.
	if rg.r1.owned.Len() != 1 {
		t.Fatalf("registry owns %d pcbs, want 1 (inherited)", rg.r1.owned.Len())
	}
}

func TestTeardownReclaims(t *testing.T) {
	rg := newRig(false)
	rg.listenOn(t, 80)
	ho, got := rg.connectFrom(t, 80, time.Minute)
	if !got || ho.Err != nil {
		t.Fatal("setup failed")
	}
	done := false
	rg.apps[1].Spawn("teardown", func(th *kern.Thread) {
		rg.r1.Svc.Send(th, kern.Msg{Op: "teardown", Body: TeardownReq{
			Local: ho.Snap.Local, Peer: ho.Snap.Peer, Cap: ho.Cap,
		}})
		done = true
	})
	rg.s.RunUntil(time.Second, func() bool { return done })
	rg.s.Run(50 * time.Millisecond)
	if len(rg.r1.transferred) != 0 {
		t.Fatal("transferred entry not reclaimed")
	}
	// The port is reusable.
	if !rg.r1.ports.Reserve(ho.Snap.Local.Port) {
		t.Fatal("port not released by teardown")
	}
}

func TestStraySegmentAnsweredWithRST(t *testing.T) {
	rg := newRig(false)
	// Host 1 fires a data segment at a nonexistent endpoint on host 0; the
	// registry must answer with RST (observable at host 1's default path as
	// an inbound TCP segment).
	sent := false
	rg.apps[1].Host.NewDomain("k", true).Spawn("tx", func(th *kern.Thread) {
		seg := tcp.Header{SrcPort: 999, DstPort: 4000, Seq: 5, Flags: tcp.FlagACK, Window: 100}
		b := newSegBuf(rg.r1.nif.Headroom(), nil)
		seg.Encode(b, rg.ips[1], rg.ips[0])
		rg.r1.nif.SendTCP(th, b, rg.ips[0], 0)
		sent = true
	})
	rg.s.RunUntil(time.Second, func() bool { return sent })
	rg.s.Run(100 * time.Millisecond)
	// Host 0 transmitted an RST: observable through its device counters
	// (ARP req/reply + RST >= 2 tx frames from host 0).
	stats := rg.r0.nif.Mod.Device().Stats()
	if stats.TxFrames < 2 {
		t.Fatalf("host 0 sent %d frames; expected ARP reply + RST", stats.TxFrames)
	}
}

// newSegBuf mirrors the tcp package's internal helper for tests.
func newSegBuf(headroom int, data []byte) *pktBuf {
	return pktFromBytes(headroom+tcp.HeaderLen, data)
}

// pktBuf/pktFromBytes keep the test terse.
type pktBuf = pkt.Buf

func pktFromBytes(headroom int, b []byte) *pktBuf { return pkt.FromBytes(headroom, b) }
