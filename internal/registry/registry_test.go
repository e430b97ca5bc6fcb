package registry

import (
	"testing"
	"time"
	"ulp/internal/ctl"

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
	calls
}

// calls stamps a rig's requests as a library stamps its calls: each gets an
// id no earlier one had and a slot no call still in flight holds. It takes
// slots from the top down, clear of the low slots tests name themselves.
type calls struct {
	last uint32
	busy [ctl.CallSlots]bool
}

// stamp makes m a fresh call, which holds its slot until free gives it back.
func (c *calls) stamp(m kern.Msg) kern.Msg {
	c.last++
	slot := ctl.CallSlots - 1
	for c.busy[slot] {
		slot--
	}
	c.busy[slot] = true
	m.ID, m.Slot = c.last, uint32(slot)
	return m
}

func (c *calls) free(slot uint32) { c.busy[slot] = false }

// call sends m to svc from th as a fresh call and returns its answer.
func (c *calls) call(th *kern.Thread, svc *kern.Port, m kern.Msg) kern.Msg {
	m = c.stamp(m)
	defer c.free(m.Slot)
	return svc.Call(th, m)
}

// received copies the hand-off m carries, if it carries one, and gives the
// record back, as a library does once it has read it.
func received(m kern.Msg) ctl.Handoff {
	p, ok := m.Body.(*ctl.Handoff)
	if !ok {
		return ctl.Handoff{}
	}
	ho := *p
	p.Done()
	return ho
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
		return NewFederation(s, mod, rg.ips[i], 1).shards[0]
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
		reply := rg.call(th, rg.r0.Svc, kern.Msg{Op: "listen", Body: ctl.ListenReq{Port: port, AcceptPort: accept}})
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
func (rg *rig) connectFrom(t *testing.T, port uint16, budget time.Duration) (ctl.Handoff, bool) {
	t.Helper()
	var ho ctl.Handoff
	got := false
	rg.apps[1].Spawn("connect", func(th *kern.Thread) {
		reply := rg.call(th, rg.r1.Svc, kern.Msg{
			Op:   "connect",
			Body: ctl.ConnectReq{Remote: tcp.Endpoint{IP: rg.ips[0], Port: port}},
		})
		ho = received(reply)
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
	if ho.Cap == nil || ho.Cap.Chan() == nil {
		t.Fatal("handoff missing capability or channel")
	}
	if hw := ho.Cap.Template().LinkDst; hw != link.MakeAddr(1) {
		t.Fatalf("peer hw = %v", hw)
	}
	// The passive side must hand off through the accept port.
	var srvHo ctl.Handoff
	gotSrv := false
	rg.apps[0].Spawn("accept", func(th *kern.Thread) {
		m := accept.Receive(th)
		srvHo = received(m)
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
	if rg.r0.OwnedConns() != 0 || rg.r1.OwnedConns() != 0 {
		t.Fatalf("registries still own pcbs: %d/%d", rg.r0.OwnedConns(), rg.r1.OwnedConns())
	}
}

// A handed-off capability is born final, in the one module call that
// creates it: its template names the peer's link address and the whole
// four-tuple, and it is issued to the connecting application. The registry's
// record of the connection is that capability.
func TestHandoffCapabilityBornFinal(t *testing.T) {
	rg := newRig(false)
	rg.listenOn(t, 80)
	var ho ctl.Handoff
	got := false
	rg.apps[1].Spawn("connect", func(th *kern.Thread) {
		ho = received(rg.call(th, rg.r1.Svc, kern.Msg{Op: "connect",
			Body: ctl.ConnectReq{Remote: tcp.Endpoint{IP: rg.ips[0], Port: 80}}}))
		got = true
	})
	rg.s.RunUntil(time.Minute, func() bool { return got })
	if !got || ho.Err != nil {
		t.Fatalf("connect: got=%v err=%v", got, ho.Err)
	}
	want := netio.Template{
		LinkSrc: link.MakeAddr(2), LinkDst: link.MakeAddr(1), Type: link.TypeIPv4,
		Proto:   ipv4.ProtoTCP,
		LocalIP: rg.ips[1], LocalPort: ho.Snap.Local.Port,
		RemoteIP: rg.ips[0], RemotePort: 80,
	}
	if tmpl := ho.Cap.Template(); tmpl != want {
		t.Fatalf("handed-off template = %+v, want %+v", tmpl, want)
	}
	if ho.Cap.Owner() != rg.apps[1] {
		t.Fatalf("capability owner = %v, want the connecting application", ho.Cap.Owner())
	}
	if rg.r1.nif.Mod.Endpoint(want) != ho.Cap || rg.r1.TransferredConns() != 1 {
		t.Fatal("the module does not hold the handed-off endpoint as the shard's")
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
	if ho.Cap.Chan().BQI() == 0 {
		t.Fatal("active side channel has no hardware ring")
	}
}

func TestListenPortConflict(t *testing.T) {
	rg := newRig(false)
	rg.listenOn(t, 80)
	var second error
	done := false
	rg.apps[0].Spawn("listen2", func(th *kern.Thread) {
		reply := rg.call(th, rg.r0.Svc, kern.Msg{Op: "listen", Body: ctl.ListenReq{Port: 80, AcceptPort: kern.NewPort(rg.r0.host, "a2")}})
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
		rg.call(th, rg.r0.Svc, kern.Msg{Op: "unlisten", Body: ctl.UnlistenReq{Port: 80}})
		reply := rg.call(th, rg.r0.Svc, kern.Msg{Op: "listen", Body: ctl.ListenReq{Port: 80, AcceptPort: kern.NewPort(rg.r0.host, "a")}})
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
	if rg.r1.OwnedConns() != 0 {
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
		rg.r1.Svc.Send(th, kern.Msg{Op: "inherit", Body: ctl.InheritReq{Snap: ho.Snap, Cap: ho.Cap, Abort: true}})
		done = true
	})
	rg.s.RunUntil(time.Minute, func() bool { return done })
	rg.s.Run(100 * time.Millisecond)
	// The peer registry owns the passive pcb? No — it was handed off. The
	// RST lands at the server app's connection if adopted; here nobody
	// adopted it, so it reaches the channel. What we can check centrally:
	// the aborting registry reclaimed everything.
	if rg.r1.OwnedConns() != 0 {
		t.Fatalf("aborted pcb retained: %d", rg.r1.OwnedConns())
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
		rg.r1.Svc.Send(th, kern.Msg{Op: "inherit", Body: ctl.InheritReq{Snap: ho.Snap, Cap: ho.Cap}})
		done = true
	})
	rg.s.RunUntil(time.Minute, func() bool { return done })
	rg.s.Run(200 * time.Millisecond)
	// The registry now owns the closing pcb and drives its FIN exchange;
	// the far side never adopted its handoff, so the close cannot complete,
	// but the registry must be retrying (owning the pcb) rather than
	// dropping it.
	if rg.r1.OwnedConns() != 1 {
		t.Fatalf("registry owns %d pcbs, want 1 (inherited)", rg.r1.OwnedConns())
	}
}

// An untrusted library may hand the same connection back twice. The registry
// shepherds it once; the second inherit must
// leave nothing behind, so once the first has closed no pcb, armed wheel
// timer or port remains.
func TestInheritTwiceLeaksNothing(t *testing.T) {
	rg := newRig(false)
	rg.listenOn(t, 80)
	ho, got := rg.connectFrom(t, 80, time.Minute)
	if !got || ho.Err != nil {
		t.Fatal("setup failed")
	}
	done := false
	rg.apps[1].Spawn("exit", func(th *kern.Thread) {
		for range 2 {
			rg.r1.Svc.Send(th, kern.Msg{Op: "inherit", Body: ctl.InheritReq{Snap: ho.Snap, Cap: ho.Cap}})
		}
		done = true
	})
	rg.s.RunUntil(time.Minute, func() bool { return done })
	rg.s.Run(200 * time.Millisecond)
	if len(rg.r1.conns) != 1 {
		t.Fatalf("registry holds %d pcbs while it closes the inherited connection, want 1", len(rg.r1.conns))
	}
	rg.s.Run(30 * time.Minute)
	if len(rg.r1.conns) != 0 || rg.r1.wheel.Armed() != 0 || rg.r1.ports.InUse() != 0 {
		t.Fatalf("registry left %d pcbs, %d armed wheel timers, %d ports",
			len(rg.r1.conns), rg.r1.wheel.Armed(), rg.r1.ports.InUse())
	}
}

// A connection handed back already closed has nothing left to shepherd:
// its channel and port are reclaimed at once and no pcb is registered.
func TestInheritClosedLeaksNothing(t *testing.T) {
	rg := newRig(false)
	rg.listenOn(t, 80)
	ho, got := rg.connectFrom(t, 80, time.Minute)
	if !got || ho.Err != nil {
		t.Fatal("setup failed")
	}
	snap := ho.Snap
	snap.State = tcp.Closed
	done := false
	rg.apps[1].Spawn("exit", func(th *kern.Thread) {
		rg.r1.Svc.Send(th, kern.Msg{Op: "inherit", Body: ctl.InheritReq{Snap: snap, Cap: ho.Cap}})
		done = true
	})
	rg.s.RunUntil(time.Minute, func() bool { return done })
	rg.s.Run(100 * time.Millisecond)
	if len(rg.r1.conns) != 0 || rg.r1.TransferredConns() != 0 || rg.r1.PortsInUse() != 0 {
		t.Fatalf("registry left %d pcbs, %d transferred connections, %d ports",
			len(rg.r1.conns), rg.r1.TransferredConns(), rg.r1.PortsInUse())
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
		rg.r1.Svc.Send(th, kern.Msg{Op: "teardown", Body: ctl.TeardownReq{Cap: ho.Cap}})
		done = true
	})
	rg.s.RunUntil(time.Second, func() bool { return done })
	rg.s.Run(50 * time.Millisecond)
	if rg.r1.TransferredConns() != 0 {
		t.Fatal("handed-off endpoint not reclaimed")
	}
	// The port is reusable.
	if !rg.r1.ports.Reserve(ho.Snap.Local.Port) {
		t.Fatal("port not released by teardown")
	}
}

// twoConns opens two connections from host 1 to host 0's port 80: the one a
// request will name, and another it must leave alone.
func (rg *rig) twoConns(t *testing.T) (sender, other ctl.Handoff) {
	t.Helper()
	rg.listenOn(t, 80)
	for _, ho := range []*ctl.Handoff{&sender, &other} {
		got := false
		if *ho, got = rg.connectFrom(t, 80, time.Minute); !got || ho.Err != nil {
			t.Fatalf("set-up: got=%v err=%v", got, ho.Err)
		}
	}
	return sender, other
}

// send posts one-way request m from host 1's application and lets the
// registry act on it.
func (rg *rig) send(m kern.Msg) {
	rg.apps[1].Spawn("send", func(th *kern.Thread) { rg.r1.Svc.Send(th, m) })
	rg.s.Run(200 * time.Millisecond)
}

// keeps fails t unless host 1 still holds ho's connection: its endpoint in
// the module, and with it its port and its channel.
func (rg *rig) keeps(t *testing.T, ho ctl.Handoff) {
	t.Helper()
	if rg.r1.nif.Mod.Endpoint(ho.Cap.Template()) != ho.Cap {
		t.Fatal("the other connection's endpoint is gone")
	}
	if rg.r1.ports.Reserve(ho.Snap.Local.Port) {
		t.Fatal("the other connection's port was released")
	}
	if !rg.r1.nif.Mod.Installed(ho.Cap) {
		t.Fatal("the other connection's channel was destroyed")
	}
}

// A teardown names its connection by capability alone, so one carrying the
// sender's capability ends the sender's connection and no other.
func TestTeardownEndsOnlyItsOwnConnection(t *testing.T) {
	rg := newRig(false)
	sender, other := rg.twoConns(t)
	rg.send(kern.Msg{Op: "teardown", Body: ctl.TeardownReq{Cap: sender.Cap}})
	rg.keeps(t, other)
	if rg.r1.TransferredConns() != 1 || rg.r1.nif.Mod.Installed(sender.Cap) {
		t.Fatal("the sender's own connection was not torn down")
	}
}

// An inherit whose snapshot is of another four-tuple than its capability's
// is refused: the other connection keeps everything, and the registry makes
// no pcb and sends nothing on its tuple.
func TestInheritOfAnotherTupleRefused(t *testing.T) {
	rg := newRig(false)
	sender, other := rg.twoConns(t)
	tx := counter(t, rg.r1.nif.Mod.Device().Describe, "tx_frames")
	rg.send(kern.Msg{Op: "inherit", Body: ctl.InheritReq{Snap: other.Snap, Cap: sender.Cap}})
	rg.keeps(t, other)
	if n := rg.r1.OwnedConns(); n != 0 {
		t.Fatalf("the registry owns %d pcbs after the refused inherit, want none", n)
	}
	if n := counter(t, rg.r1.nif.Mod.Device().Describe, "tx_frames") - tx; n != 0 {
		t.Fatalf("host 1 sent %d frames after the refused inherit, want none", n)
	}
}

// An inherit of a connection that already came back (its capability is
// revoked) is refused: the registry makes no pcb, sends nothing on the
// tuple, and leaves the port with whoever holds it now.
func TestInheritOfRevokedCapabilityRefused(t *testing.T) {
	rg := newRig(false)
	rg.listenOn(t, 80)
	ho, got := rg.connectFrom(t, 80, time.Minute)
	if !got || ho.Err != nil {
		t.Fatalf("set-up: got=%v err=%v", got, ho.Err)
	}
	rg.send(kern.Msg{Op: "teardown", Body: ctl.TeardownReq{Cap: ho.Cap}})
	if !rg.r1.ports.Reserve(ho.Snap.Local.Port) {
		t.Fatal("teardown did not release the port")
	}
	tx := counter(t, rg.r1.nif.Mod.Device().Describe, "tx_frames")
	rg.send(kern.Msg{Op: "inherit", Body: ctl.InheritReq{Snap: ho.Snap, Cap: ho.Cap, Abort: true}})
	if n := rg.r1.OwnedConns(); n != 0 {
		t.Fatalf("the registry owns %d pcbs after the refused inherit, want none", n)
	}
	if n := counter(t, rg.r1.nif.Mod.Device().Describe, "tx_frames") - tx; n != 0 {
		t.Fatalf("host 1 sent %d frames after the refused inherit, want none", n)
	}
	if rg.r1.ports.Reserve(ho.Snap.Local.Port) {
		t.Fatal("the refused inherit released the port its new holder reserved")
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
	if tx := counter(t, rg.r0.nif.Mod.Device().Describe, "tx_frames"); tx < 2 {
		t.Fatalf("host 0 sent %d frames; expected ARP reply + RST", tx)
	}
}

// counter reads one counter a layer describes, failing the test when the
// layer does not describe it.
func counter(t *testing.T, describe func(func(string, int64)), key string) int64 {
	t.Helper()
	v, ok := int64(0), false
	describe(func(k string, n int64) {
		if k == key {
			v, ok = n, true
		}
	})
	if !ok {
		t.Fatalf("counter %q is not described", key)
	}
	return v
}

// newSegBuf mirrors the tcp package's internal helper for tests.
func newSegBuf(headroom int, data []byte) *pktBuf {
	return pktFromBytes(headroom+tcp.HeaderLen, data)
}

// pktBuf/pktFromBytes keep the test terse.
type pktBuf = pkt.Buf

func pktFromBytes(headroom int, b []byte) *pktBuf { return pkt.FromBytes(headroom, b) }

// TestAbandonReclaimsHandedOffConnect: a library that gave up on connect
// request 91 withdraws it after the handshake completed and the handoff went
// to its abandoned reply port. The registry takes the connection back as a
// crashed application's (channel revoked, port released) and a late retry of
// the id is not handed the reclaimed connection.
func TestAbandonReclaimsHandedOffConnect(t *testing.T) {
	rg := newRig(false)
	rg.listenOn(t, 80)
	call := func(m kern.Msg) (ho ctl.Handoff) {
		done := false
		rg.apps[1].Spawn("lib", func(th *kern.Thread) {
			if m.Op == "abandon" {
				rg.r1.Svc.Send(th, m)
			} else {
				ho = received(rg.r1.Svc.Call(th, m))
			}
			done = true
		})
		rg.s.RunUntil(time.Minute, func() bool { return done })
		rg.s.Run(50 * time.Millisecond)
		return ho
	}
	connect := kern.Msg{Op: "connect", ID: 91,
		Body: ctl.ConnectReq{Remote: tcp.Endpoint{IP: rg.ips[0], Port: 80}}}
	if ho := call(connect); ho.Err != nil || ho.Cap == nil {
		t.Fatalf("connect: %+v", ho)
	}
	call(kern.Msg{Op: "abandon", Body: ctl.AbandonReq{ID: 91}})
	if n := rg.r1.TransferredConns(); n != 0 {
		t.Fatalf("%d transferred connections after the abandon, want 0", n)
	}
	if n := rg.r1.PortsInUse(); n != 0 {
		t.Fatalf("%d ports in use after the abandon, want 0", n)
	}
	if n := rg.r1.nif.Mod.LiveCapabilities(nil); n != 0 {
		t.Fatalf("%d live capabilities after the abandon, want 0", n)
	}
	if ho := call(connect); ho.Err == nil {
		t.Fatal("a retry of the abandoned id was handed a connection")
	}
}
