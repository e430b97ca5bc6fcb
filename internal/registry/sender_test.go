package registry

// The registry names a request's sender by what the kernel stamped on it
// (kern.Msg.From), never by what the request claims: a second application
// on the host can neither take over nor end what another one holds, and the
// callers' at-most-once entries stay bounded by the callers alive.

import (
	"testing"
	"time"

	"ulp/internal/ipv4"
	"ulp/internal/kern"
	"ulp/internal/link"
	"ulp/internal/netio"
	"ulp/internal/pkt"
	"ulp/internal/tcp"
	"ulp/internal/udp"
)

// from runs fn on a thread of dom and lets the registries act on what it
// sent.
func (rg *rig) from(dom *kern.Domain, fn func(th *kern.Thread)) {
	done := false
	dom.Spawn("caller", func(th *kern.Thread) {
		fn(th)
		done = true
	})
	rg.s.RunUntil(time.Minute, func() bool { return done })
	rg.s.Run(100 * time.Millisecond)
}

// A second domain's connect that carries the id (and slot) of another
// domain's completed connect is a new call of its own: it gets a connection
// issued to itself, not a replay of the other's hand-off.
func TestForeignConnectIDGetsItsOwnAnswer(t *testing.T) {
	rg := newRig(false)
	rg.listenOn(t, 80)
	connect := kern.Msg{Op: "connect", ID: 5, Body: ConnectReq{Remote: tcp.Endpoint{IP: rg.ips[0], Port: 80}}}
	var victim, intruder Handoff
	rg.from(rg.apps[1], func(th *kern.Thread) { victim = received(rg.r1.Svc.Call(th, connect)) })
	if victim.Err != nil || victim.Cap == nil {
		t.Fatalf("the victim's connect: %+v", victim)
	}
	other := rg.r1.host.NewDomain("intruder", false)
	rg.from(other, func(th *kern.Thread) { intruder = received(rg.r1.Svc.Call(th, connect)) })
	if intruder.Cap == victim.Cap || rg.r1.dedupHits != 0 {
		t.Fatalf("a second domain's connect with the victim's id was replayed the victim's hand-off (%d dedup hits)",
			rg.r1.dedupHits)
	}
	if intruder.Err != nil || intruder.Cap.Owner() != other {
		t.Fatalf("the second domain's connect: err %v, issued to %v; want its own connection", intruder.Err, intruder.Cap.Owner())
	}
	rg.keeps(t, victim)
}

// A second domain's abandon of another's call id leaves the other's
// connection installed: an abandon reaches only its sender's own calls.
func TestForeignAbandonLeavesTheCallAlone(t *testing.T) {
	rg := newRig(false)
	rg.listenOn(t, 80)
	var victim Handoff
	rg.from(rg.apps[1], func(th *kern.Thread) {
		victim = received(rg.r1.Svc.Call(th, kern.Msg{Op: "connect", ID: 5,
			Body: ConnectReq{Remote: tcp.Endpoint{IP: rg.ips[0], Port: 80}}}))
	})
	if victim.Err != nil || victim.Cap == nil {
		t.Fatalf("the victim's connect: %+v", victim)
	}
	rg.from(rg.r1.host.NewDomain("intruder", false), func(th *kern.Thread) {
		rg.r1.Svc.Send(th, kern.Msg{Op: "abandon", Body: AbandonReq{ID: 5}})
	})
	rg.keeps(t, victim)
}

// A second domain's unlisten of another's port leaves the listener up.
func TestForeignUnlistenLeavesTheListener(t *testing.T) {
	rg := newRig(false)
	rg.listenOn(t, 80)
	rg.from(rg.r0.host.NewDomain("intruder", false), func(th *kern.Thread) {
		rg.r0.Svc.Call(th, kern.Msg{Op: "unlisten", Body: UnlistenReq{Port: 80}})
	})
	if n := rg.r0.fed.ListenerCount(); n != 1 {
		t.Fatalf("%d listeners after another domain's unlisten, want the owner's 1", n)
	}
	if rg.r0.ports.Reserve(80) {
		t.Fatal("another domain's unlisten released the listener's port")
	}
}

// udpFrame is a datagram from the end-point cap names to host 0, one its
// template verifies.
func (rg *rig) udpFrame(cap *netio.Capability) *pkt.Buf {
	tmpl := cap.Template()
	b := pkt.FromBytes(rg.r1.nif.Headroom()+udp.HeaderLen, []byte("payload"))
	uh := udp.Header{SrcPort: tmpl.LocalPort, DstPort: 53}
	uh.Encode(b, tmpl.LocalIP, rg.ips[0])
	ih := ipv4.Header{DF: true, TTL: 64, Proto: ipv4.ProtoUDP, Src: tmpl.LocalIP, Dst: rg.ips[0]}
	ih.Encode(b)
	rg.r1.nif.Frame(b, link.MakeAddr(1), link.TypeIPv4, 0, 0)
	return b
}

// Every request that names its endpoint by capability acts only on one
// issued to its sender. A second domain that holds the first's connection
// and datagram capabilities sends each such request; the first domain's
// endpoints come through each one whole, nothing reaches the wire, and a
// request with a reply is answered netio.ErrBadCapability. The first
// domain's own relay of the same frame is sent, so the frames are ones the
// capability vouches for.
func TestCapabilityRequestsActOnlyForTheOwner(t *testing.T) {
	rg := newRig(false)
	rg.listenOn(t, 80)
	var conn Handoff
	var bound UDPHandoff
	rg.from(rg.apps[1], func(th *kern.Thread) {
		conn = received(rg.r1.Svc.Call(th, kern.Msg{Op: "connect",
			Body: ConnectReq{Remote: tcp.Endpoint{IP: rg.ips[0], Port: 80}}}))
		bound, _ = rg.r1.Svc.Call(th, kern.Msg{Op: "bind-udp", Body: BindUDPReq{Port: 53}}).Body.(UDPHandoff)
	})
	if conn.Err != nil || bound.Err != nil {
		t.Fatalf("set-up: %v, bind: %v", conn.Err, bound.Err)
	}
	intruder := rg.r1.host.NewDomain("intruder", false)
	rows := []struct {
		name    string
		msg     func() kern.Msg
		replies bool
	}{
		{"teardown", func() kern.Msg { return kern.Msg{Op: "teardown", Body: TeardownReq{Cap: conn.Cap}} }, false},
		{"inherit", func() kern.Msg {
			return kern.Msg{Op: "inherit", Body: InheritReq{Snap: conn.Snap, Cap: conn.Cap, Abort: true}}
		}, false},
		{"unbind-udp", func() kern.Msg { return kern.Msg{Op: "unbind-udp", Body: TeardownReq{Cap: bound.Cap}} }, false},
		{"udp-send", func() kern.Msg {
			return kern.Msg{Op: "udp-send", Body: UDPSendReq{Cap: bound.Cap, Frame: rg.udpFrame(bound.Cap)}}
		}, true},
	}
	tx := func() int64 { return counter(t, rg.r1.nif.Mod.Device().Describe, "tx_frames") }
	for _, row := range rows {
		before := tx()
		var answer any
		rg.from(intruder, func(th *kern.Thread) {
			if row.replies {
				answer = rg.r1.Svc.Call(th, row.msg()).Body
			} else {
				rg.r1.Svc.Send(th, row.msg())
			}
		})
		if err, _ := answer.(error); row.replies && err != netio.ErrBadCapability {
			t.Errorf("%s: answered %v, want %v", row.name, answer, netio.ErrBadCapability)
		}
		rg.keeps(t, conn)
		if rg.r1.OwnedConns() != 0 {
			t.Errorf("%s: a pcb was made for the connection", row.name)
		}
		if !rg.r1.nif.Mod.Installed(bound.Cap) {
			t.Errorf("%s: the datagram end-point is gone", row.name)
		}
		if n := tx() - before; n != 0 {
			t.Errorf("%s: host 1 sent %d frames, want none", row.name, n)
		}
	}
	before := tx()
	var answer any
	rg.from(rg.apps[1], func(th *kern.Thread) {
		answer = rg.r1.Svc.Call(th, kern.Msg{Op: "udp-send", Body: UDPSendReq{Cap: bound.Cap, Frame: rg.udpFrame(bound.Cap)}}).Body
	})
	if answer != nil || tx()-before != 1 {
		t.Fatalf("the owner's relay of the same frame: answered %v, %d frames sent; want nil, 1", answer, tx()-before)
	}
}

// The callers' entries are bounded by the callers alive: eight threads of
// one domain, each on a call slot of its own as a library's callers are,
// make 10 000 calls across two shards, and the host keeps at most eight
// entries, one table for both shards; once the domain is killed, it keeps
// none of its entries.
func TestCallerEntriesBoundedByLiveCallers(t *testing.T) {
	rg := newFedRig(t, 2, 0)
	const threads, calls = 8, 10000
	app := rg.apps[1]
	id, made, finished := uint32(0), 0, 0
	for slot := range uint32(threads) {
		app.Spawn("caller", func(th *kern.Thread) {
			for made < calls {
				made++
				id++
				svc := rg.fed.shards[made%2].Svc
				svc.Call(th, kern.Msg{Op: "unlisten", ID: id, Slot: slot, Body: UnlistenReq{Port: 9999}})
			}
			finished++
		})
	}
	rg.s.RunUntil(10*time.Minute, func() bool { return finished == threads })
	if finished != threads {
		t.Fatalf("%d of %d callers finished", finished, threads)
	}
	if n := len(rg.fed.calls); n == 0 || n > threads {
		t.Errorf("the host keeps %d entries after %d calls from %d callers, want 1 to %d", n, calls, threads, threads)
	}
	app.Kill()
	rg.s.Run(100 * time.Millisecond)
	for key := range rg.fed.calls {
		if sender(key) == app.Index() {
			t.Errorf("the host keeps entry %#x of the killed domain", key)
		}
	}
}

// A caller's next call retires its entry, and with it the entry's hold on the
// hand-off that answered its connect: the record goes back to the shard's
// list for the next set-up.
func TestNextCallGivesBackTheHandoff(t *testing.T) {
	rg := newRig(false)
	rg.listenOn(t, 80)
	var ho Handoff
	rg.from(rg.apps[1], func(th *kern.Thread) {
		ho = received(rg.r1.Svc.Call(th, kern.Msg{Op: "connect", ID: 1,
			Body: ConnectReq{Remote: tcp.Endpoint{IP: rg.ips[0], Port: 80}}}))
	})
	if ho.Err != nil {
		t.Fatalf("set-up: %v", ho.Err)
	}
	listed := rg.r1.handoffs.Len()
	rg.from(rg.apps[1], func(th *kern.Thread) {
		rg.r1.Svc.Call(th, kern.Msg{Op: "unlisten", ID: 2, Body: UnlistenReq{Port: 9999}})
	})
	if n := rg.r1.handoffs.Len(); n != listed+1 {
		t.Fatalf("%d hand-off records listed after the caller's next call, want %d", n, listed+1)
	}
}

// A sender that calls on ever more slots holds at most CallSlots entries on a
// host: a call on a higher slot is refused, unanswered and untracked. Each
// call goes to both shards, and the second is answered from the first's
// entry.
func TestCallSlotsBoundASendersEntries(t *testing.T) {
	rg := newFedRig(t, 2, 0)
	app := rg.apps[1]
	answered := 0
	done := false
	app.Spawn("caller", func(th *kern.Thread) {
		for slot := range uint32(CallSlots + 16) {
			for _, sh := range rg.fed.shards {
				reply := kern.NewPort(rg.fed.host, "reply")
				sh.Svc.Send(th, kern.Msg{Op: "unlisten", ID: 1, Slot: slot, Reply: reply, Body: UnlistenReq{Port: 9999}})
				if _, ok := reply.ReceiveTimeout(th, 10*time.Millisecond); ok {
					answered++
				}
			}
		}
		done = true
	})
	rg.s.RunUntil(time.Hour, func() bool { return done })
	if !done {
		t.Fatal("the caller did not finish")
	}
	if want := 2 * CallSlots; answered != want {
		t.Errorf("%d calls answered, want the %d on slots below CallSlots", answered, want)
	}
	if n, hits := len(rg.fed.calls), rg.fed.shards[1].dedupHits; n != CallSlots || hits != CallSlots {
		t.Errorf("the host keeps %d entries of one sender, shard 1 answered %d from them; want CallSlots (%d) each", n, hits, CallSlots)
	}
}

// A caller's next call that reaches the shard before the abandon of its
// connect still under way aborts the set-up: the abandon finds no entry any
// more, and nobody would adopt the connection. Nothing of it stays: no pcb,
// no hand-off, no port, no channel, no answer on the abandoned reply port.
func TestNextCallAbandonsTheConnectUnderWay(t *testing.T) {
	rg := newRig(false)
	rg.listenOn(t, 80)
	app := rg.apps[1]
	base := rg.r1.PortsInUse()
	reply := kern.NewPort(rg.r1.host, "connect-reply")
	rg.from(app, func(th *kern.Thread) {
		rg.r1.Svc.Send(th, kern.Msg{Op: "connect", ID: 1, Reply: reply,
			Body: ConnectReq{Remote: tcp.Endpoint{IP: rg.ips[0], Port: 80}}})
		for rg.r1.OwnedConns() == 0 {
			th.Sleep(time.Microsecond)
		}
		rg.r1.Svc.Call(th, kern.Msg{Op: "unlisten", ID: 2, Body: UnlistenReq{Port: 9999}})
		rg.r1.Svc.Send(th, kern.Msg{Op: "abandon", Body: AbandonReq{ID: 1}})
	})
	rg.s.Run(time.Second)
	if n := rg.r1.OwnedConns() + rg.r1.TransferredConns(); n != 0 {
		t.Errorf("%d connections left of the abandoned connect, want none", n)
	}
	if n := rg.r1.PortsInUse(); n != base {
		t.Errorf("%d ports in use, want %d", n, base)
	}
	if n := rg.r1.nif.Mod.LiveCapabilities(app); n != 0 {
		t.Errorf("%d capabilities issued to the caller, want none", n)
	}
	rg.from(app, func(th *kern.Thread) {
		if m, ok := reply.ReceiveTimeout(th, time.Millisecond); ok {
			t.Errorf("the abandoned reply port was answered: %+v", m)
		}
	})
}
