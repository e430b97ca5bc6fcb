package registry

// Connection records are reused (DESIGN §5.5). These tests drive the routes
// on which a record is dropped before it ever carried a handoff — a set-up
// aborted at establishment, a handshake that gives up, a shard that crashes
// with handshakes in flight — and then push clean set-ups through whatever
// those routes left on the free lists.

import (
	"errors"
	"testing"
	"time"

	"ulp/internal/conform"
	"ulp/internal/ipv4"
	"ulp/internal/kern"
	"ulp/internal/stacks"
	"ulp/internal/tcp"
	"ulp/internal/trace"
)

// tracedFedRig is newFedRig with an RFC 793 conformance checker on every
// registry pcb of both hosts.
func tracedFedRig(t *testing.T, shards int) (*fedRig, *conform.Checker) {
	rg := newFedRig(t, shards, 0)
	bus := trace.NewBus(func() time.Duration { return time.Duration(rg.s.Now()) })
	ck := conform.New(conform.Config{})
	ck.Attach(bus)
	rg.r0.fed.SetTrace(bus)
	rg.fed.SetTrace(bus)
	return rg, ck
}

// teardown reclaims a handed-off connection through the service protocol.
func (rg *fedRig) teardown(svc *kern.Port, app *kern.Domain, ho Handoff) {
	app.Spawn("teardown", func(th *kern.Thread) {
		svc.Send(th, kern.Msg{Op: "teardown", Body: TeardownReq{
			Local: ho.Snap.Local, Peer: ho.Snap.Peer, Cap: ho.Cap,
		}})
	})
}

func TestFailedHandshakesThenCleanSetups(t *testing.T) {
	rg, ck := tracedFedRig(t, 2)
	far := tcp.Endpoint{IP: rg.ips[0], Port: 80}
	dead := tcp.Endpoint{IP: ipv4.Addr{10, 0, 0, 9}, Port: 80}
	mod := rg.fed.Netif().Mod

	// The far host accepts whatever is handed to it and reclaims it at once.
	accept := kern.NewPort(rg.r0.host, "accept")
	accepted := 0
	rg.apps[0].Spawn("srv", func(th *kern.Thread) {
		reply := rg.r0.Svc.Call(th, kern.Msg{Op: "listen", Body: ListenReq{Port: 80, AcceptPort: accept}})
		if err, _ := reply.Body.(error); err != nil {
			t.Errorf("listen: %v", err)
			return
		}
		for {
			ho := accept.Receive(th).Body.(Handoff)
			if ho.Err != nil {
				continue
			}
			accepted++
			rg.r0.Svc.Send(th, kern.Msg{Op: "teardown", Body: TeardownReq{
				Local: ho.Snap.Local, Peer: ho.Snap.Peer, Cap: ho.Cap,
			}})
		}
	})

	// 1. A shard crashes with a handshake in flight and comes back. (First,
	// because the reborn shard hands out its ports from the start again, and
	// the checker would take a second connection on a four-tuple this test
	// abandoned mid-life for the first one continuing.)
	rg.apps[1].Spawn("stall", func(th *kern.Thread) {
		rg.fed.Shard(1).Svc.CallTimeout(th, kern.Msg{Op: "connect",
			Body: ConnectReq{Remote: dead, Owner: rg.apps[1]}}, time.Second)
	})
	rg.s.Run(10 * time.Millisecond)
	if rg.fed.Shard(1).OwnedConns() != 1 {
		t.Fatalf("shard 1 owns %d pcbs before its crash, want the stalled handshake", rg.fed.Shard(1).OwnedConns())
	}
	rg.fed.CrashShard(1)
	rg.s.Run(100 * time.Millisecond)
	rg.fed.RestartShard(1)
	rg.s.Run(2 * time.Second)

	// 2. abortSetup: the channel cannot be created at establishment.
	mod.FailSetup = func(op string) error {
		if op == "create" {
			return errors.New("induced: channel setup failed")
		}
		return nil
	}
	for shard := 0; shard < 2; shard++ {
		if ho, got := rg.connectVia(t, shard, far, 0, time.Minute); !got || ho.Err == nil {
			t.Fatalf("shard %d: induced channel failure did not surface (got=%v)", shard, got)
		}
	}
	mod.FailSetup = nil

	// 3. Give-up before handoff: nobody answers, two retransmissions allowed.
	for shard := 0; shard < 2; shard++ {
		var ho Handoff
		got := false
		rg.apps[1].Spawn("connect", func(th *kern.Thread) {
			reply := rg.fed.Shard(shard).Svc.Call(th, kern.Msg{Op: "connect",
				Body: ConnectReq{Remote: dead, Owner: rg.apps[1], Opts: stacks.Options{RexmtR2: 2}}})
			ho, _ = reply.Body.(Handoff)
			got = true
		})
		rg.s.RunUntil(2*time.Minute, func() bool { return got })
		if !got || ho.Err == nil {
			t.Fatalf("shard %d: connect to a dead host: got=%v err=%v, want a time-out", shard, got, ho.Err)
		}
	}

	// 100 clean set-ups, alternating shards, each reclaimed at both ends.
	for i := 0; i < 100; i++ {
		shard := i % 2
		ho, got := rg.connectVia(t, shard, far, 0, time.Minute)
		if !got || ho.Err != nil {
			t.Fatalf("set-up %d through shard %d: got=%v err=%v", i, shard, got, ho.Err)
		}
		if ho.Snap.State != tcp.Established || ho.Cap == nil || ho.Channel == nil {
			t.Fatalf("set-up %d: handoff in state %v, capability %v, channel %v",
				i, ho.Snap.State, ho.Cap, ho.Channel)
		}
		rg.teardown(rg.fed.Shard(shard).Svc, rg.apps[1], ho)
	}
	rg.s.Run(time.Second)
	// The far host also completed its half of the set-ups aborted in step 2.
	if accepted != 102 {
		t.Fatalf("far host accepted %d connections, want 102", accepted)
	}

	done := false
	rg.apps[0].Spawn("unlisten", func(th *kern.Thread) {
		rg.r0.Svc.Call(th, kern.Msg{Op: "unlisten", Body: UnlistenReq{Port: 80}})
		done = true
	})
	rg.s.RunUntil(time.Second, func() bool { return done })

	for _, v := range ck.Violations() {
		t.Errorf("conformance: %v", v)
	}
	for host, f := range []*Federation{rg.r0.fed, rg.fed} {
		m := f.Netif().Mod
		if f.PortsInUse() != 0 || f.TransferredConns() != 0 || f.OwnedConns() != 0 ||
			f.ListenerCount() != 0 || f.Outstanding(nil) != 0 ||
			m.LiveCapabilities(nil) != 0 || m.PinnedRegions() != 0 {
			t.Errorf("host %d leaks: ports %d, transferred %d, owned %d, listeners %d, admission slots %d, capabilities %d, pinned regions %d",
				host, f.PortsInUse(), f.TransferredConns(), f.OwnedConns(), f.ListenerCount(),
				f.Outstanding(nil), m.LiveCapabilities(nil), m.PinnedRegions())
		}
	}
}

// The mechanics: a shard that has handed one connection off makes the next
// from the same record, every exit route retires its record, and a restarted
// shard starts with none.
func TestConnectionRecordsAreReused(t *testing.T) {
	rg, _ := tracedFedRig(t, 1)
	rg.listenOn0(t, 80)
	far := tcp.Endpoint{IP: rg.ips[0], Port: 80}
	sh := rg.fed.Shard(0)

	connect := func() {
		t.Helper()
		ho, got := rg.connectVia(t, 0, far, 0, time.Minute)
		if !got || ho.Err != nil {
			t.Fatalf("connect: got=%v err=%v", got, ho.Err)
		}
		rg.teardown(sh.Svc, rg.apps[1], ho)
		rg.s.Run(100 * time.Millisecond)
	}
	connect()
	if sh.free.Len() != 1 {
		t.Fatalf("%d records free after one handoff, want 1", sh.free.Len())
	}
	rec := sh.free.Get()
	if rec.owner != nil || rec.reply != nil || rec.tc.State() != tcp.Closed ||
		rec.tc.Callbacks().Send != nil || rec.r != sh || rec.cb.Send == nil {
		t.Fatalf("free record not scrubbed: %+v", rec)
	}
	gen := rec.gen
	sh.free.Put(rec)
	for i := 0; i < 20; i++ {
		connect()
	}
	if sh.free.Len() != 1 || sh.free.Get() != rec {
		t.Fatal("twenty sequential set-ups did not go through the one record")
	}
	if rec.gen != gen+20 {
		t.Fatalf("record retired %d times over twenty set-ups", rec.gen-gen)
	}
	sh.free.Put(rec)

	// The far side's passive pcbs went the same way.
	if n := rg.r0.free.Len(); n != 1 {
		t.Fatalf("far registry has %d records free, want 1", n)
	}

	rg.fed.CrashShard(0)
	rg.fed.RestartShard(0)
	if n := rg.fed.Shard(0).free.Len(); n != 0 {
		t.Fatalf("restarted shard starts with %d free records, want none", n)
	}
}

// One-way requests complete their dedup entries like any other: they used to
// stay "in flight" for ever, so the cache grew by one entry per teardown and
// every eviction walked past all of them.
func TestOneWayRequestsLeaveTheDedupCache(t *testing.T) {
	rg := newRig(false)
	sent := 0
	rg.apps[1].Spawn("teardowns", func(th *kern.Thread) {
		for ; sent < 3*dedupCap; sent++ {
			rg.r1.Svc.Send(th, kern.Msg{Op: "teardown", ID: uint64(sent + 1), Body: TeardownReq{
				Local: tcp.Endpoint{IP: rg.ips[1], Port: uint16(2000 + sent)},
				Peer:  tcp.Endpoint{IP: rg.ips[0], Port: 80},
			}})
		}
	})
	rg.s.RunUntil(time.Minute, func() bool { return sent == 3*dedupCap })
	rg.s.Run(time.Second)
	if n := len(rg.r1.reqCache); n > dedupCap {
		t.Fatalf("dedup cache holds %d entries after %d one-way requests, bound %d", n, sent, dedupCap)
	}
	if len(rg.r1.reqOrder) != len(rg.r1.reqCache) {
		t.Fatalf("dedup FIFO has %d ids for %d entries", len(rg.r1.reqOrder), len(rg.r1.reqCache))
	}
}
