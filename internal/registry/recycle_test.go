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
	"ulp/internal/ctl"

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
	rg := newFedRig(t, shards)
	bus := trace.NewBus(func() time.Duration { return time.Duration(rg.s.Now()) })
	ck := conform.New()
	ck.Attach(bus)
	rg.s.Bus = bus
	return rg, ck
}

// teardown reclaims a handed-off connection through the service protocol.
func (rg *fedRig) teardown(svc *kern.Port, app *kern.Domain, ho ctl.Handoff) {
	app.Spawn("teardown", func(th *kern.Thread) {
		svc.Send(th, kern.Msg{Op: "teardown", Body: ctl.TeardownReq{Cap: ho.Cap}})
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
		reply := rg.call(th, rg.r0.Svc, kern.Msg{Op: "listen", Body: ctl.ListenReq{Port: 80, AcceptPort: accept}})
		if err, _ := reply.Body.(error); err != nil {
			t.Errorf("listen: %v", err)
			return
		}
		for {
			ho := received(accept.Receive(th))
			if ho.Err != nil {
				continue
			}
			accepted++
			rg.r0.Svc.Send(th, kern.Msg{Op: "teardown", Body: ctl.TeardownReq{Cap: ho.Cap}})
		}
	})

	// 1. A shard crashes with a handshake in flight and comes back. (First,
	// because the reborn shard hands out its ports from the start again, and
	// the checker would take a second connection on a four-tuple this test
	// abandoned mid-life for the first one continuing.)
	rg.apps[1].Spawn("stall", func(th *kern.Thread) {
		reply := kern.NewPort(rg.fed.host, "reply")
		rg.fed.shards[1].Svc.Send(th, rg.stamp(kern.Msg{Op: "connect", Reply: reply, Body: ctl.ConnectReq{Remote: dead}}))
		reply.ReceiveTimeout(th, time.Second)
	})
	rg.s.Run(10 * time.Millisecond)
	if rg.fed.shards[1].OwnedConns() != 1 {
		t.Fatalf("shard 1 owns %d pcbs before its crash, want the stalled handshake", rg.fed.shards[1].OwnedConns())
	}
	rg.fed.CrashShard(1)
	rg.s.Run(100 * time.Millisecond)
	rg.fed.RestartShard(1)
	rg.s.Run(2 * time.Second)

	// 2. The channel cannot be created at establishment.
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
		var ho ctl.Handoff
		got := false
		rg.apps[1].Spawn("connect", func(th *kern.Thread) {
			reply := rg.call(th, rg.fed.shards[shard].Svc, kern.Msg{Op: "connect",
				Body: ctl.ConnectReq{Remote: dead, Opts: stacks.Options{RexmtR2: 2}}})
			ho = received(reply)
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
		if ho.Snap.State != tcp.Established || ho.Cap == nil || ho.Cap.Chan() == nil {
			t.Fatalf("set-up %d: handoff in state %v, capability %v", i, ho.Snap.State, ho.Cap)
		}
		rg.teardown(rg.fed.shards[shard].Svc, rg.apps[1], ho)
	}
	rg.s.Run(time.Second)
	// The far host also completed its half of the set-ups aborted in step 2.
	if accepted != 102 {
		t.Fatalf("far host accepted %d connections, want 102", accepted)
	}

	done := false
	rg.apps[0].Spawn("unlisten", func(th *kern.Thread) {
		rg.call(th, rg.r0.Svc, kern.Msg{Op: "unlisten", Body: ctl.UnlistenReq{Port: 80}})
		done = true
	})
	rg.s.RunUntil(time.Second, func() bool { return done })

	for _, v := range ck.Violations() {
		t.Errorf("conformance: %v", v)
	}
	for host, f := range []*Federation{rg.r0.fed, rg.fed} {
		m := f.Netif().Mod
		if f.PortsInUse() != 0 || f.TransferredConns() != 0 || f.OwnedConns() != 0 ||
			f.ListenerCount() != 0 ||
			m.LiveCapabilities(nil) != 0 || m.PinnedRegions() != 0 {
			t.Errorf("host %d leaks: ports %d, transferred %d, owned %d, listeners %d, capabilities %d, pinned regions %d",
				host, f.PortsInUse(), f.TransferredConns(), f.OwnedConns(), f.ListenerCount(),
				m.LiveCapabilities(nil), m.PinnedRegions())
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
	sh := rg.fed.shards[0]

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
	if n := rg.fed.shards[0].free.Len(); n != 0 {
		t.Fatalf("restarted shard starts with %d free records, want none", n)
	}
}

// One-way requests take no dedup entry, even under an id: nothing answers
// them, so an entry would stay "in flight" for ever. Each names no
// capability here, which ends nothing. An AbandonReq of a call the registry
// has not seen records that call as answered, so that an attempt of it that
// comes later starts nothing: the abandons, all of slot 0's id 1, leave that
// one entry, done.
func TestOneWayRequestsLeaveTheDedupCache(t *testing.T) {
	rg := newRig(false)
	bodies := []any{ctl.TeardownReq{}, ctl.InheritReq{}, ctl.AbandonReq{ID: 1}}
	const n = 1536
	sent := 0
	rg.apps[1].Spawn("one-way", func(th *kern.Thread) {
		for ; sent < n; sent++ {
			rg.r1.Svc.Send(th, kern.Msg{Op: "one-way", ID: uint32(sent + 1), Slot: uint32(sent),
				Body: bodies[sent%len(bodies)]})
		}
	})
	rg.s.RunUntil(time.Minute, func() bool { return sent == n })
	rg.s.Run(time.Second)
	e := rg.r1.fed.calls[callerKey(rg.apps[1], 0)]
	if len(rg.r1.fed.calls) != 1 || e == nil || !e.done || e.id != 1 {
		t.Fatalf("the registry holds %d callers' entries after %d one-way requests, want only slot 0's withdrawn id 1, done", len(rg.r1.fed.calls), sent)
	}
}

// A request the registry answers nothing to leaves no dedup entry: an
// unknown body, or a one-way body sent with a reply port, would otherwise
// hold an entry that never completes.
func TestUnansweredRequestLeavesNoDedupEntry(t *testing.T) {
	rg := newRig(false)
	done := false
	rg.apps[1].Spawn("caller", func(th *kern.Thread) {
		reply := kern.NewPort(rg.r1.host, "reply")
		for i, body := range []any{struct{}{}, ctl.TeardownReq{}} {
			rg.r1.Svc.Send(th, kern.Msg{Op: "unanswered", ID: uint32(42 + i), Reply: reply, Body: body})
			reply.ReceiveTimeout(th, time.Second)
		}
		done = true
	})
	rg.s.RunUntil(time.Minute, func() bool { return done })
	if !done || len(rg.r1.fed.calls) != 0 {
		t.Fatalf("done %v; the registry holds %d callers' entries, want none", done, len(rg.r1.fed.calls))
	}
}
