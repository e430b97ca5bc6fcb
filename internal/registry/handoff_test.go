package registry

import (
	"reflect"
	"testing"
	"time"
	"ulp/internal/ctl"

	"ulp/internal/kern"
	"ulp/internal/tcp"
)

// TestReplayedHandoffStaysIntact: connect request 7's first reply port timed
// out, and its answer was read late and given back; the dedup entry still
// holds the record, so while the shard lends and takes back other hand-offs,
// active and passive, a retry of the id is replayed the original connection
// — its tuple, capability and snapshot — every time.
func TestReplayedHandoffStaysIntact(t *testing.T) {
	rg := newRig(false)
	accept := rg.listenOn(t, 80)
	rg.apps[0].Spawn("accept", func(th *kern.Thread) {
		for {
			received(accept.Receive(th))
		}
	})
	connect := func(id uint32) kern.Msg {
		return kern.Msg{Op: "connect", ID: id,
			Body: ctl.ConnectReq{Remote: tcp.Endpoint{IP: rg.ips[0], Port: 80}}}
	}
	// call sends connect m, or with id 0 a fresh connect (calls.stamp).
	call := func(m kern.Msg) (ho ctl.Handoff) {
		done := false
		rg.apps[1].Spawn("lib", func(th *kern.Thread) {
			if m.ID == 0 {
				m = rg.stamp(m)
				defer rg.free(m.Slot)
			}
			ho = received(rg.r1.Svc.Call(th, m))
			done = true
		})
		rg.s.RunUntil(time.Minute, func() bool { return done })
		if !done || ho.Err != nil || ho.Cap == nil {
			t.Fatalf("connect %d: answered %v, %+v", m.ID, done, ho)
		}
		return ho
	}

	var orig ctl.Handoff
	timedOut, late := false, false
	rg.apps[1].Spawn("lib", func(th *kern.Thread) {
		first := kern.NewPort(rg.r1.host, "first")
		m := connect(7)
		m.Reply = first
		rg.r1.Svc.Send(th, m)
		_, ok := first.ReceiveTimeout(th, time.Millisecond)
		timedOut = !ok
		orig = received(first.Receive(th))
		late = true
	})
	rg.s.RunUntil(time.Minute, func() bool { return late })
	if !timedOut || !late || orig.Err != nil || orig.Cap == nil {
		t.Fatalf("first attempt: timed out %v, answer read %v, %+v", timedOut, late, orig)
	}

	// Calls on another slot leave request 7's entry alone: the slot's next
	// call retires each one's entry, which gives its record back, and the
	// next set-up is lent it again.
	for replay := range 2 {
		for range 3 {
			if ho := call(connect(0)); ho.Cap == orig.Cap || ho.Snap.Local == orig.Snap.Local {
				t.Fatal("another set-up was handed request 7's connection")
			}
		}
		retired := false
		rg.apps[1].Spawn("lib", func(th *kern.Thread) {
			rg.call(th, rg.r1.Svc, kern.Msg{Op: "unlisten", Body: ctl.UnlistenReq{Port: 9999}})
			retired = true
		})
		rg.s.RunUntil(time.Minute, func() bool { return retired })
		if rg.r1.handoffs.Len() == 0 {
			t.Fatal("no record came back to the shard's list: nothing tested")
		}
		got := call(connect(7))
		if got.Cap != orig.Cap || got.PeerBQI != orig.PeerBQI || !reflect.DeepEqual(got.Snap, orig.Snap) {
			t.Fatalf("replay %d carries %v>%v (cap %p), want the original %v>%v (cap %p)",
				replay, got.Snap.Local, got.Snap.Peer, got.Cap, orig.Snap.Local, orig.Snap.Peer, orig.Cap)
		}
	}
	if rg.r1.dedupHits != 2 {
		t.Fatalf("%d dedup hits, want the two replays", rg.r1.dedupHits)
	}
}

// TestHandoffDonePastZeroPanics: the last hold gives the record back to its
// shard's list, and one more Done panics, as a second pkt.Buf.Release does.
func TestHandoffDonePastZeroPanics(t *testing.T) {
	r := &Server{}
	ho := ctl.Lend(&r.handoffs, ctl.Handoff{})
	ctl.Hold(kern.Msg{Body: ho})
	ho.Done()
	if r.handoffs.Len() != 1 {
		t.Fatal("the last hold did not give the record back")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("a Done past the last hold did not panic")
		}
	}()
	ho.Done()
}
