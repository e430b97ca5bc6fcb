package registry

// A sender's set-ups are bounded by its call slots alone: the registry admits
// a request it answers only as a call on a slot below ctl.CallSlots, and a
// set-up starts only under its caller's live entry, so the slot's next call,
// on whichever shard, aborts or forestalls it.

import (
	"fmt"
	"testing"
	"time"

	"ulp/internal/ctl"
	"ulp/internal/ipv4"
	"ulp/internal/kern"
	"ulp/internal/netio"
	"ulp/internal/stacks"
	"ulp/internal/tcp"
)

// setups counts dom's active set-ups on the host's live shards.
func (f *Federation) setups(dom *kern.Domain) int {
	return f.sumLive(func(sh *Server) int {
		n := 0
		for _, hc := range sh.conns {
			if hc.owner == dom && hc.l == nil {
				n++
			}
		}
		return n
	})
}

// entries counts dom's callers' entries on the host.
func (f *Federation) entries(dom *kern.Domain) int {
	n := 0
	for key := range f.calls {
		if sender(key) == dom.Index() {
			n++
		}
	}
	return n
}

// One sender's connects on slot 0, with rising ids, alternate between two
// shards 300 µs apart toward a peer that answers no ARP: each call retires
// the one before it while that one still computes on the other shard, and
// the retired call starts no set-up, so the 199 calls leave the last one's.
func TestSlotBoundsASendersSetups(t *testing.T) {
	rg := newFedRig(t, 2)
	app := rg.apps[1]
	reply := kern.NewPort(rg.fed.host, "reply")
	dead := tcp.Endpoint{IP: ipv4.Addr{10, 0, 0, 9}, Port: 80}
	sent := false
	app.Spawn("caller", func(th *kern.Thread) {
		for id := uint32(1); id <= 199; id++ {
			rg.fed.Svc[id%2].Send(th, kern.Msg{Op: "connect", ID: id, Reply: reply, Body: ctl.ConnectReq{Remote: dead}})
			th.Sleep(300 * time.Microsecond)
		}
		sent = true
	})
	rg.s.RunUntil(time.Minute, func() bool { return sent })
	rg.s.Run(100 * time.Millisecond)
	if n := rg.fed.setups(app); n > 1 {
		t.Fatalf("199 calls on one slot leave %d set-ups of their sender, want at most 1", n)
	}
}

// A connect's call is retired by the slot's next call, tracked on the other
// shard 200 µs later, while the first still computes: the first is answered
// ErrRegistryUnavailable and starts nothing, and only the second's connection
// is handed off, so none goes to a reply port nobody reads.
func TestCallerRetiredMidSetupStartsNothing(t *testing.T) {
	rg := newFedRig(t, 2)
	rg.listenOn0(t, 80)
	far := tcp.Endpoint{IP: rg.ips[0], Port: 80}
	first, second := kern.NewPort(rg.fed.host, "first"), kern.NewPort(rg.fed.host, "second")
	rg.apps[1].Spawn("caller", func(th *kern.Thread) {
		rg.fed.Svc[0].Send(th, kern.Msg{Op: "connect", ID: 1, Reply: first, Body: ctl.ConnectReq{Remote: far}})
		th.Sleep(200 * time.Microsecond)
		rg.fed.Svc[1].Send(th, kern.Msg{Op: "connect", ID: 2, Reply: second, Body: ctl.ConnectReq{Remote: far}})
	})
	rg.s.Run(time.Second)
	if n := rg.fed.TransferredConns(); n != 1 {
		t.Fatalf("%d connections handed off for two calls on one slot, want the later call's 1", n)
	}
	var got [2]ctl.Handoff
	rg.apps[1].Spawn("reader", func(th *kern.Thread) {
		for i, p := range []*kern.Port{first, second} {
			if m, ok := p.ReceiveTimeout(th, time.Millisecond); ok {
				got[i] = received(m)
			}
		}
	})
	rg.s.Run(10 * time.Millisecond)
	if got[0].Err != stacks.ErrRegistryUnavailable || got[0].Cap != nil {
		t.Errorf("the retired call was answered %+v, want ErrRegistryUnavailable", got[0])
	}
	if got[1].Err != nil || got[1].Cap == nil {
		t.Errorf("the later call was answered %+v, want its connection", got[1])
	}
}

// A request the registry answers is refused unless it is a call: with id 0,
// with no reply port, or on a slot at or above ctl.CallSlots it is neither
// answered nor tracked, and each refusal is counted in admission_denied.
func TestSlotlessRequestsAreRefusedAndCounted(t *testing.T) {
	rg := newFedRig(t, 2)
	reply := kern.NewPort(rg.fed.host, "reply")
	answered := 0
	done := false
	rg.apps[1].Spawn("caller", func(th *kern.Thread) {
		for _, m := range []kern.Msg{
			{ID: 0, Slot: 1, Reply: reply},
			{ID: 1, Slot: 1},
			{ID: 1, Slot: ctl.CallSlots, Reply: reply},
		} {
			m.Op, m.Body = "unlisten", ctl.UnlistenReq{Port: 9999}
			rg.fed.Svc[1].Send(th, m)
			if _, ok := reply.ReceiveTimeout(th, 10*time.Millisecond); ok {
				answered++
			}
		}
		done = true
	})
	rg.s.RunUntil(time.Minute, func() bool { return done })
	if denied := counter(t, rg.fed.Describe, "admission_denied"); !done || answered != 0 || denied != 3 || len(rg.fed.calls) != 0 {
		t.Fatalf("done %v: %d of 3 refused requests answered, %d counted, %d entries; want 0, 3, 0",
			done, answered, denied, len(rg.fed.calls))
	}
}

// FuzzHostileCaller decodes its input into a stream of requests from one
// application domain to a two-shard federation. A request is five bytes:
//   - op: connect, listen, unlisten, bind-udp, abandon or teardown (op%6),
//     to shard op/6%2, with no reply port if op/12%2 is 1, and a connect
//     toward a peer that answers no ARP if op/24%2 is 1, else toward the far
//     host's listener;
//   - id: 0, the next fresh id, the last fresh one again, or one just below
//     the wrap (id%4, the last with id/4 below it);
//   - slot: slot%(ctl.CallSlots+8), so some lie past the bound;
//   - delay: delay%31 times 100 µs before the next request;
//   - arg: a listen's port (7000+arg%4) or the capability a teardown names,
//     one of those answered so far.
//
// After every request the sender's active set-ups are at most its callers'
// entries, which are at most ctl.CallSlots; once the domain is killed and the
// sweeps have run, host 1 holds nothing. Only the first 256 requests are sent.
// Every input's world stays reachable from its parked coroutines for the life
// of the process, so a fuzzing run is bounded by count (-fuzztime=1000x).
func FuzzHostileCaller(f *testing.F) {
	race := func(n int, target, delay byte) []byte {
		var in []byte
		for i := range n {
			in = append(in, byte(i%2*6)+target, 1, 0, delay, 0)
		}
		return in
	}
	f.Add(race(199, 24, 3))       // connects on slot 0 toward the dead peer, 300 µs apart
	f.Add(race(2, 0, 2))          // two connects on slot 0 toward the listener, 200 µs apart
	f.Add([]byte{0, 1, 5, 10, 0}) // one connect
	f.Add([]byte{
		1, 1, 3, 0, 1, // listen on 7001
		7, 2, 3, 0, 1, // a retry of it at shard 1
		2, 1, 3, 0, 1, // unlisten
		3, 3, 70, 0, 0, // bind-udp on a slot past the bound
		15, 1, 4, 0, 0, // bind-udp with no reply port
		9, 1, 4, 30, 0, // bind-udp, then 3 ms
		0, 0, 4, 0, 0, // connect with id 0
		6, 1, 6, 1, 0, // connect at shard 1
		4, 2, 6, 0, 0, // abandon it
		5, 0, 0, 0, 0, // teardown of the datagram end-point
		0, 7, 8, 0, 0, // connect with an id near the wrap
		0, 1, 8, 0, 0, // a fresh id after it
	})
	f.Fuzz(func(t *testing.T, in []byte) {
		rg := newFedRig(t, 2)
		rg.listenOn0(t, 80)
		app := rg.apps[1]
		reply, accept := kern.NewPort(rg.fed.host, "reply"), kern.NewPort(rg.fed.host, "accept")
		var caps []*netio.Capability
		app.Spawn("reader", func(th *kern.Thread) {
			for {
				switch b := reply.Receive(th).Body.(type) {
				case *ctl.Handoff:
					if b.Cap != nil {
						caps = append(caps, b.Cap)
					}
					b.Done()
				case ctl.UDPHandoff:
					if b.Cap != nil {
						caps = append(caps, b.Cap)
					}
				}
			}
		})
		violation := ""
		check := func(i int) {
			if s, e := rg.fed.setups(app), rg.fed.entries(app); violation == "" && (s > e || e > ctl.CallSlots) {
				violation = fmt.Sprintf("after request %d: %d set-ups, %d entries", i, s, e)
			}
		}
		done := false
		app.Spawn("caller", func(th *kern.Thread) {
			seq := uint32(0)
			for i := 0; i < 256 && len(in) >= 5; i, in = i+1, in[5:] {
				op, idb, slot, delay, arg := in[0], in[1], in[2], in[3], in[4]
				var id uint32
				switch idb % 4 {
				case 1:
					seq++
					id = seq
				case 2:
					id = seq
				case 3:
					id = ^uint32(0) - uint32(idb/4)
				}
				m := kern.Msg{ID: id, Slot: uint32(slot) % (ctl.CallSlots + 8), Reply: reply}
				if op/12%2 == 1 {
					m.Reply = nil
				}
				switch op % 6 {
				case 0:
					remote := tcp.Endpoint{IP: rg.ips[0], Port: 80}
					if op/24%2 == 1 {
						remote.IP = ipv4.Addr{10, 0, 0, 9}
					}
					m.Op, m.Body = "connect", ctl.ConnectReq{Remote: remote}
				case 1:
					m.Op, m.Body = "listen", ctl.ListenReq{Port: 7000 + uint16(arg%4), AcceptPort: accept}
				case 2:
					m.Op, m.Body = "unlisten", ctl.UnlistenReq{Port: 7000 + uint16(arg%4)}
				case 3:
					m.Op, m.Body = "bind-udp", ctl.BindUDPReq{Port: 53}
				case 4:
					m.Op, m.Body = "abandon", ctl.AbandonReq{Slot: m.Slot, ID: id}
				case 5:
					req := ctl.TeardownReq{}
					if len(caps) > 0 {
						req.Cap = caps[int(arg)%len(caps)]
					}
					m.Op, m.Body = "teardown", req
				}
				rg.fed.Svc[op/6%2].Send(th, m)
				th.Sleep(time.Duration(delay%31) * 100 * time.Microsecond)
				check(i)
			}
			th.Sleep(50 * time.Millisecond)
			check(-1)
			done = true
		})
		rg.s.RunUntil(time.Hour, func() bool { return done })
		if !done {
			t.Fatal("the caller did not finish")
		}
		if violation != "" {
			t.Fatal(violation)
		}
		app.Kill()
		rg.s.Run(time.Minute)
		rg.auditNoLeaks(t)
	})
}
