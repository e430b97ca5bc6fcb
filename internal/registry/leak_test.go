package registry

// Leak audit of every way a set-up can end that is reachable from outside
// the registry, on Ethernet and on the AN1: each ends in hsConn's one
// release, which must give back everything the set-up held. The far host
// runs a lone registry listening on port 80; host 1 runs the federation
// under test.

import (
	"errors"
	"testing"
	"time"

	"ulp/internal/ipv4"
	"ulp/internal/kern"
	"ulp/internal/stacks"
	"ulp/internal/tcp"
	"ulp/internal/wire"
)

// leakRow is one set-up exit: run drives a set-up of host 1 through it.
type leakRow struct {
	name   string
	shards int
	an1    bool // the exit exists on the AN1 only
	run    func(t *testing.T, rg *fedRig)
}

// stall starts a connect through shard that waits for ever: no host answers
// 10.0.0.9's ARP. opts bounds its retransmissions if the row wants it to
// give up. It calls on slot id, so that stalls with distinct ids are
// distinct callers.
func (rg *fedRig) stall(shard int, id uint32, opts stacks.Options) {
	rg.apps[1].Spawn("stall", func(th *kern.Thread) {
		rg.fed.shards[shard].Svc.Call(th, kern.Msg{Op: "connect", ID: id, Slot: id, Body: ConnectReq{
			Remote: tcp.Endpoint{IP: ipv4.Addr{10, 0, 0, 9}, Port: 80}, Opts: opts}})
	})
	rg.s.Run(10 * time.Millisecond)
}

// oneWay sends a one-way request to shard from host 1's application.
func (rg *fedRig) oneWay(shard int, m kern.Msg) {
	rg.apps[1].Spawn("send", func(th *kern.Thread) {
		rg.fed.shards[shard].Svc.Send(th, m)
	})
	rg.s.Run(100 * time.Millisecond)
}

// probe makes one clean set-up through shard 0 from a domain of host 1's
// own (a row may have killed apps[1]) and tears it down. Its pcb has a
// keepalive timer armed at hand-off, so a wheel entry the set-up's release
// failed to drop stays armed.
func (rg *fedRig) probe(t *testing.T, id uint32) {
	t.Helper()
	sh := rg.fed.shards[0]
	var ho Handoff
	got := false
	rg.fed.host.NewDomain("probe", false).Spawn("probe", func(th *kern.Thread) {
		ho = received(sh.Svc.Call(th, kern.Msg{Op: "connect", ID: id, Body: ConnectReq{
			Remote: tcp.Endpoint{IP: rg.ips[0], Port: 80}, Opts: stacks.Options{KeepAliveTicks: 1000}}}))
		got = true
		if ho.Err == nil {
			sh.Svc.Send(th, kern.Msg{Op: "teardown", Body: TeardownReq{Cap: ho.Cap}})
		}
	})
	rg.s.RunUntil(time.Minute, func() bool { return got })
	rg.s.Run(100 * time.Millisecond)
	if !got || ho.Err != nil {
		t.Fatalf("probe set-up: got=%v err=%v", got, ho.Err)
	}
}

// auditBQIs checks that every ring index host 1's module handed out is free
// again. The module hands out fresh indexes from 1 up and reuses freed ones
// first, so with none leaked, 16 reservations — more than the rig ever held
// at once — get exactly 1 to 16; a leaked index never comes back, and the
// 16th reservation needs one past 16. It leaves the indexes reserved.
func (rg *fedRig) auditBQIs(t *testing.T) {
	t.Helper()
	mod, dom := rg.fed.Netif().Mod, rg.fed.shards[0].dom
	highest := uint16(0)
	for i := 0; i < 16; i++ {
		bqi, err := mod.ReserveBQI(dom)
		if err != nil {
			t.Fatal(err)
		}
		highest = max(highest, bqi)
	}
	if highest != 16 {
		t.Errorf("a ring index leaked: 16 reservations reach index %d", highest)
	}
}

// auditNoLeaks checks that host 1 holds nothing and that neither host's
// registry owns a pcb, has one on its wheel, or counts a set-up against a
// listen backlog.
func (rg *fedRig) auditNoLeaks(t *testing.T) {
	t.Helper()
	f, m := rg.fed, rg.fed.Netif().Mod
	if f.PortsInUse() != 0 || f.OwnedConns() != 0 || f.TransferredConns() != 0 || f.Outstanding(nil) != 0 ||
		m.LiveCapabilities(nil) != 0 || m.PinnedRegions() != 0 {
		t.Errorf("host 1 leaks: ports %d, owned %d, transferred %d, admission slots %d, capabilities %d, pinned regions %d",
			f.PortsInUse(), f.OwnedConns(), f.TransferredConns(), f.Outstanding(nil), m.LiveCapabilities(nil), m.PinnedRegions())
	}
	shards := []*Server{rg.r0}
	for i := 0; i < len(f.shards); i++ {
		if f.live[i] {
			shards = append(shards, f.shards[i])
		}
	}
	for _, fed := range []*Federation{rg.r0.fed, f} {
		for port, l := range fed.listeners {
			if l.pending != 0 {
				t.Errorf("%s: listener %d counts %d set-ups against its backlog", fed.host.Name, port, l.pending)
			}
		}
	}
	for _, sh := range shards {
		if len(sh.conns) != 0 || sh.wheel.Armed() != 0 {
			t.Errorf("%s: %d pcbs, %d armed wheel timers left", sh.dom, len(sh.conns), sh.wheel.Armed())
		}
	}
	for _, fed := range []*Federation{rg.r0.fed, f} {
		for key, e := range fed.calls {
			if !e.done {
				t.Errorf("%s: request %d of caller %#x still in flight", fed.host.Name, e.id, key)
			}
		}
	}
}

// failNext makes host 1's module fail its next set-up allocation of kind op
// ("bqi" or "create") and nothing after.
func (rg *fedRig) failNext(op string) {
	mod := rg.fed.Netif().Mod
	mod.FailSetup = func(o string) error {
		if o != op {
			return nil
		}
		mod.FailSetup = nil
		return errors.New("induced: " + op + " failed")
	}
}

var leakRows = []leakRow{
	{name: "port-exhaustion", shards: 2, run: func(t *testing.T, rg *fedRig) {
		// Two set-ups that give up after two retransmissions hold shard 0's
		// whole (squeezed) slice; a third must fail with nothing held.
		for id := uint32(10); id < 12; id++ {
			rg.stall(0, id, stacks.Options{RexmtR2: 2})
		}
		ho, got := rg.connectVia(t, 0, tcp.Endpoint{IP: rg.ips[0], Port: 80}, 12, time.Second)
		if !got || ho.Err != tcp.ErrPortExhausted {
			t.Fatalf("connect on an exhausted slice: got=%v err=%v", got, ho.Err)
		}
		if out := rg.fed.Outstanding(rg.apps[1]); out != 2 {
			t.Fatalf("the refused set-up kept an admission slot: %d outstanding, want 2", out)
		}
		rg.s.Run(2 * time.Minute)
	}},
	{name: "bqi-reservation-failure", an1: true, run: func(t *testing.T, rg *fedRig) {
		rg.failNext("bqi")
		if ho, got := rg.connectVia(t, 0, tcp.Endpoint{IP: rg.ips[0], Port: 80}, 10, time.Minute); !got || ho.Err == nil {
			t.Fatalf("connect should fail: got=%v err=%v", got, ho.Err)
		}
	}},
	{name: "channel-creation-failure", shards: 2, run: func(t *testing.T, rg *fedRig) {
		// The handshake completes; the channel cannot be created.
		rg.failNext("create")
		if ho, got := rg.connectVia(t, 1, tcp.Endpoint{IP: rg.ips[0], Port: 80}, 10, time.Minute); !got || ho.Err == nil {
			t.Fatalf("the failed set-up must be answered with its error: got=%v err=%v", got, ho.Err)
		}
		rg.s.Run(100 * time.Millisecond)
	}},
	{name: "connection-refused", run: func(t *testing.T, rg *fedRig) {
		if ho, got := rg.connectVia(t, 0, tcp.Endpoint{IP: rg.ips[0], Port: 81}, 10, time.Minute); !got || ho.Err != stacks.ErrRefused {
			t.Fatalf("connect to a closed port: got=%v err=%v", got, ho.Err)
		}
	}},
	{name: "give-up-under-partition", run: func(t *testing.T, rg *fedRig) {
		start := time.Duration(rg.s.Now())
		rg.seg.SetConditions(&wire.LinkConditions{Partitions: []wire.Window{{From: start}}})
		var ho Handoff
		got := false
		rg.apps[1].Spawn("connect", func(th *kern.Thread) {
			ho = received(rg.fed.shards[0].Svc.Call(th, kern.Msg{Op: "connect", ID: 10, Body: ConnectReq{
				Remote: tcp.Endpoint{IP: rg.ips[0], Port: 80}, Opts: stacks.Options{RexmtR2: 2}}}))
			got = true
		})
		rg.s.RunUntil(2*time.Minute, func() bool { return got })
		rg.seg.SetConditions(nil)
		// A handshake that gives up reports the connection refused, as BSD
		// does; it took the retransmissions to get there.
		if !got || ho.Err != stacks.ErrRefused || time.Duration(rg.s.Now())-start < 10*time.Second {
			t.Fatalf("connect across a partition: got=%v err=%v after %v, want a give-up",
				got, ho.Err, time.Duration(rg.s.Now())-start)
		}
	}},
	{name: "abandon-mid-handshake", run: func(t *testing.T, rg *fedRig) {
		rg.stall(0, 10, stacks.Options{})
		rg.oneWay(0, kern.Msg{Op: "abandon", Body: AbandonReq{Slot: 10, ID: 10}})
	}},
	{name: "abandon-after-handoff", run: func(t *testing.T, rg *fedRig) {
		if ho, got := rg.connectVia(t, 0, tcp.Endpoint{IP: rg.ips[0], Port: 80}, 10, time.Minute); !got || ho.Err != nil {
			t.Fatalf("connect: got=%v err=%v", got, ho.Err)
		}
		rg.oneWay(0, kern.Msg{Op: "abandon", Body: AbandonReq{Slot: 10, ID: 10}})
	}},
	{name: "app-crash-mid-handshake", run: func(t *testing.T, rg *fedRig) {
		rg.stall(0, 10, stacks.Options{})
		rg.apps[1].Kill()
		rg.s.Run(100 * time.Millisecond)
	}},
	{name: "shard-crash-mid-handshake", shards: 4, run: func(t *testing.T, rg *fedRig) {
		rg.stall(2, 10, stacks.Options{})
		rg.fed.CrashShard(2)
		rg.s.Run(100 * time.Millisecond)
		rg.fed.RestartShard(2)
		rg.s.Run(100 * time.Millisecond)
	}},
}

// Every set-up exit gives back everything the set-up held: ports, pcbs and
// their wheel entries, backlog and admission slots, capabilities and pinned
// regions, its dedup entry and its BQI; and a clean set-up follows.
func TestSetupExitsLeakNothing(t *testing.T) {
	for _, an1 := range []bool{false, true} {
		net := map[bool]string{false: "ethernet", true: "an1"}[an1]
		for _, row := range leakRows {
			if row.an1 && !an1 {
				continue
			}
			t.Run(net+"/"+row.name, func(t *testing.T) {
				rg := newFedRigOn(t, an1, max(row.shards, 1), 0)
				if row.name == "port-exhaustion" {
					rg.fed.SetEphemeralRange(2000, 2004) // shard 0 gets two ports
				}
				rg.listenOn0(t, 80)
				rg.probe(t, 1)
				row.run(t, rg)
				rg.auditNoLeaks(t)
				rg.probe(t, 2)
				rg.auditNoLeaks(t)
				if an1 {
					rg.auditBQIs(t)
				}
			})
		}
	}
}

// A datagram bind that fails gives back the BQI it reserved — the next bind
// gets it again, for the module reuses indexes last in, first out — and one
// whose reservation fails is refused.
func TestFailedBindReleasesBQI(t *testing.T) {
	rg := newRig(true)
	mod := rg.r1.nif.Mod
	call := func(m kern.Msg) UDPHandoff {
		var ho UDPHandoff
		done := false
		rg.apps[1].Spawn("lib", func(th *kern.Thread) {
			ho, _ = rg.r1.Svc.Call(th, m).Body.(UDPHandoff)
			done = true
		})
		rg.s.RunUntil(time.Second, func() bool { return done })
		return ho
	}
	bind := func(port uint16, failing string) UDPHandoff {
		mod.FailSetup = func(op string) error {
			if op == failing {
				return errors.New("induced: " + op + " failed")
			}
			return nil
		}
		defer func() { mod.FailSetup = nil }()
		held := rg.r1.PortsInUse()
		ho := call(kern.Msg{Op: "bind-udp", Body: BindUDPReq{Port: port}})
		if (ho.Err == nil) != (failing == "") {
			t.Fatalf("bind %d failing %q: err %v", port, failing, ho.Err)
		}
		if failing != "" && rg.r1.PortsInUse() != held {
			t.Fatalf("failed bind %d kept its port", port)
		}
		return ho
	}
	ho := bind(7000, "")
	reserved := ho.Cap.Chan().BQI()
	rg.apps[1].Spawn("unbind", func(th *kern.Thread) {
		rg.r1.Svc.Send(th, kern.Msg{Op: "unbind-udp", Body: TeardownReq{Cap: ho.Cap}})
	})
	rg.s.Run(10 * time.Millisecond)
	bind(7001, "create") // reserves the index 7000's channel gave back
	if got := bind(7002, "").Cap.Chan().BQI(); got != reserved {
		t.Fatalf("the bind after a failed one got BQI %d, want %d again", got, reserved)
	}
	bind(7003, "bqi")
	if n := mod.LiveCapabilities(nil); n != 1 {
		t.Fatalf("%d live capabilities, want 7002's one", n)
	}
}
