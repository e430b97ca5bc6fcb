package registry_test

// A library's control calls against a sharded registry that answers nothing
// or answers late: the registry package's tests speak its protocol by hand,
// and these drive it through the library, which the package itself cannot
// import.

import (
	"testing"
	"time"

	"ulp/internal/chaos"
	"ulp/internal/core"
	"ulp/internal/costs"
	"ulp/internal/ipv4"
	"ulp/internal/kern"
	"ulp/internal/link"
	"ulp/internal/netdev"
	"ulp/internal/netio"
	"ulp/internal/registry"
	"ulp/internal/sim"
	"ulp/internal/stacks"
	"ulp/internal/tcp"
	"ulp/internal/wire"
)

// giveUpWorld is a two-host AN1 world whose host 1 runs a four-shard
// registry that drops every request, and a library linked against it.
func giveUpWorld() (*sim.Sim, *registry.Federation, *core.Library, *chaos.Injector) {
	s := sim.New()
	seg := wire.New(s, wire.AN1Config())
	var fed *registry.Federation
	var lib *core.Library
	for i, ip := range []ipv4.Addr{{10, 0, 0, 1}, {10, 0, 0, 2}} {
		h := kern.NewHost(s, []string{"h0", "h1"}[i], costs.Default())
		fed = registry.NewFederation(s, netio.New(h, netdev.NewAN1(h, seg, link.MakeAddr(i+1), 0)), ip, 4)
		lib = core.NewLibrary(s, h.NewDomain("app", false), fed)
	}
	inj := chaos.NewInjector(1, chaos.ControlFaults{DropRequestProb: 1})
	fed.SetControlFaults(inj)
	return s, fed, lib, inj
}

// With every request dropped at a four-shard registry on the AN1, Connect,
// Listen and BindUDP each give up with ErrRegistryUnavailable within the
// retry budget, each in a world of its own and no later than before a call's
// attempts shared one reply port (4.4889, 4.4866 and 4.4866 s of virtual
// time: the connect then sent an abandon to each of the four shards its
// attempts had gone to), and the call's one abandon is dropped too. Nothing is left on any shard: no caller's entry, set-up, port,
// admission slot, ring index or capability.
func TestShardedGiveUpLeaksNothing(t *testing.T) {
	calls := []struct {
		name  string
		limit time.Duration
		run   func(th *kern.Thread, lib *core.Library) error
	}{
		{"connect", 4488937904, func(th *kern.Thread, lib *core.Library) error {
			_, err := lib.Connect(th, tcp.Endpoint{IP: ipv4.Addr{10, 0, 0, 1}, Port: 80}, stacks.Options{})
			return err
		}},
		{"listen", 4486577904, func(th *kern.Thread, lib *core.Library) error {
			_, err := lib.Listen(th, 80, stacks.Options{})
			return err
		}},
		{"bind-udp", 4486577904, func(th *kern.Thread, lib *core.Library) error {
			_, err := lib.BindUDP(th, 53)
			return err
		}},
	}
	for _, c := range calls {
		s, fed, lib, inj := giveUpWorld()
		mod := fed.Netif().Mod
		var err error
		var took time.Duration
		done := false
		mod.Device().Host().NewDomain("caller", false).Spawn(c.name, func(th *kern.Thread) {
			start := th.Now()
			err = c.run(th, lib)
			took = time.Duration(th.Now().Sub(start))
			done = true
		})
		s.RunUntil(time.Minute, func() bool { return done })
		s.Run(time.Second)
		if !done || err != stacks.ErrRegistryUnavailable || took > c.limit {
			t.Errorf("%s: returned %v (done %v) after %v, want ErrRegistryUnavailable within %v", c.name, err, done, took, c.limit)
		}
		if inj.DroppedRequests != 5 {
			t.Errorf("%s: %d requests dropped, want the call's four attempts and its abandon", c.name, inj.DroppedRequests)
		}
		if fed.Callers() != 0 || fed.OwnedConns() != 0 || fed.PortsInUse() != 0 || fed.TransferredConns() != 0 ||
			fed.ListenerCount() != 0 || fed.Outstanding(nil) != 0 || mod.LiveCapabilities(nil) != 0 || mod.PinnedRegions() != 0 {
			t.Errorf("%s left %d entries, %d set-ups, %d ports, %d endpoints, %d listeners, %d admission slots, %d capabilities, %d pinned regions",
				c.name, fed.Callers(), fed.OwnedConns(), fed.PortsInUse(), fed.TransferredConns(), fed.ListenerCount(),
				fed.Outstanding(nil), mod.LiveCapabilities(nil), mod.PinnedRegions())
		}
		// The module hands out ring indexes from 1 up, freed ones first: with
		// none held, 16 reservations get exactly 1 to 16.
		auditor := mod.Device().Host().NewDomain("auditor", true)
		highest := uint16(0)
		for range 16 {
			bqi, err := mod.ReserveBQI(auditor)
			if err != nil {
				t.Fatal(err)
			}
			highest = max(highest, bqi)
		}
		if highest != 16 {
			t.Errorf("%s: a ring index is held: 16 reservations reach index %d", c.name, highest)
		}
	}
}

// A quota denial that comes after its call's first wait timed out: the
// denied id's retry is still queued at the shard, which replays the denial,
// and the library has moved on to a fresh id. Every request waits 300 ms at
// the two-shard registry, past the first RPC deadline (250 ms), and the
// application's one admission slot is held by a set-up toward a peer that
// never answers. Connect is denied, retried under backoff, and returns
// ErrAdmissionDenied once its thirteenth id was denied: the registry denied
// thirteen requests, and no replay of an older id's denial was taken for a
// newer one's. (With one reply port across the whole call, each replay
// counted as a denial of its own.)
func TestShardedDenialIsNotTakenForALaterID(t *testing.T) {
	s := sim.New()
	seg := wire.New(s, wire.AN1Config())
	h := kern.NewHost(s, "h0", costs.Default())
	fed := registry.NewFederation(s, netio.New(h, netdev.NewAN1(h, seg, link.MakeAddr(1), 0)), ipv4.Addr{10, 0, 0, 1}, 2)
	fed.SetQuota(1)
	fed.SetControlFaults(chaos.NewInjector(1, chaos.ControlFaults{DelayProb: 1, Delay: 300 * time.Millisecond}))
	app := h.NewDomain("app", false)
	lib := core.NewLibrary(s, app, fed)
	nowhere := tcp.Endpoint{IP: ipv4.Addr{10, 0, 0, 9}, Port: 80}
	app.Spawn("stall", func(th *kern.Thread) {
		fed.Meta().Svc(1).Send(th, kern.Msg{Op: "connect", ID: 1 << 31, Slot: registry.CallSlots - 1,
			Reply: kern.NewPort(h, "reply"), Body: registry.ConnectReq{Remote: nowhere}})
	})
	var err error
	done := false
	app.SpawnAfter(10*time.Millisecond, "caller", func(th *kern.Thread) {
		_, err = lib.Connect(th, nowhere, stacks.Options{})
		done = true
	})
	s.RunUntil(time.Minute, func() bool { return done })
	denied := int64(-1)
	fed.Describe(func(key string, v int64) {
		if key == "admission_denied" {
			denied = v
		}
	})
	if !done || err != stacks.ErrAdmissionDenied || denied != 13 {
		t.Errorf("connect returned %v (done %v) after the registry denied %d requests; want ErrAdmissionDenied after 13", err, done, denied)
	}
}

// A withdrawal that overtakes every attempt of its call: the call's attempt
// waited at shard 1 while the withdrawal, re-sent ahead of the slot's next
// call, reached shard 0 first. The attempt, served after the withdrawal,
// replays the withdrawal's answer and starts no set-up, so the slot's next
// call, which retires the entry, leaves no connection handed off to a reply
// port nobody reads.
func TestAbandonOvertakingItsAttemptsStartsNoSetup(t *testing.T) {
	s := sim.New()
	seg := wire.New(s, wire.EthernetConfig())
	var feds [2]*registry.Federation
	var apps [2]*kern.Domain
	for i, ip := range []ipv4.Addr{{10, 0, 0, 1}, {10, 0, 0, 2}} {
		h := kern.NewHost(s, []string{"h0", "h1"}[i], costs.Default())
		feds[i] = registry.NewFederation(s, netio.New(h, netdev.NewLance(h, seg, link.MakeAddr(i+1))), ip, 2)
		apps[i] = h.NewDomain("app", false)
	}
	srv := core.NewLibrary(s, apps[0], feds[0])
	apps[0].Spawn("server", func(th *kern.Thread) {
		if _, err := srv.Listen(th, 80, stacks.Options{}); err != nil {
			t.Error(err)
		}
	})
	s.Run(100 * time.Millisecond)
	fed, h := feds[1], apps[1].Host
	reply := kern.NewPort(h, "reply")
	var answer kern.Msg
	answered, done := false, false
	apps[1].Spawn("caller", func(th *kern.Thread) {
		fed.Meta().Svc(0).Send(th, kern.Msg{Op: "abandon", Body: registry.AbandonReq{Slot: 0, ID: 7}})
		th.Sleep(10 * time.Millisecond)
		fed.Meta().Svc(1).Send(th, kern.Msg{Op: "connect", ID: 7, Slot: 0, Reply: reply,
			Body: registry.ConnectReq{Remote: tcp.Endpoint{IP: ipv4.Addr{10, 0, 0, 1}, Port: 80}}})
		answer, answered = reply.ReceiveTimeout(th, time.Second)
		fed.Meta().Svc(0).Send(th, kern.Msg{Op: "listen", ID: 8, Slot: 0, Reply: kern.NewPort(h, "reply"),
			Body: registry.ListenReq{Port: 81}})
		done = true
	})
	s.RunUntil(time.Minute, func() bool { return done })
	s.Run(time.Second)
	if !answered || answer.Body != stacks.ErrRegistryUnavailable {
		t.Fatalf("the overtaken attempt was answered %v (%v), want the withdrawal's ErrRegistryUnavailable", answer, answered)
	}
	if fed.OwnedConns() != 0 || fed.TransferredConns() != 0 || feds[0].TransferredConns() != 0 {
		t.Fatalf("the caller's host holds %d set-ups and handed off %d connections, the listener's %d; want none",
			fed.OwnedConns(), fed.TransferredConns(), feds[0].TransferredConns())
	}
}
