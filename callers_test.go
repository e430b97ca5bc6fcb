package ulp

// A caller is one record per host: every attempt of a library's control call
// goes to the call's shard and waits on the call's one reply port, the
// host's one at-most-once table runs the call once on whichever shard an
// attempt lands, and one death hook per application posts one crash sweep to
// each shard.

import (
	"testing"
	"time"

	"ulp/internal/chaos"
	"ulp/internal/ipv4"
	"ulp/internal/kern"
	"ulp/internal/link"
	"ulp/internal/stacks"
	"ulp/internal/tcp"
	"ulp/internal/trace"
)

// segmentTally counts what an Ethernet world's wire carries: the SYNs
// without ACK that host from sends, every RST, and the requests of op that
// host from's registry dispatches.
type segmentTally struct{ syns, rsts, ops int }

func tallySegments(w *World, from int, op string) *segmentTally {
	n := new(segmentTally)
	node := w.Node(from)
	w.EnableTrace().Subscribe(func(e trace.Event) {
		if e.Kind == trace.RegistryRPC && e.Node == node.Host.Name && e.Text == op {
			n.ops++
		}
		if e.Kind != trace.FrameTx {
			return
		}
		if et, _ := link.TypeAt(e.Frame, link.EthHeaderLen); et != link.TypeIPv4 {
			return
		}
		d, ok := ipv4.Peek(e.Frame[link.EthHeaderLen:])
		if !ok || d.Proto != ipv4.ProtoTCP || d.Fragment() || len(d.Body) < tcp.HeaderLen {
			return
		}
		switch flags := d.Body[13]; {
		case flags&tcp.FlagRST != 0:
			n.rsts++
		case flags&(tcp.FlagSYN|tcp.FlagACK) == tcp.FlagSYN && d.Src == node.IP:
			n.syns++
		}
	})
	return n
}

// Every control request waits 300 ms at the registry, past the first RPC
// deadline (250 ms), so one Connect is retried while its first attempt is
// still on its way. The retry goes to the call's shard and finds the call's
// entry, and its answer comes on the call's reply port: one SYN from the
// client, no RST, no abandon, with one shard and with four. (With four, each
// attempt once went to the next shard round-robin, which ran a second
// handshake, and the library's abandon of it put a RST on the wire.)
func TestShardedRetryIsOneSetup(t *testing.T) {
	for _, shards := range []int{1, 4} {
		w := NewWorld(Config{Org: OrgUserLib, Net: Ethernet, RegistryShards: shards,
			Chaos: &chaos.FaultPlan{Seed: 1, Control: chaos.ControlFaults{DelayProb: 1, Delay: 300 * time.Millisecond}}})
		tally := tallySegments(w, 1, "abandon")
		listening := serveAndClose(t, w, stacks.Options{})
		w.RunUntil(time.Minute, func() bool { return *listening })
		cli := w.Node(1).App("client")
		var err error
		done := false
		cli.Go("cli", func(th *kern.Thread) {
			_, err = cli.Stack.Connect(th, w.Endpoint(0, 80), stacks.Options{})
			done = true
		})
		w.RunUntil(time.Minute, func() bool { return done })
		w.Run(5 * time.Second) // every attempt has been dispatched
		if err != nil || tally.syns != 1 || tally.rsts != 0 || tally.ops != 0 {
			t.Errorf("%d shards: connect %v, %d SYNs from the client, %d RSTs, %d abandons; want nil, 1, 0, 0",
				shards, err, tally.syns, tally.rsts, tally.ops)
		}
		if hits := Counter(t, w, "registry.h1.dedup_hits"); hits < 1 {
			t.Errorf("%d shards: no retry reached the registry: nothing tested", shards)
		}
	}
}

// An application's death is one hook per host, which posts one crash sweep
// to each shard, however often a shard restarted: with two shards and a
// listener, shard 1 crashed and restarted twice, the listening application's
// crash is swept twice on its host, once per shard, and once with a lone
// registry that crashed and restarted twice. (Each incarnation of a shard
// once installed a hook of its own, and every old one still posted to the
// service port its successor reuses: four sweeps with two shards.)
func TestShardRestartAddsNoCrashSweep(t *testing.T) {
	for _, shards := range []int{1, 2} {
		w := NewWorld(Config{Org: OrgUserLib, Net: Ethernet, RegistryShards: shards})
		sweeps := 0
		w.EnableTrace().Subscribe(func(e trace.Event) {
			if e.Kind == trace.RegistryRPC && e.Node == "h0" && e.Text == "crash-sweep" {
				sweeps++
			}
		})
		srv := w.Node(0).App("server")
		listening := false
		srv.Go("srv", func(th *kern.Thread) {
			_, err := srv.Stack.Listen(th, 80, stacks.Options{})
			listening = err == nil
		})
		w.RunUntil(time.Minute, func() bool { return listening })
		reg := w.Node(0).Registry
		for range 2 {
			reg.CrashShard(shards - 1)
			w.Run(100 * time.Millisecond)
			reg.RestartShard(shards - 1)
			w.Run(100 * time.Millisecond)
		}
		srv.Crash()
		w.Run(time.Second)
		if sweeps != shards {
			t.Errorf("%d shards: %d crash sweeps of the dead application, want %d", shards, sweeps, shards)
		}
		assertNoLeaks(t, w, 0)
	}
}

// An attempt overtaken by its retry: both of the client host's shards are
// down when Connect's first attempt is sent, so it waits in the queue of the
// call's shard, 0. Shard 1 restarts, the retry fails over to it, and it
// answers the call. When shard 0 restarts and serves the queued attempt, the
// host's table already holds the call's answer: no second connection is set
// up, and no second SYN goes on the wire. (Each shard once kept a table of
// its own, and the reborn shard ran the attempt as a new connect.)
func TestShardRestartServesOvertakenAttemptOnce(t *testing.T) {
	w := NewWorld(Config{Org: OrgUserLib, Net: Ethernet, RegistryShards: 2})
	tally := tallySegments(w, 1, "connect")
	listening := serveAndClose(t, w, stacks.Options{})
	w.RunUntil(time.Minute, func() bool { return *listening })
	reg := w.Node(1).Registry
	reg.CrashShard(0)
	reg.CrashShard(1)
	cli := w.Node(1).App("client")
	var err error
	done := false
	cli.Go("cli", func(th *kern.Thread) {
		_, err = cli.Stack.Connect(th, w.Endpoint(0, 80), stacks.Options{})
		done = true
	})
	w.Run(100 * time.Millisecond)
	reg.RestartShard(1)
	w.RunUntil(time.Minute, func() bool { return done })
	if err != nil || tally.ops != 1 {
		t.Fatalf("connect returned %v after %d connect requests were dispatched, want nil after the retry alone", err, tally.ops)
	}
	reg.RestartShard(0)
	w.Run(time.Second)
	if tally.ops != 2 || tally.syns != 1 || reg.TransferredConns() != 1 || reg.OwnedConns() != 0 {
		t.Errorf("%d connect requests dispatched, %d SYNs from the client, %d connections handed off, %d set-ups; want 2, 1, 1, 0",
			tally.ops, tally.syns, reg.TransferredConns(), reg.OwnedConns())
	}
}
