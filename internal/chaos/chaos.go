// Package chaos defines FaultPlan, a world's control-plane fault plan
// (ulp.Config's Chaos): the faults that exercise the paper's trust argument
// (§3.2–§3.3) rather than the protocol machinery. Link impairments — loss,
// duplication, corruption, reordering, partitions — are not here: they are
// the segment's one impairment plan, wire.LinkConditions (ulp.Config's
// Conditions). A plan covers:
//
//   - registry service faults: requests dropped before processing or
//     delayed before a reply is issued, so libraries see an unresponsive
//     or slow registry and must degrade gracefully instead of hanging;
//   - crash schedules: applications torn down abruptly at chosen points in
//     virtual time, with no exit path run, so the registry and network I/O
//     module must reclaim ports, capabilities and pinned regions on their
//     own; and registry shards killed and, optionally, restarted.
//
// Everything is seeded and deterministic: the same plan yields the same
// fault sequence on every run, which keeps chaos tests stable in CI.
package chaos

import (
	"math/rand"
	"time"
)

// FaultPlan is the control-plane fault configuration for one scenario.
type FaultPlan struct {
	// Seed drives the control-fault draws (each host's registry draws
	// from Seed plus its host index).
	Seed uint64

	// Control is the registry-side control-plane fault set.
	Control ControlFaults

	// Crashes schedules abrupt application terminations.
	Crashes []CrashPoint

	// ShardCrashes schedules crashes of registry servers themselves,
	// optionally followed by a restart on the same host at a later virtual
	// time. A lone registry — the control plane's single point of failure —
	// is shard 0. A world that does not have the named host and shard
	// refuses the plan.
	ShardCrashes []ShardCrash
}

// ControlFaults describes registry service misbehaviour.
type ControlFaults struct {
	// DropRequestProb drops an incoming service request before any
	// processing — the library's RPC never gets a reply.
	DropRequestProb float64

	// DelayProb delays the handling of a request by Delay, modelling a
	// busy or wedged server (the reply, if any, arrives late).
	DelayProb float64
	Delay     time.Duration
}

func (c ControlFaults) active() bool {
	return c.DropRequestProb > 0 || c.DelayProb > 0
}

// CrashPoint kills every thread of one application domain at time At.
type CrashPoint struct {
	// Host indexes the node the application runs on.
	Host int
	// App names the application domain; empty matches any app on the host.
	App string
	// At is the virtual time of the crash.
	At time.Duration
}

// ShardCrash kills one shard of a host's registry at time At. Where
// sibling shards survive they keep serving (requests and frames for the
// dead shard's tuples fail over to the next live shard), and since the module
// quarantines the endpoints the dead shard issued, its handed-off
// connections migrate to them. If RestartAfter is nonzero a fresh
// incarnation of the shard boots that much later, rebuilds its
// statically-owned endpoints from the network I/O module's installed header
// templates, and reclaims ownership from the survivors. A zero RestartAfter
// means the shard never comes back: with no sibling to migrate to, the
// endpoints it was serving stay quarantined.
type ShardCrash struct {
	// Host indexes the node whose registry loses a shard.
	Host int
	// Shard indexes the shard within the host's registry (0 for a lone
	// registry).
	Shard int
	// At is the virtual time of the crash.
	At time.Duration
	// RestartAfter is the delay from the crash to the restart (0 = never).
	RestartAfter time.Duration
}

// Injector is the seeded decision source a registry consults per request.
// A nil *Injector injects nothing, so callers need no guards.
type Injector struct {
	rng *rand.Rand
	cf  ControlFaults

	// Stats
	DroppedRequests, DelayedRequests int
}

// NewInjector builds an injector for a control-fault set. It returns nil
// when the set is inactive, keeping the fault-free path branch-free.
func NewInjector(seed uint64, cf ControlFaults) *Injector {
	if !cf.active() {
		return nil
	}
	return &Injector{rng: rand.New(rand.NewSource(int64(seed))), cf: cf}
}

// DropRequest decides whether to drop the next service request.
func (i *Injector) DropRequest() bool {
	if i == nil || i.cf.DropRequestProb == 0 {
		return false
	}
	if i.rng.Float64() < i.cf.DropRequestProb {
		i.DroppedRequests++
		return true
	}
	return false
}

// RequestDelay returns how long to stall before handling the next request
// (zero for no delay).
func (i *Injector) RequestDelay() time.Duration {
	if i == nil || i.cf.DelayProb == 0 {
		return 0
	}
	if i.rng.Float64() < i.cf.DelayProb {
		i.DelayedRequests++
		return i.cf.Delay
	}
	return 0
}
