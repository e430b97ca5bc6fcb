// Package chaos extends the wire-level fault model (wire.Faults: loss,
// duplication, corruption, reordering) into a full-system FaultPlan that
// also covers the control plane — the faults that exercise the paper's
// trust argument (§3.2–§3.3) rather than the protocol machinery:
//
//   - registry service faults: requests dropped before processing or
//     delayed before a reply is issued, so libraries see an unresponsive
//     or slow registry and must degrade gracefully instead of hanging;
//   - crash schedules: applications torn down abruptly at chosen points in
//     virtual time, with no exit path run, so the registry and network I/O
//     module must reclaim ports, capabilities and pinned regions on their
//     own.
//
// Everything is seeded and deterministic: the same plan yields the same
// fault sequence on every run, which keeps chaos tests stable in CI.
package chaos

import (
	"math/rand"
	"time"

	"ulp/internal/wire"
)

// FaultPlan is the full-system fault configuration for one scenario.
type FaultPlan struct {
	// Seed drives every random draw in the plan. A zero Wire.Seed is
	// filled from it so one number reproduces the whole scenario.
	Seed uint64

	// Wire is the data-plane fault set applied to the segment.
	Wire wire.Faults

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

	// Partitions schedules network partitions: during each window, frames
	// crossing the cut vanish silently (no reset, no error), exactly like
	// a dead route. Time-scripted, no RNG draws — adding a partition to a
	// seeded plan leaves every probabilistic fault's fate intact.
	Partitions []Partition
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
// dead shard's tuples fail over to a successor), and since the leases the
// dead shard issued expire, its handed-off connections migrate to them. If
// RestartAfter is nonzero a fresh incarnation of the shard boots that much
// later, rebuilds its statically-owned endpoints from the network I/O
// module's installed header templates, and reclaims ownership from the
// survivors. A zero RestartAfter means the shard never comes back: with no
// sibling to migrate to, capability leases run out and the module
// quarantines the endpoints it was serving.
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

// Partition isolates a set of hosts from the rest of the world between At
// and At+HealAfter. Hosts on the same side of the cut still talk to each
// other; only frames crossing the cut are blackholed.
type Partition struct {
	// Hosts indexes the nodes on one side of the cut. Empty means the
	// whole segment goes dark (a full blackhole).
	Hosts []int
	// At is the virtual time the partition starts.
	At time.Duration
	// HealAfter is how long the partition lasts (0 = never heals).
	HealAfter time.Duration
}

// WireFaults returns the data-plane fault set with the seed filled in.
func (p *FaultPlan) WireFaults() wire.Faults {
	f := p.Wire
	if f.Seed == 0 {
		f.Seed = p.Seed
	}
	return f
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
