package wire

// Link conditions: the segment's one impairment plan. Every transmitted
// frame passes through one ordered pipeline of stages, each optional:
//
//  1. frame faults — i.i.d. loss, corruption, duplication and reordering
//     ("what if 5% of frames vanish");
//  2. flaps — whole-link outages on a schedule;
//  3. partitions — windows that blackhole the segment silently (no RST, no
//     ICMP — the frames just stop);
//  4. burst — Gilbert–Elliott correlated loss;
//  5. path loss — i.i.d. loss per direction, for asymmetric paths;
//  6. queue — a rate-limited bottleneck with a bounded queue, turning load
//     into real queueing delay (bufferbloat) and tail drops.
//
// A frame a stage drops never reaches the later stages. See SetConditions
// for the draw discipline that keeps every plan replay-deterministic.

import (
	"math/rand"
	"time"

	"ulp/internal/link"
	"ulp/internal/sim"
	"ulp/internal/trace"
)

// GilbertElliott is the classic two-state Markov loss model: the channel is
// either Good or Bad, transitions are drawn per frame, and the Bad state
// loses frames. With LossBad near 1 and PBadGood small, losses arrive in
// bursts whose mean length is 1/PBadGood frames — the loss correlation
// i.i.d. loss cannot express.
type GilbertElliott struct {
	// PGoodBad and PBadGood are the per-frame state transition
	// probabilities (Good→Bad and Bad→Good).
	PGoodBad, PBadGood float64
	// LossBad is the per-frame loss probability in the Bad state; the Good
	// state loses nothing.
	LossBad float64
}

// PathShape is a direction-specific i.i.d. loss. Forward and Reverse shapes
// model asymmetric paths (a clean downlink over a lossy uplink) that the
// symmetric frame-fault loss cannot.
type PathShape struct {
	LossProb float64
}

func (p *PathShape) active() bool {
	return p != nil && p.LossProb > 0
}

// Window is a half-open virtual-time interval [From, Until). A zero Until
// means the window never closes.
type Window struct {
	From, Until time.Duration
}

func (w Window) contains(at sim.Time) bool {
	t := time.Duration(at)
	return t >= w.From && (w.Until == 0 || t < w.Until)
}

// QueueModel is a rate-limited bottleneck with a bounded FIFO in front of
// it: frames are serviced at RateBitsPerSec, a frame arriving while the
// queue holds MaxFrames is tail-dropped, and every queued frame picks up
// real queueing delay behind the frames ahead of it — the bufferbloat
// mechanism, producing RTT inflation under load and delay spikes that
// confuse RTO estimators.
type QueueModel struct {
	RateBitsPerSec int64
	MaxFrames      int
}

// LinkConditions is a segment's impairment plan (see the stage list at the
// top of this file). The zero value (and a nil pointer) is a perfect wire.
// Seeded: the same plan replays bit-identically.
type LinkConditions struct {
	// Seed drives every probabilistic stage (see SetConditions).
	Seed uint64

	// LossProb drops a frame with this probability.
	LossProb float64
	// DupProb delivers a frame twice.
	DupProb float64
	// CorruptProb flips one bit of the frame (after the link CRC would have
	// passed, to exercise transport checksums).
	CorruptProb float64
	// ReorderProb delays a frame by ReorderDelay, letting later frames
	// overtake it.
	ReorderProb  float64
	ReorderDelay time.Duration

	// Flaps scripts whole-link outages: during each window the link is
	// down and every frame is dropped silently.
	Flaps []Window

	// Partitions scripts blackhole windows: while one is open the whole
	// segment is dark and every frame is dropped silently — no reset, no
	// error, exactly like a dead route.
	Partitions []Window

	// Burst is the Gilbert–Elliott bursty-loss model (both directions).
	Burst *GilbertElliott

	// Forward and Reverse impair one direction each: Forward applies to
	// frames from the lower station address to the higher, Reverse to the
	// opposite direction (attach order gives hosts ascending addresses, so
	// in a two-host world Forward is h0→h1).
	Forward, Reverse *PathShape

	// Queue, when non-nil, sends every surviving frame through a
	// rate-limited bounded queue (bufferbloat).
	Queue *QueueModel
}

func (lc *LinkConditions) frameFaults() bool {
	return lc.LossProb > 0 || lc.DupProb > 0 || lc.CorruptProb > 0 || lc.ReorderProb > 0
}

func (lc *LinkConditions) active() bool {
	return lc != nil && (lc.frameFaults() || len(lc.Flaps) > 0 || len(lc.Partitions) > 0 ||
		lc.Burst != nil || lc.Forward.active() || lc.Reverse.active() || lc.Queue != nil)
}

// condState is the runtime state of a segment's impairment plan.
type condState struct {
	lc *LinkConditions
	// One generator per probabilistic stage, nil while the stage is off.
	faultRNG, burstRNG, pathRNG *rand.Rand
	bad                         bool // Gilbert–Elliott state (false = Good)
	qLen                        int
	qEnd                        sim.Time // bottleneck busy-until
}

// SetConditions installs the segment's impairment plan, replacing the one
// before it; nil (or a plan with no stage on) restores a perfect wire. It
// may be called at any virtual instant, before or during a run: installing
// restarts every stage's generator from Seed and resets the burst state and
// the queue, so a plan installed at a deterministic instant replays
// bit-identically.
//
// Draw discipline: each probabilistic stage (frame faults, burst, path
// loss) draws from its own generator, and only for the frames that reach
// it. The stage that is i-th among the plan's active probabilistic stages,
// in pipeline order, is seeded with mix(Seed, i), where mix(Seed, 0) = Seed.
// So a plan with one probabilistic stage draws exactly the sequence of
// rand.NewSource(Seed), and turning on a later stage never shifts an
// earlier stage's draws. Flaps, partitions and the queue draw nothing.
func (g *Segment) SetConditions(lc *LinkConditions) {
	if !lc.active() {
		g.cond = nil
		return
	}
	cs := &condState{lc: lc}
	i := 0
	stream := func(on bool) *rand.Rand {
		if !on {
			return nil
		}
		seed := lc.Seed ^ uint64(i)*0x9E3779B97F4A7C15 // mix(Seed, i)
		i++
		return rand.New(rand.NewSource(int64(seed)))
	}
	cs.faultRNG = stream(lc.frameFaults())
	cs.burstRNG = stream(lc.Burst != nil)
	cs.pathRNG = stream(lc.Forward.active() || lc.Reverse.active())
	g.cond = cs
}

// forwardDir reports whether src→dst is the plan's forward direction
// (lower station address toward higher).
func forwardDir(src, dst link.Addr) bool {
	for i := range src {
		if src[i] != dst[i] {
			return src[i] < dst[i]
		}
	}
	return false
}

// condDropKind names the stage that dropped a frame (empty = keep it).
type condDropKind string

const (
	condKeep      condDropKind = ""
	condLoss      condDropKind = "loss"
	condFlap      condDropKind = "flap"
	condPartition condDropKind = "partition"
	condBurst     condDropKind = "burst-loss"
	condPath      condDropKind = "path-loss"
	condQueueFull condDropKind = "queue-full"
)

// apply runs one frame through the pipeline. It returns the stage that
// dropped it (condKeep to deliver) and the delay to add to the propagation
// time. A duplicate is scheduled here, straight for delivery after the
// propagation time.
func (cs *condState) apply(g *Segment, f *inflight) (condDropKind, time.Duration) {
	lc, b, now := cs.lc, f.b, g.s.Now()
	var extra time.Duration

	if r := cs.faultRNG; r != nil {
		if r.Float64() < lc.LossProb {
			return condLoss, 0
		}
		if r.Float64() < lc.CorruptProb && b.Len() > 0 {
			g.stats.Corrupted++
			bit := r.Intn(b.Len() * 8)
			b.Bytes()[bit/8] ^= 1 << (bit % 8)
			b.Meta.Corrupt = true
			if g.s.Bus.Enabled() {
				g.s.Bus.Emit(trace.Event{Kind: trace.FrameCorrupt, Node: g.cfg.Name,
					A: int64(bit / 8), Frame: b.Bytes()})
			}
		}
		if r.Float64() < lc.DupProb {
			g.stats.Duplicated++
			if g.s.Bus.Enabled() {
				g.s.Bus.Emit(trace.Event{Kind: trace.FrameDup, Node: g.cfg.Name,
					A: int64(b.Len()), Frame: b.Bytes()})
			}
			g.s.AfterArg(g.cfg.Propagation, deliverCB, g.newInflight(inflight{src: f.src, dst: f.dst, b: b.Clone()}))
		}
		if r.Float64() < lc.ReorderProb {
			g.stats.Reordered++
			if g.s.Bus.Enabled() {
				g.s.Bus.Emit(trace.Event{Kind: trace.FrameReorder, Node: g.cfg.Name,
					A: int64(b.Len()), B: int64(lc.ReorderDelay), Frame: b.Bytes()})
			}
			extra += lc.ReorderDelay
		}
	}

	for _, w := range lc.Flaps {
		if w.contains(now) {
			g.stats.FlapDrops++
			return condFlap, 0
		}
	}
	for _, w := range lc.Partitions {
		if w.contains(now) {
			g.stats.PartitionDrops++
			return condPartition, 0
		}
	}

	if ge, r := lc.Burst, cs.burstRNG; ge != nil {
		if cs.bad {
			if r.Float64() < ge.PBadGood {
				cs.bad = false
			}
		} else if r.Float64() < ge.PGoodBad {
			cs.bad = true
		}
		if cs.bad {
			g.stats.BadStateFrames++
			if ge.LossBad > 0 && r.Float64() < ge.LossBad {
				g.stats.BurstDrops++
				return condBurst, 0
			}
		}
	}

	shape := lc.Forward
	if !forwardDir(f.src, f.dst) {
		shape = lc.Reverse
	}
	if shape.active() && cs.pathRNG.Float64() < shape.LossProb {
		g.stats.PathDrops++
		return condPath, 0
	}

	if q := lc.Queue; q != nil {
		if cs.qLen >= q.MaxFrames {
			g.stats.QueueDrops++
			return condQueueFull, 0
		}
		svc := time.Duration(int64(b.Len()+g.cfg.FrameOverhead) * 8 *
			int64(time.Second) / q.RateBitsPerSec)
		start := now
		if cs.qEnd > start {
			g.stats.QueuedFrames++
			start = cs.qEnd
		}
		depart := start + sim.Time(svc)
		cs.qEnd = depart
		cs.qLen++
		g.s.AfterArg(sim.Dur(depart-now), condDepartCB, cs)
		extra += time.Duration(depart - now)
	}

	return condKeep, extra
}

func condDepartCB(a any) {
	cs := a.(*condState)
	cs.qLen--
}
