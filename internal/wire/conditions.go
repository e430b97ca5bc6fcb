package wire

// Link conditions: time-scripted, correlated network degradation layered on
// top of the i.i.d. Faults model. Faults answers "what if 5% of frames
// vanish"; LinkConditions answers what real degraded paths do — losses come
// in bursts (Gilbert–Elliott), impairment is asymmetric per direction, links
// flap down and up on schedules, partitions blackhole traffic silently (no
// RST, no ICMP — the frames just stop), and a rate-limited bottleneck with a
// bounded queue turns load into real queueing delay (bufferbloat) and tail
// drops.
//
// Composition order per frame: scheduled Faults (no RNG) and probabilistic
// Faults (the segment RNG, draws in the fixed loss/corrupt/dup/reorder
// order) run first, exactly as without conditions; a frame that survives
// them then passes through the conditions layer, which draws only from its
// own dedicated RNG. A nil or inactive LinkConditions therefore leaves every
// existing seeded run bit-identical, and enabling conditions never shifts a
// Faults draw.

import (
	"math/rand"
	"time"

	"ulp/internal/link"
	"ulp/internal/sim"
)

// GilbertElliott is the classic two-state Markov loss model: the channel is
// either Good or Bad, transitions are drawn per frame, and each state has
// its own loss probability. With LossBad near 1 and PBadGood small, losses
// arrive in bursts whose mean length is 1/PBadGood frames — the loss
// correlation i.i.d. LossProb cannot express.
type GilbertElliott struct {
	// PGoodBad and PBadGood are the per-frame state transition
	// probabilities (Good→Bad and Bad→Good).
	PGoodBad, PBadGood float64
	// LossGood and LossBad are the per-frame loss probabilities in each
	// state (typically LossGood ≈ 0, LossBad ≫ 0).
	LossGood, LossBad float64
}

// PathShape is a direction-specific impairment: extra i.i.d. loss and a
// fixed extra one-way delay. Forward and Reverse shapes model asymmetric
// paths (a clean downlink over a lossy uplink, or a long satellite return
// path) that a symmetric fault plan cannot.
type PathShape struct {
	LossProb   float64
	ExtraDelay time.Duration
}

func (p *PathShape) active() bool {
	return p != nil && (p.LossProb > 0 || p.ExtraDelay > 0)
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

// PartitionWindow blackholes frames crossing a cut during the window.
// Hosts lists the stations on one side of the cut: a frame is dropped iff
// exactly one of its endpoints is in the set (traffic within either side
// still flows). An empty Hosts set blackholes the whole segment.
type PartitionWindow struct {
	Window
	Hosts []link.Addr
}

func (p PartitionWindow) severs(src, dst link.Addr) bool {
	if len(p.Hosts) == 0 {
		return true
	}
	in := func(a link.Addr) bool {
		for _, h := range p.Hosts {
			if h == a {
				return true
			}
		}
		return false
	}
	return in(src) != in(dst)
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

// LinkConditions is a full time-scripted degradation plan for a segment.
// The zero value (and a nil pointer) is a perfect pass-through; every
// sub-model is optional and composes with the others. Seeded: the same plan
// replays bit-identically.
type LinkConditions struct {
	// Seed drives the conditions layer's private RNG (burst transitions and
	// probabilistic losses). Independent of Faults.Seed by design.
	Seed uint64

	// Burst is the Gilbert–Elliott bursty-loss model (both directions).
	Burst *GilbertElliott

	// Forward and Reverse impair one direction each: Forward applies to
	// frames from the lower station address to the higher, Reverse to the
	// opposite direction (attach order gives hosts ascending addresses, so
	// in a two-host world Forward is h0→h1).
	Forward, Reverse *PathShape

	// Partitions scripts blackhole windows: frames crossing the cut are
	// dropped silently — no reset, no error, exactly like a dead route.
	Partitions []PartitionWindow

	// Flaps scripts whole-link outages: during each window the link is
	// down and every frame is dropped silently.
	Flaps []Window

	// Queue, when non-nil, sends every surviving frame through a
	// rate-limited bounded queue (bufferbloat).
	Queue *QueueModel
}

// Active reports whether the plan can affect any frame.
func (lc *LinkConditions) Active() bool {
	return lc != nil && (lc.Burst != nil || lc.Forward.active() || lc.Reverse.active() ||
		len(lc.Partitions) > 0 || len(lc.Flaps) > 0 || lc.Queue != nil)
}

// CondStats breaks down the conditions layer's drops and delays; all drop
// counts are also included in the segment's Stats().Dropped total.
type CondStats struct {
	BurstDrops     int // Gilbert–Elliott losses (in either state)
	PathDrops      int // Forward/Reverse directional losses
	PartitionDrops int // frames blackholed by a partition window
	FlapDrops      int // frames lost to a link-down window
	QueueDrops     int // bottleneck tail drops
	QueuedFrames   int // frames that waited behind at least one other frame
	BadStateFrames int // frames that saw the burst model in the Bad state
}

// condState is the runtime state of a segment's conditions layer.
type condState struct {
	lc   *LinkConditions
	rng  *rand.Rand
	bad  bool // Gilbert–Elliott state (false = Good)
	qLen int
	qEnd sim.Time // bottleneck busy-until
	st   CondStats
}

// SetConditions installs a link-condition plan (nil clears). Must be set
// before the run starts; changing conditions mid-run would not be
// replay-deterministic.
func (g *Segment) SetConditions(lc *LinkConditions) {
	if !lc.Active() {
		g.cond = nil
		return
	}
	g.cond = &condState{lc: lc, rng: rand.New(rand.NewSource(int64(lc.Seed)))}
}

// ConditionStats returns the conditions layer's counters (zero value when
// no conditions are installed).
func (g *Segment) ConditionStats() CondStats {
	if g.cond == nil {
		return CondStats{}
	}
	return g.cond.st
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

// condDropKind classifies why the conditions layer dropped a frame (empty =
// keep it).
type condDropKind string

const (
	condKeep      condDropKind = ""
	condFlap      condDropKind = "flap"
	condPartition condDropKind = "partition"
	condBurst     condDropKind = "burst-loss"
	condPath      condDropKind = "path-loss"
	condQueueFull condDropKind = "queue-full"
)

// apply runs one surviving frame through the conditions pipeline. It
// returns the drop classification (condKeep to deliver) and any extra
// delay to add to the propagation time. RNG discipline: the time-scripted
// models (flaps, partitions, queue) draw nothing; the probabilistic models
// draw in a fixed order (burst transition, burst loss, path loss) and only
// when configured, so a given plan's draw sequence depends only on the
// frames that reach this layer.
func (cs *condState) apply(g *Segment, src, dst link.Addr, frameLen int) (condDropKind, time.Duration) {
	lc := cs.lc
	now := g.s.Now()

	for _, w := range lc.Flaps {
		if w.contains(now) {
			cs.st.FlapDrops++
			return condFlap, 0
		}
	}
	for _, p := range lc.Partitions {
		if p.contains(now) && p.severs(src, dst) {
			cs.st.PartitionDrops++
			return condPartition, 0
		}
	}

	if ge := lc.Burst; ge != nil {
		if cs.bad {
			if cs.rng.Float64() < ge.PBadGood {
				cs.bad = false
			}
		} else if cs.rng.Float64() < ge.PGoodBad {
			cs.bad = true
		}
		loss := ge.LossGood
		if cs.bad {
			cs.st.BadStateFrames++
			loss = ge.LossBad
		}
		if loss > 0 && cs.rng.Float64() < loss {
			cs.st.BurstDrops++
			return condBurst, 0
		}
	}

	var extra time.Duration
	shape := lc.Forward
	if !forwardDir(src, dst) {
		shape = lc.Reverse
	}
	if shape.active() {
		if shape.LossProb > 0 && cs.rng.Float64() < shape.LossProb {
			cs.st.PathDrops++
			return condPath, 0
		}
		extra += shape.ExtraDelay
	}

	if q := lc.Queue; q != nil {
		if cs.qLen >= q.MaxFrames {
			cs.st.QueueDrops++
			return condQueueFull, 0
		}
		svc := time.Duration(int64(frameLen+g.cfg.FrameOverhead) * 8 *
			int64(time.Second) / q.RateBitsPerSec)
		start := now
		if cs.qEnd > start {
			cs.st.QueuedFrames++
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
