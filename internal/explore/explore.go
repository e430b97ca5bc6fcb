package explore

import (
	"fmt"
	"math/rand"

	"ulp/internal/conform"
	"ulp/internal/tcp"
)

// Reproducer is a minimal, deterministic recipe for a conformance
// violation: scenario name, the shrunk extra fault schedule, and the
// violation it produces. Feeding it to Replay reproduces the violation
// bit-for-bit (the harness consumes no randomness).
type Reproducer struct {
	Scenario  string            `json:"scenario"`
	Faults    []Fault           `json:"faults"`
	Seed      uint64            `json:"seed"` // explorer seed that found it
	Violation conform.Violation `json:"violation"`
}

// Report summarizes an exploration campaign.
type Report struct {
	Runs        int            `json:"runs"`
	Coverage    float64        `json:"coverage"` // fraction of legal edges hit
	Covered     int            `json:"covered"`
	Total       int            `json:"total"`
	Missing     []conform.Edge `json:"missing,omitempty"`
	Reproducers []Reproducer   `json:"reproducers,omitempty"`
}

// Explorer runs the campaign: a baseline pass over the scenario library,
// then seeded mutation rounds that place extra faults, steered toward
// whatever legal edges remain uncovered.
type Explorer struct {
	Seed   uint64
	Budget int // scenario executions (mutation rounds; shrinking is extra)

	rng    *rand.Rand
	cov    *conform.Coverage
	runs   int
	repros []Reproducer
	seen   map[string]bool
}

// New creates an explorer with a deterministic seed and run budget.
func New(seed uint64, budget int) *Explorer {
	return &Explorer{
		Seed:   seed,
		Budget: budget,
		rng:    rand.New(rand.NewSource(int64(seed))),
		cov:    conform.NewCoverage(),
		seen:   make(map[string]bool),
	}
}

// Explore runs the campaign and returns the report.
func (x *Explorer) Explore() Report {
	lib := Library()

	// Baseline: every library scenario with no extra faults. The library
	// alone is built to cover the full legal relation; baselines also
	// surface violations reachable without any scheduled fault at all.
	for _, sc := range lib {
		x.run(sc, nil)
	}

	// Mutation rounds: spend the remaining budget perturbing scenarios,
	// picking fault kinds from the trigger classes of still-missing edges.
	for x.runs < x.Budget {
		sc := lib[x.rng.Intn(len(lib))]
		x.run(sc, x.mutate(sc))
	}

	return Report{
		Runs:        x.runs,
		Coverage:    x.cov.Frac(),
		Covered:     x.cov.Count(),
		Total:       x.cov.Total(),
		Missing:     x.cov.Missing(),
		Reproducers: x.repros,
	}
}

// run executes one schedule, merges coverage, and shrinks any violation
// into a reproducer (deduplicated by scenario and rule/edge signature).
func (x *Explorer) run(sc Scenario, faults []Fault) Result {
	x.runs++
	res := Run(sc, faults)
	x.cov.Merge(res.Coverage)
	for _, v := range res.Violations {
		key := sc.Name + "|" + violationKey(v)
		if x.seen[key] {
			continue
		}
		x.seen[key] = true
		min := Shrink(sc, faults, v.Rule)
		rerun := Run(sc, min)
		if len(rerun.Violations) == 0 {
			continue // shrink invariant broken; keep the unshrunk schedule
		}
		x.repros = append(x.repros, Reproducer{
			Scenario:  sc.Name,
			Faults:    min,
			Seed:      x.Seed,
			Violation: rerun.Violations[0],
		})
	}
	return res
}

func violationKey(v conform.Violation) string {
	if v.Edge != nil {
		return v.Rule + "|" + v.Edge.String()
	}
	return v.Rule
}

// mutate builds an extra fault schedule of 1-3 points. When legal edges are
// still uncovered, the fault kind is drawn from a missing edge's trigger
// class (a reset edge wants an injected RST, a user edge an abort or close,
// a timer edge a wire cut); otherwise kinds are drawn uniformly, with
// frame-index drops aimed at the early frames where the handshake and
// close live.
func (x *Explorer) mutate(sc Scenario) []Fault {
	n := 1 + x.rng.Intn(3)
	faults := make([]Fault, 0, n)
	missing := x.cov.Missing()
	maxStep := sc.MaxSteps
	if maxStep == 0 || maxStep > 120 {
		maxStep = 120
	}
	for i := 0; i < n; i++ {
		side := Side(x.rng.Intn(2))
		step := x.rng.Intn(maxStep)
		var f Fault
		if len(missing) > 0 && x.rng.Intn(2) == 0 {
			e := missing[x.rng.Intn(len(missing))]
			switch e.Via {
			case tcp.TrigReset:
				f = Fault{Kind: FaultRST, At: step, Side: side}
			case tcp.TrigUser:
				if x.rng.Intn(2) == 0 {
					f = Fault{Kind: FaultAbort, At: step, Side: side}
				} else {
					f = Fault{Kind: FaultClose, At: step, Side: side}
				}
			case tcp.TrigTimer:
				// Timer edges fire when the wire dies; a permanent cut, a
				// healing partition and a flap schedule all get there by
				// different retransmission histories.
				switch x.rng.Intn(3) {
				case 0:
					f = Fault{Kind: FaultCut, At: step}
				case 1:
					f = Fault{Kind: FaultPartition, At: step, Dur: 5 + x.rng.Intn(40)}
				default:
					f = Fault{Kind: FaultFlap, At: step, Dur: 2 + x.rng.Intn(15)}
				}
			default:
				f = Fault{Kind: FaultDrop, At: x.rng.Intn(40)}
			}
		} else {
			switch x.rng.Intn(7) {
			case 0:
				f = Fault{Kind: FaultDrop, At: x.rng.Intn(40)}
			case 1:
				f = Fault{Kind: FaultRST, At: step, Side: side}
			case 2:
				f = Fault{Kind: FaultAbort, At: step, Side: side}
			case 3:
				f = Fault{Kind: FaultClose, At: step, Side: side}
			case 4:
				f = Fault{Kind: FaultPartition, At: step, Dur: 5 + x.rng.Intn(40)}
			case 5:
				f = Fault{Kind: FaultFlap, At: step, Dur: 2 + x.rng.Intn(15)}
			default:
				f = Fault{Kind: FaultCut, At: step}
			}
		}
		faults = append(faults, f)
	}
	return faults
}

// Shrink delta-debugs a fault schedule to a minimal list that still
// produces a violation of the given rule: repeatedly drop any single fault
// whose removal preserves the violation, to a fixed point. Schedules here
// are small (<= a handful of points), so the greedy loop is the whole of
// ddmin that is needed.
func Shrink(sc Scenario, faults []Fault, rule string) []Fault {
	cur := append([]Fault(nil), faults...)
	for {
		removed := false
		for i := range cur {
			cand := make([]Fault, 0, len(cur)-1)
			cand = append(cand, cur[:i]...)
			cand = append(cand, cur[i+1:]...)
			if hasRule(Run(sc, cand), rule) {
				cur = cand
				removed = true
				break
			}
		}
		if !removed {
			return cur
		}
	}
}

func hasRule(res Result, rule string) bool {
	for _, v := range res.Violations {
		if v.Rule == rule {
			return true
		}
	}
	return false
}

// Replay re-executes a reproducer and reports whether the recorded
// violation rule recurs.
func Replay(r Reproducer) (Result, error) {
	sc, ok := ScenarioByName(r.Scenario)
	if !ok {
		return Result{}, fmt.Errorf("explore: unknown scenario %q", r.Scenario)
	}
	res := Run(sc, r.Faults)
	if !hasRule(res, r.Violation.Rule) {
		return res, fmt.Errorf("explore: reproducer for %q did not reproduce (got %d violations)",
			r.Violation.Rule, len(res.Violations))
	}
	return res, nil
}
