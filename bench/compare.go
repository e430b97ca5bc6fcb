package main

import (
	"fmt"
	"io"
	"sort"
)

// quartiles returns the first and third quartile of vals the way Python's
// statistics.quantiles(vals, n=4) does (exclusive method), so that spreads
// computed here match the ones the benchmark is accepted by.
func quartiles(vals []float64) (q1, q3 float64) {
	d := append([]float64(nil), vals...)
	sort.Float64s(d)
	m := len(d)
	if m < 2 {
		return d[0], d[0]
	}
	at := func(i int) float64 {
		j := i * (m + 1) / 4
		j = min(max(j, 1), m-1)
		delta := float64(i*(m+1) - j*4)
		return (d[j-1]*(4-delta) + d[j]*delta) / 4
	}
	return at(1), at(3)
}

// side summarises one results file's runs of one workload on one metric.
type side struct {
	vals   []float64
	median float64
	spread float64 // (q3 - q1) / median
}

func summarise(vals []float64) side {
	s := side{vals: vals}
	d := append([]float64(nil), vals...)
	sort.Float64s(d)
	s.median = median(d)
	q1, q3 := quartiles(vals)
	if s.median != 0 {
		s.spread = (q3 - q1) / s.median
	}
	return s
}

// compare prints, per workload and end-to-end metric, both files' medians,
// the change, the bound and a verdict, and returns how many rows regressed.
//
// A metric that repeats exactly for one seed (e2eMetric.Paired > 0) is
// compared seed by seed over the seeds both files ran: B regresses when the
// median of its per-seed changes is worse than the paired bound. A wall-clock
// metric, or one with no seed in common, is compared unpaired: B regresses
// when its median is worse than A's by more than the BENCHMARK.json bound,
// and where either side's own spread exceeds that bound the row is
// unresolved instead, unless every run of B reads better than every run of A.
//
// Three more rows per workload: B regresses when a larger share of its ops
// failed than of A's (bound 0), when more of its runs were incorrect than of
// A's, and, with exact set, when a seed both files ran gave different virtual
// results: the rule for two sets of one commit.
func compare(w io.Writer, pathA, pathB string, exact bool) (regressed int, err error) {
	a, err := readRecords(pathA)
	if err != nil {
		return 0, fmt.Errorf("bench: compare: %w", err)
	}
	b, err := readRecords(pathB)
	if err != nil {
		return 0, fmt.Errorf("bench: compare: %w", err)
	}
	fmt.Fprintf(w, "A = %s\nB = %s\n", pathA, pathB)
	fmt.Fprintf(w, "%-11s %-19s %-9s %14s %14s %9s %6s  %-10s %s\n",
		"workload", "metric", "runs", "A median", "B median", "B worse", "bound", "verdict", "note")
	row := func(wl, name, runs string, va, vb, worse, bound float64, verdict, note string) {
		if verdict == "regressed" {
			regressed++
		}
		fmt.Fprintf(w, "%-11s %-19s %-9s %14.6f %14.6f %+8.2f%% %5.0f%%  %-10s %s\n",
			wl, name, runs, va, vb, 100*worse, 100*bound, verdict, note)
	}
	for _, wl := range workloads {
		ra, rb := untraced(a, wl.name), untraced(b, wl.name)
		if len(ra) == 0 || len(rb) == 0 {
			continue
		}
		fmt.Fprintf(w, "%-11s A: %d runs, median %g repetitions a run; B: %d runs, median %g\n", wl.name,
			len(ra), summarise(valuesOf(ra, reps)).median, len(rb), summarise(valuesOf(rb, reps)).median)
		metrics := append([]e2eMetric(nil), endToEnd...)
		for _, m := range issueNames {
			metrics = append(metrics, m.e2eMetric)
		}
		for _, m := range metrics {
			get := func(r runRecord) (float64, bool) {
				v, ok := r.Metrics[m.Name]
				if !ok {
					v, ok = r.Named[m.Name]
				}
				return v.Value, ok
			}
			sign := 1.0
			if m.Better == "higher" {
				sign = -1
			}
			if pa, pb := pairs(ra, rb, get); m.Paired > 0 && len(pa) > 0 {
				changes := make([]float64, len(pa))
				for i := range pa {
					changes[i] = sign * (pb[i] - pa[i]) / pa[i]
				}
				sort.Float64s(changes)
				verdict := "ok"
				if median(changes) > m.Paired {
					verdict = "regressed"
				}
				sort.Float64s(pa)
				sort.Float64s(pb)
				row(wl.name, m.Name, fmt.Sprintf("%d paired", len(pa)), median(pa), median(pb), median(changes), m.Paired,
					verdict, fmt.Sprintf("paired by seed; worst seed %+.2f%%", 100*changes[len(changes)-1]))
				continue
			}
			va, vb := valuesOf(ra, get), valuesOf(rb, get)
			if len(va) == 0 || len(vb) == 0 || m.Bound == 0 {
				continue
			}
			sa, sb := summarise(va), summarise(vb)
			worse := sign * (sb.median - sa.median) / sa.median
			verdict := "ok"
			switch {
			case max(sa.spread, sb.spread) > m.Bound && !allBetter(vb, va, m.Better):
				verdict = "unresolved"
			case worse > m.Bound:
				verdict = "regressed"
			}
			row(wl.name, m.Name, fmt.Sprintf("%d/%d", len(va), len(vb)), sa.median, sb.median, worse, m.Bound,
				verdict, fmt.Sprintf("spread A %.2f%% B %.2f%%", 100*sa.spread, 100*sb.spread))
		}

		fa, fb := failedShare(ra), failedShare(rb)
		verdict := "ok"
		if fb > fa {
			verdict = "regressed"
		}
		row(wl.name, "ops_failed_share", fmt.Sprintf("%d/%d", len(ra), len(rb)), fa, fb, fb-fa, 0, verdict, "mean over runs of failed / attempted; B worse is the difference")

		ia, ib := incorrect(ra), incorrect(rb)
		verdict = "ok"
		if ib > ia {
			verdict = "regressed"
		}
		fmt.Fprintf(w, "%-11s runs with a failed output check: A %d, B %d  %s\n", wl.name, ia, ib, verdict)
		if verdict == "regressed" {
			regressed++
		}

		same, differ := 0, 0
		for _, x := range ra {
			for _, y := range rb {
				if x.Seed == y.Seed && x.Scale == y.Scale {
					if x.Digest == y.Digest {
						same++
					} else {
						differ++
					}
				}
			}
		}
		if same+differ > 0 {
			verdict := "ok"
			if differ > 0 && exact {
				verdict = "regressed"
				regressed++
			}
			fmt.Fprintf(w, "%-11s virtual results of the seeds both ran: %d identical, %d different  %s\n",
				wl.name, same, differ, verdict)
		}
	}
	return regressed, nil
}

// untraced returns the records of one workload's end-to-end runs.
func untraced(recs []runRecord, workload string) []runRecord {
	var out []runRecord
	for _, r := range recs {
		if r.Workload == workload && r.Trace == 0 {
			out = append(out, r)
		}
	}
	return out
}

// valuesOf returns the values get finds in recs, in record order.
func valuesOf(recs []runRecord, get func(runRecord) (float64, bool)) []float64 {
	var out []float64
	for _, r := range recs {
		if v, ok := get(r); ok {
			out = append(out, v)
		}
	}
	return out
}

func reps(r runRecord) (float64, bool) { return float64(r.Reps), true }

// pairs returns, for each seed and scale both sides ran, A's value and B's;
// of several runs of one seed in a file the last counts. A seed on which A
// reads 0 (lossy_bulk when nothing connects) gives no ratio and is left to
// the failed-share and failed-check rows.
func pairs(ra, rb []runRecord, get func(runRecord) (float64, bool)) (pa, pb []float64) {
	type key struct {
		seed  uint64
		scale float64
	}
	inB := map[key]float64{}
	for _, r := range rb {
		if v, ok := get(r); ok {
			inB[key{r.Seed, r.Scale}] = v
		}
	}
	inA := map[key]float64{}
	for _, r := range ra {
		if v, ok := get(r); ok {
			inA[key{r.Seed, r.Scale}] = v
		}
	}
	for _, r := range ra { // record order, so the output does not depend on map order
		k := key{r.Seed, r.Scale}
		va, okA := inA[k]
		vb, okB := inB[k]
		if okA && okB && va != 0 {
			pa, pb = append(pa, va), append(pb, vb)
			delete(inA, k)
		}
	}
	return pa, pb
}

// failedShare is the mean over runs of failed / attempted. Each run weighs
// the same however many repetitions it fitted into its time, so two files of
// one commit and the same seeds agree exactly.
func failedShare(recs []runRecord) float64 {
	var sum float64
	for _, r := range recs {
		sum += float64(r.Failed) / float64(max(r.Attempted, 1))
	}
	return sum / float64(len(recs))
}

func incorrect(recs []runRecord) int {
	n := 0
	for _, r := range recs {
		if !r.Correct {
			n++
		}
	}
	return n
}

// allBetter reports whether every value of b is better than every value of a.
func allBetter(b, a []float64, better string) bool {
	for _, x := range b {
		for _, y := range a {
			if better == "lower" && x >= y || better == "higher" && x <= y {
				return false
			}
		}
	}
	return true
}
