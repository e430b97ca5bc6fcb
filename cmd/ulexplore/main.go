// Command ulexplore runs the coverage-guided fault-schedule explorer
// against the TCP engine: a baseline pass over the scenario library (which
// alone walks every legal RFC 793 transition edge), then seeded mutation
// rounds that place extra faults — frame drops, injected resets, aborts,
// link cuts — steered toward any still-uncovered edges. Every run streams
// through the conformance checker; violations are delta-debugged down to
// minimal deterministic reproducers.
//
// Usage:
//
//	ulexplore                          # default seed/budget campaign
//	ulexplore -seed 7 -budget 500      # bigger seeded campaign
//	ulexplore -min-coverage 0.9        # fail if edge coverage falls short
//	ulexplore -out repro.json          # write reproducers as JSON artifacts
//	ulexplore -replay repro.json       # re-run a saved reproducer
//
// Exit status: 0 on a clean campaign, 1 if any violation was found or the
// coverage floor was missed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"ulp/internal/explore"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

// run is the whole command: it parses args, writes its report to stdout and
// returns the exit status.
func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("ulexplore", flag.ContinueOnError)
	seed := fs.Uint64("seed", 1, "mutation RNG seed (same seed => identical campaign)")
	budget := fs.Int("budget", 100, "total scenario executions (baseline library runs count)")
	minCov := fs.Float64("min-coverage", 0.9, "minimum fraction of legal (state, trigger) edges to exercise")
	out := fs.String("out", "", "write reproducers (JSON) to this file")
	replay := fs.String("replay", "", "replay a reproducer file instead of exploring")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *replay != "" {
		return runReplay(*replay, stdout)
	}

	rep := explore.New(*seed, *budget).Explore()
	fmt.Fprintf(stdout, "explored %d schedules: %d/%d legal edges (%.0f%%), %d reproducers\n",
		rep.Runs, rep.Covered, rep.Total, 100*rep.Coverage, len(rep.Reproducers))
	for _, e := range rep.Missing {
		fmt.Fprintln(stdout, "  uncovered:", e)
	}
	for _, r := range rep.Reproducers {
		fmt.Fprintf(stdout, "  VIOLATION %s in %q (%d-fault reproducer): %s\n",
			r.Violation.Rule, r.Scenario, len(r.Faults), r.Violation.Detail)
	}

	if *out != "" && len(rep.Reproducers) > 0 {
		blob, err := json.MarshalIndent(rep.Reproducers, "", "  ")
		if err == nil {
			err = os.WriteFile(*out, blob, 0o644)
		}
		if err != nil {
			fmt.Fprintln(stdout, "write reproducers:", err)
			return 1
		}
		fmt.Fprintln(stdout, "reproducers written to", *out)
	}

	if len(rep.Reproducers) > 0 || rep.Coverage < *minCov {
		if rep.Coverage < *minCov {
			fmt.Fprintf(stdout, "coverage %.2f below floor %.2f\n", rep.Coverage, *minCov)
		}
		return 1
	}
	return 0
}

func runReplay(path string, stdout io.Writer) int {
	blob, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintln(stdout, "replay:", err)
		return 1
	}
	var repros []explore.Reproducer
	if err := json.Unmarshal(blob, &repros); err != nil {
		// Also accept a single reproducer object.
		var one explore.Reproducer
		if err2 := json.Unmarshal(blob, &one); err2 != nil {
			fmt.Fprintln(stdout, "replay:", err)
			return 1
		}
		repros = []explore.Reproducer{one}
	}
	status := 0
	for _, r := range repros {
		res, err := explore.Replay(r)
		if err != nil {
			fmt.Fprintf(stdout, "%s: %v\n", r.Scenario, err)
			status = 1
			continue
		}
		fmt.Fprintf(stdout, "%s: reproduced %s (%d violations, %d steps, %d frames)\n",
			r.Scenario, r.Violation.Rule, len(res.Violations), res.Steps, res.Frames)
	}
	return status
}
