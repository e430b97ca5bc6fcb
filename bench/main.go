// Command bench is the repository's benchmark: four workloads on the
// user-level organization, measured on the virtual clock (exact) and the
// wall clock (minimum over repetitions), with per-layer attribution from a
// separate traced run. README.md in this directory is the manual.
//
//	bash bench/run.sh --workload churn --seed 1 --seconds 20 --trace 0
//	go run ./bench -compare A.json B.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
)

func main() {
	cfg := runConfig{Scale: 1}
	flag.StringVar(&cfg.Workload, "workload", "", "churn, bulk, reqresp, lossy_iid or lossy_bulk")
	flag.Uint64Var(&cfg.Seed, "seed", 1, "every generated input derives from it")
	flag.Float64Var(&cfg.Seconds, "seconds", runSeconds, "how long to measure")
	flag.IntVar(&cfg.Trace, "trace", 0, "0: end-to-end metrics; 1: per-layer metrics from traced repetitions and probes")
	out := flag.String("out", "", "append this run's record to the results file (a JSON array) for -compare")
	doCompare := flag.Bool("compare", false, "compare two results files: -compare [-exact] A.json B.json")
	exact := flag.Bool("exact", false, "with -compare: seeds both files ran must give identical virtual results")
	doManifest := flag.Bool("manifest", false, "print BENCHMARK.json")
	child := flag.String("child", "", "internal: the JSON request of a parent run; run its repetitions here, one JSON line each")
	flag.Parse()

	// The simulator runs one goroutine at a time; a second P only adds
	// cross-core wake-ups (README, "Estimators").
	runtime.GOMAXPROCS(1)

	switch {
	case *doManifest:
		os.Stdout.Write(manifest())
	case *doCompare:
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("bench: -compare takes two results files"))
		}
		regressed, err := compare(os.Stdout, flag.Arg(0), flag.Arg(1), *exact)
		if err != nil {
			fatal(err)
		}
		if regressed > 0 {
			fmt.Printf("%d regressed\n", regressed)
			os.Exit(1)
		}
	case *child != "":
		if err := childMain(*child, os.Stdout); err != nil {
			fatal(err)
		}
	default:
		if cfg.Trace != 0 && cfg.Trace != 1 {
			fatal(fmt.Errorf("bench: -trace is 0 or 1"))
		}
		rec, err := measure(cfg, os.Stdout)
		if err != nil {
			fatal(err)
		}
		if *out != "" {
			if err := appendRecord(*out, rec); err != nil {
				fatal(err)
			}
		}
		// The last line of standard output is the result, for the driver.
		last, err := json.Marshal(struct {
			Correct   bool             `json:"correct"`
			Attempted int              `json:"attempted"`
			Failed    int              `json:"failed"`
			Metrics   map[string]value `json:"metrics"`
		}{rec.Correct, rec.Attempted, rec.Failed, rec.Metrics})
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%s\n", last)
		if !rec.Correct {
			os.Exit(1)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(2)
}
