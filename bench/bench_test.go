package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// TestMain lets the test binary stand in for the benchmark's own: a run
// re-executes os.Executable() with -child, and here that is this binary, so
// the smoke test goes through the child processes every real run uses.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "-child" {
		main()
		return
	}
	os.Exit(m.Run())
}

// TestSmoke runs every workload at 1/50 size, untraced and traced. It
// asserts what a full run asserts — every output check, exact virtual
// equality across repetitions (traced ones included), zero conformance
// violations — and round-trips the records through the results file and
// -compare.
func TestSmoke(t *testing.T) {
	dir := t.TempDir()
	a, b := filepath.Join(dir, "a.json"), filepath.Join(dir, "b.json")
	rows := 0 // verdicts -compare should print
	for _, wl := range workloads {
		rows += len(endToEnd) + 3
		for _, m := range issueNames {
			if slices.Contains(m.on, wl.name) {
				rows++
			}
		}
		for _, trace := range []int{0, 1} {
			cfg := runConfig{Workload: wl.name, Seed: 7, Seconds: 0, Scale: 0.02, Trace: trace}
			rec, err := measure(cfg, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			// lossy_bulk sets up under loss: on this seed two connects fail
			// and each leaks ports (README, "Findings"), so it is run and
			// compared here but not held to zero failures; a later fix to
			// the program must not fail this test.
			if wl.unlisted {
				t.Logf("%s trace %d: correct=%v attempted=%d failed=%d errors=%q",
					wl.name, trace, rec.Correct, rec.Attempted, rec.Failed, rec.Errors)
			} else if !rec.Correct || rec.Attempted == 0 || rec.Failed != 0 {
				t.Errorf("%s trace %d: correct=%v attempted=%d failed=%d errors=%q",
					wl.name, trace, rec.Correct, rec.Attempted, rec.Failed, rec.Errors)
			}
			want := len(endToEnd)
			if trace == 1 {
				want = len(perLayer)
			}
			if len(rec.Metrics) != want {
				t.Errorf("%s trace %d: %d metrics reported, %d defined", wl.name, trace, len(rec.Metrics), want)
			}
			// churn's world has every layer; the two-host worlds have no
			// sharded registry and so no admission counter.
			if wl.name == "churn" && len(rec.Absent) > 0 {
				t.Errorf("churn: counters the program does not export: %v", rec.Absent)
			}
			for _, path := range []string{a, b} {
				if err := appendRecord(path, rec); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	var out bytes.Buffer
	regressed, err := compare(&out, a, b, true)
	if err != nil || regressed != 0 {
		t.Fatalf("comparing a results file with its copy: %d regressed, err %v\n%s", regressed, err, out.String())
	}
	if n := strings.Count(out.String(), " ok"); n != rows {
		t.Errorf("compare printed %d ok verdicts, want %d:\n%s", n, rows, out.String())
	}

	// A worse B must be caught, one regression for each doctored number.
	doctored := map[string]func(r *runRecord){
		"churn": func(r *runRecord) { r.Correct = false },
		"bulk":  func(r *runRecord) { r.Digest = "changed" },
		// 2 % is inside op_p50_vus's unpaired bound and outside its paired one.
		"reqresp":   func(r *runRecord) { r.Metrics["op_p50_vus"] = value{1.02 * r.Metrics["op_p50_vus"].Value, "us"} },
		"lossy_iid": func(r *runRecord) { r.Failed += r.Attempted / 3 },
	}
	recs, err := readRecords(b)
	if err != nil {
		t.Fatal(err)
	}
	os.Remove(b)
	for i := range recs {
		if v, ok := recs[i].Metrics["wall_s"]; ok {
			recs[i].Metrics["wall_s"] = value{2 * v.Value, v.Unit}
			if f := doctored[recs[i].Workload]; f != nil {
				f(&recs[i])
			}
		}
		if err := appendRecord(b, &recs[i]); err != nil {
			t.Fatal(err)
		}
	}
	out.Reset()
	if regressed, _ := compare(&out, a, b, true); regressed != len(workloads)+len(doctored) {
		t.Errorf("compare found %d regressions in a doctored file, want %d:\n%s", regressed, len(workloads)+len(doctored), out.String())
	}
}

// TestSeedDrivesInputs checks that a seed repeats exactly and that another
// seed gives other inputs.
func TestSeedDrivesInputs(t *testing.T) {
	wl := workloadByName("reqresp")
	r1, r2, r3 := runRep(wl, 1, 0.02, false), runRep(wl, 1, 0.02, false), runRep(wl, 2, 0.02, false)
	if r1.Digest != r2.Digest {
		t.Errorf("seed 1 twice: digests %s and %s", r1.Digest, r2.Digest)
	}
	if r1.Digest == r3.Digest {
		t.Errorf("seeds 1 and 2 give the same virtual results (%s)", r1.Digest)
	}
}

// TestManifest keeps BENCHMARK.json, which the driver reads, equal to the
// tables the program reports from.
func TestManifest(t *testing.T) {
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside bench/: ", err)
	}
	if !bytes.Equal(got, manifest()) {
		t.Error("BENCHMARK.json differs from `go run ./bench -manifest`; regenerate it")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	q1, q3 := quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if q1 != 3.5 || q3 != 31 {
		t.Errorf("quartiles = %v, %v; Python gives 3.5, 31.0", q1, q3)
	}
}
