package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"time"

	"ulp"
)

// runConfig is one invocation: one workload, one seed, one trace mode.
type runConfig struct {
	Workload string  `json:"workload"`
	Seed     uint64  `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Scale    float64 `json:"scale"` // 1 from the command line; the smoke test runs 1/50
	Trace    int     `json:"trace"`
}

// value is one reported number.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runRecord is what -out appends to a results file and -compare reads.
type runRecord struct {
	runConfig
	Meta      meta             `json:"meta"`
	Reps      int              `json:"reps"`
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Digest    string           `json:"virtual_digest"`
	Metrics   map[string]value `json:"metrics"`
	Named     map[string]value `json:"named,omitempty"` // untraced runs: ISSUE 11's names for this workload's virtual results
	Errors    []string         `json:"errors,omitempty"`
	Absent    []string         `json:"absent,omitempty"`
}

// meta records where a run was made.
type meta struct {
	GoVersion  string `json:"go_version"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Commit     string `json:"commit"` // from the build's VCS stamp; "unknown" outside a git checkout
}

func collectMeta() meta {
	m := meta{GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), Commit: "unknown"}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				m.Commit = s.Value
			}
		}
	}
	return m
}

// A finished world stays reachable from its parked goroutines until the
// process exits (churn pins about 660 MB), so a child stops taking on
// repetitions once it holds this much and the parent starts another.
const childRetainedLimitMB = 1000

// childRequest is what a run hands each child process, as JSON after -child.
type childRequest struct {
	Workload string  `json:"workload"`
	Seed     uint64  `json:"seed"`
	Scale    float64 `json:"scale"`
	Traced   bool    `json:"traced"`
	SliceS   float64 `json:"slice_s"` // take on no new repetition after this long
}

// childMain is the body of a child process: repetitions of one workload,
// one JSON line each, until the time slice or the memory allowance is spent.
func childMain(request string, out io.Writer) error {
	var req childRequest
	if err := json.Unmarshal([]byte(request), &req); err != nil {
		return fmt.Errorf("bench: child: request: %w", err)
	}
	wl := workloadByName(req.Workload)
	if wl == nil {
		return fmt.Errorf("bench: child: unknown workload %q", req.Workload)
	}
	enc := json.NewEncoder(out)
	start := time.Now()
	var retained float64
	for {
		r := runRep(wl, req.Seed, req.Scale, req.Traced)
		if err := enc.Encode(r); err != nil {
			return fmt.Errorf("bench: child: write result: %w", err)
		}
		retained += r.RetainedMB
		if time.Since(start).Seconds() >= req.SliceS || retained >= childRetainedLimitMB {
			return nil
		}
	}
}

// batch runs repetitions for about one time slice in a child process, waits
// for it and returns them.
func batch(cfg runConfig, traced bool, slice time.Duration) ([]repResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("bench: locate own binary: %w", err)
	}
	req, err := json.Marshal(childRequest{cfg.Workload, cfg.Seed, cfg.Scale, traced, slice.Seconds()})
	if err != nil {
		return nil, fmt.Errorf("bench: child request: %w", err)
	}
	// A repetition takes about a second; a child that outlives its slice by
	// two minutes is hung, and is killed so that the run ends.
	ctx, cancel := context.WithTimeout(context.Background(), slice+2*time.Minute)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, "-child", string(req))
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, fmt.Errorf("bench: child: %w", err)
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("bench: start child: %w", err)
	}
	var reps []repResult
	dec := json.NewDecoder(stdout)
	var decErr error
	for {
		var r repResult
		if err := dec.Decode(&r); err != nil {
			if err != io.EOF {
				decErr = err
			}
			break
		}
		reps = append(reps, r)
	}
	if err := cmd.Wait(); err != nil {
		return nil, fmt.Errorf("bench: child for %s: %w", cfg.Workload, err)
	}
	if decErr != nil {
		return nil, fmt.Errorf("bench: child for %s: read result: %w", cfg.Workload, decErr)
	}
	return reps, nil
}

// minReps is the fewest untraced repetitions a run accepts, however slow the
// machine: the determinism check needs two, the median three.
const minReps = 3

// measure makes one run and reports it on w. The error is for runs that
// could not be made; a run whose checks fail comes back with Correct false.
func measure(cfg runConfig, w io.Writer) (*runRecord, error) {
	wl := workloadByName(cfg.Workload)
	if wl == nil {
		return nil, fmt.Errorf("bench: unknown workload %q", cfg.Workload)
	}
	deadline := time.Now().Add(time.Duration(cfg.Seconds * float64(time.Second)))
	var plain, traced []repResult
	// Untraced runs are all time slice; a traced run alternates untraced and
	// traced batches, so the overhead ratio compares like with like.
	parts := 1.0
	if cfg.Trace == 1 {
		parts = 4
	}
	for i := 0; ; i++ {
		left := time.Until(deadline)
		enough := len(plain) >= minReps && (cfg.Trace == 0 || len(traced) > 0)
		if left <= 0 && enough {
			break
		}
		slice := time.Duration(cfg.Seconds / parts * float64(time.Second))
		if left < slice {
			slice = max(left, 0)
		}
		wantTraced := cfg.Trace == 1 && i%2 == 1
		reps, err := batch(cfg, wantTraced, slice)
		if err != nil {
			return nil, err
		}
		if wantTraced {
			traced = append(traced, reps...)
		} else {
			plain = append(plain, reps...)
		}
	}

	rec := &runRecord{runConfig: cfg, Meta: collectMeta(), Reps: len(plain), Correct: true,
		Digest: plain[0].Digest, Metrics: map[string]value{}}
	check := func(ok bool, format string, a ...any) {
		if !ok {
			rec.Correct = false
			if len(rec.Errors) < 20 {
				rec.Errors = append(rec.Errors, fmt.Sprintf(format, a...))
			}
		}
	}
	for i, r := range append(append([]repResult{}, plain...), traced...) {
		rec.Attempted += r.Attempted
		rec.Failed += r.Failed
		for _, e := range r.Errors {
			check(false, "repetition %d: %s", i, e)
		}
		check(r.Digest == rec.Digest,
			"repetition %d (traced=%v): virtual results differ from repetition 0's: %.9f s, p50 %d ns, %d events against %.9f s, p50 %d ns, %d events",
			i, r.Traced, float64(r.VirtualNS)/1e9, r.P50NS, r.Events,
			float64(plain[0].VirtualNS)/1e9, plain[0].P50NS, plain[0].Events)
	}

	walls := column(plain, func(r repResult) float64 { return r.WallS })
	first := plain[0]
	ops := float64(first.Attempted - first.Failed)
	virtual := float64(first.VirtualNS) / 1e9
	if cfg.Trace == 0 {
		set := func(name string, v float64) {
			for _, m := range endToEnd {
				if m.Name == name {
					rec.Metrics[name] = value{v, m.Unit}
					check(v > 0 || wl.unlisted, "%s is %v; an end-to-end metric is never 0 on a workload the driver runs", name, v)
				}
			}
		}
		// Minimum, as for wall_s: the first repetition in a child process sets
		// up on a cold heap (1.0-1.2 ms on churn against 0.5-0.8 ms after), and
		// with churn's two repetitions a child the median falls between the two
		// modes (README, "Estimators").
		set("setup_s", column(plain, func(r repResult) float64 { return r.SetupS })[0])
		set("wall_s", walls[0])
		set("alloc_mb", median(column(plain, func(r repResult) float64 { return float64(r.AllocBytes) / 1e6 })))
		set("virtual_s", virtual)
		set("ops_per_vsec", ops/virtual)
		set("op_p50_vus", float64(first.P50NS)/1e3)
		set("op_p99_vus", float64(first.P99NS)/1e3)
		rec.Named = map[string]value{"ops_failed_share": {float64(rec.Failed) / float64(max(rec.Attempted, 1)), "ratio"}}
		for _, m := range issueNames {
			if slices.Contains(m.on, wl.name) {
				rec.Named[m.Name] = value{m.from(&first), m.Unit}
			}
		}
	} else {
		L := map[string]float64{}
		for k, v := range traced[0].Layers {
			L[k] = v
		}
		rec.Absent = traced[0].Absent
		events := float64(first.Events)
		L["sim.events_per_wsec"] = events / walls[0]
		L["go.mallocs_per_event"] = median(column(plain, func(r repResult) float64 { return float64(r.Mallocs) })) / events
		L["go.alloc_bytes_per_event"] = median(column(plain, func(r repResult) float64 { return float64(r.AllocBytes) })) / events
		L["go.gc_cycles"] = median(column(plain, func(r repResult) float64 { return float64(r.GCCycles) }))
		L["go.wall_s_median"] = median(walls)
		L["go.wall_s_p90"] = walls[int(0.9*float64(len(walls)-1))]
		L["go.retained_mb"] = median(column(plain, func(r repResult) float64 { return r.RetainedMB }))
		L["trace.overhead_ratio"] = column(traced, func(r repResult) float64 { return r.WallS })[0] / walls[0]

		probes, err := runProbes(cfg.Scale)
		check(err == nil, "probes: %v", err)
		for k, p := range probes {
			L[k] = p.NS
			fmt.Fprintf(w, "probe %-28s %10.1f ns/op %6.2f allocs/op\n", k, p.NS, p.Allocs)
		}
		for _, org := range []ulp.Org{ulp.OrgInKernel, ulp.OrgSingleServer} {
			goodput, rtt, setup, err := compareOrg(org)
			check(err == nil, "%v", err)
			L["stacks."+org.String()+".goodput_vmbps"] = goodput
			L["stacks."+org.String()+".rtt_vus"] = rtt
			L["stacks."+org.String()+".conn_setup_vms"] = setup
		}
		for _, m := range perLayer {
			v, ok := L[m.Name]
			if !ok {
				v = -1
				rec.Absent = append(rec.Absent, m.Name)
			}
			rec.Metrics[m.Name] = value{v, m.Unit}
		}
	}
	report(w, wl, rec, plain, traced)
	return rec, nil
}

func column(reps []repResult, f func(repResult) float64) []float64 {
	out := make([]float64, len(reps))
	for i, r := range reps {
		out[i] = f(r)
	}
	sort.Float64s(out)
	return out
}

// median of a sorted slice.
func median(sorted []float64) float64 {
	n := len(sorted)
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

// report prints every metric by name with its unit, for people; the driver
// reads only the JSON line that follows.
func report(w io.Writer, wl *workload, rec *runRecord, plain, traced []repResult) {
	fmt.Fprintf(w, "workload %s  seed %d  scale %g  trace %d  %s  nproc %d  GOMAXPROCS %d  commit %s\n",
		rec.Workload, rec.Seed, rec.Scale, rec.Trace, rec.Meta.GoVersion, rec.Meta.NumCPU, rec.Meta.GOMAXPROCS, rec.Meta.Commit)
	fmt.Fprintf(w, "  one op: %s\n", wl.op)
	fmt.Fprintf(w, "  %d untraced and %d traced repetitions; ops attempted %d, failed %d; %d latency samples a repetition\n",
		len(plain), len(traced), rec.Attempted, rec.Failed, plain[0].Samples)
	fmt.Fprintf(w, "  digest of the virtual results, which every repetition must reproduce: %s\n", rec.Digest)
	line := func(name string, v value, note string) {
		fmt.Fprintf(w, "  %-38s %16.6f %-6s %s\n", name, v.Value, v.Unit, note)
	}
	if rec.Trace == 0 {
		for _, m := range endToEnd {
			note := m.Better + " is better"
			if m.Name == "wall_s" {
				note += fmt.Sprintf("; minimum over %d repetitions", len(plain))
			}
			line(m.Name, rec.Metrics[m.Name], note)
		}
		fmt.Fprintf(w, "  the same virtual results under ISSUE 11's names:\n")
		line("ops_failed_share", rec.Named["ops_failed_share"], fmt.Sprintf("lower is better; %d ops attempted", rec.Attempted))
		for _, m := range issueNames {
			if v, ok := rec.Named[m.Name]; ok {
				line(m.Name, v, m.Better+" is better")
			}
		}
	} else {
		for _, m := range perLayer {
			v := rec.Metrics[m.Name]
			note := m.Better + " is better"
			if v.Value == -1 {
				note += "  (absent or undefined here)"
			}
			line(m.Name, v, note)
		}
	}
	for _, e := range rec.Errors {
		fmt.Fprintf(w, "  FAILED CHECK: %s\n", e)
	}
}

// appendRecord adds rec to the JSON array in the results file at path.
func appendRecord(path string, rec *runRecord) error {
	recs, err := readRecords(path)
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return err
	}
	recs = append(recs, *rec)
	b, err := json.MarshalIndent(recs, "", " ")
	if err != nil {
		return fmt.Errorf("bench: %s: %w", path, err)
	}
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return fmt.Errorf("bench: %w", err)
	}
	return nil
}

func readRecords(path string) ([]runRecord, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var recs []runRecord
	if err := json.Unmarshal(b, &recs); err != nil {
		return nil, fmt.Errorf("bench: %s: %w", path, err)
	}
	return recs, nil
}
