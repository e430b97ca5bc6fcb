package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"runtime"
	"sort"
	"strings"
	"time"

	"ulp/internal/trace"
)

// repResult is one repetition: one world built, run to completion, checked
// and drained. The child process prints one per line; the parent merges them.
type repResult struct {
	Traced bool `json:"traced"`

	// Wall clock and Go runtime.
	SetupS     float64 `json:"setup_s"` // building the world and generating inputs
	WallS      float64 `json:"wall_s"`  // inside RunUntil, measured phase only
	AllocBytes uint64  `json:"alloc_bytes"`
	Mallocs    uint64  `json:"mallocs"`
	GCCycles   uint32  `json:"gc_cycles"`
	RetainedMB float64 `json:"retained_mb"` // heap the finished world still holds, after a GC

	// Virtual clock: exact, and identical in every repetition of a run.
	VirtualNS int64  `json:"virtual_ns"`
	Attempted int    `json:"attempted"`
	Failed    int    `json:"failed"`
	Payload   int64  `json:"payload_bytes"`
	Samples   int    `json:"samples"`
	P50NS     int64  `json:"p50_ns"`
	P99NS     int64  `json:"p99_ns"`
	Events    int64  `json:"events"`
	Digest    string `json:"digest"` // hash of every virtual observation above and of each op latency

	Errors []string `json:"errors,omitempty"` // failed output checks

	// Per-layer numbers, traced repetitions only.
	Layers map[string]float64 `json:"layers,omitempty"`
	Absent []string           `json:"absent,omitempty"` // counters the program no longer exports
}

// percentile returns the p-quantile of sorted by the nearest-rank rule.
func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[int(p*float64(len(sorted)-1))]
}

// runRep runs one repetition of wl in this process.
func runRep(wl *workload, seed uint64, scale float64, traced bool) repResult {
	res := repResult{Traced: traced}
	runtime.GC()
	var m0, m1, m2 runtime.MemStats
	runtime.ReadMemStats(&m0)

	t0 := time.Now()
	e := &env{seed: seed, scale: scale}
	if traced {
		e.tr = newTracer()
	}
	sc := wl.build(e)
	res.SetupS = time.Since(t0).Seconds()

	t1 := time.Now()
	if sc.ready != nil {
		sc.w.RunUntil(sc.budget, sc.ready)
		sc.onReady()
	}
	sc.w.RunUntil(sc.budget, sc.done)
	res.WallS = time.Since(t1).Seconds()
	runtime.ReadMemStats(&m1)
	res.AllocBytes = m1.TotalAlloc - m0.TotalAlloc
	res.Mallocs = m1.Mallocs - m0.Mallocs
	res.GCCycles = m1.NumGC - m0.NumGC

	virtual := sc.w.Now()
	violations := 0
	if traced {
		// Conformance is a correctness check on the measured phase. What the
		// drain adds is reported, not failed (README, "Findings").
		if v := e.tr.checker.Violations(); len(v) > 0 {
			violations = len(v)
			sc.out.errorf("%d RFC 793 conformance violations, first: %s %s: %s", len(v), v[0].Conn, v[0].Rule, v[0].Detail)
		}
	}
	stats := sc.w.StatsRegistry()
	atEnd := stats.Snapshot()
	busy := make([]time.Duration, sc.w.Nodes())
	for i := range busy {
		busy[i] = sc.w.Node(i).Host.CPU.Busy()
	}
	sc.stop()

	// Drain: let the connections close and TIME_WAIT expire, then check that
	// the world is back to idle. Not part of any end-to-end metric.
	var idle map[string]int64
	var buffers, ports int64
	for i := 0; i < 360; i++ {
		sc.w.Run(10 * time.Second)
		idle = stats.Snapshot()
		buffers, ports = idle["pkt.outstanding"], sumKeys(idle, "registry.h", ".ports_in_use")
		if buffers == 0 && ports == 0 {
			break
		}
	}
	sc.settle()
	out := sc.out
	if buffers != 0 {
		out.errorf("%d packet buffers still outstanding after the drain", buffers)
	}
	if ports != 0 {
		out.errorf("%d ports still in use after the drain", ports)
	}

	sort.Slice(out.lat, func(i, j int) bool { return out.lat[i] < out.lat[j] })
	res.VirtualNS = int64(virtual)
	res.Attempted, res.Failed, res.Payload = out.attempted, out.failed, out.payload
	res.Samples = len(out.lat)
	res.P50NS, res.P99NS = int64(percentile(out.lat, 0.50)), int64(percentile(out.lat, 0.99))
	res.Events = atEnd["sim.events_fired"]
	h := fnv.New64a()
	fmt.Fprint(h, res.VirtualNS, res.Attempted, res.Failed, res.Payload, res.Events)
	var b [8]byte
	for _, d := range out.lat {
		binary.LittleEndian.PutUint64(b[:], uint64(d))
		h.Write(b[:])
	}
	res.Digest = fmt.Sprintf("%016x", h.Sum64())

	if traced {
		res.Layers, res.Absent = worldLayers(sc.out, e.tr, atEnd, busy, virtual)
		res.Layers["pkt.outstanding_end"] = float64(buffers)
		res.Layers["registry.ports_in_use_end"] = float64(ports)
		res.Layers["tcp.conform_violations_drain"] = float64(len(e.tr.checker.Violations()) - violations)
	}
	res.Errors = out.errs

	// What the finished world still pins. The world's parked goroutines keep
	// it reachable for the life of the process, which is why repetitions run
	// in short-lived child processes (README, "Process per batch").
	sc, e = nil, nil
	runtime.GC()
	runtime.ReadMemStats(&m2)
	res.RetainedMB = (float64(m2.HeapAlloc) - float64(m0.HeapAlloc)) / 1e6
	return res
}

// sumKeys adds up every snapshot value whose key has the prefix and suffix,
// e.g. "netdev.h" + ".tx_frames" over all hosts.
func sumKeys(snap map[string]int64, prefix, suffix string) int64 {
	var s int64
	for k, v := range snap {
		if strings.HasPrefix(k, prefix) && strings.HasSuffix(k, suffix) {
			s += v
		}
	}
	return s
}

// worldLayers derives the per-layer metrics that come from the program's own
// counters, its trace bus and our spans. Counters are looked up by string
// key: one the program stops exporting is listed in absent and reads -1, and
// never breaks the build.
func worldLayers(out *outcome, tr *tracer, atEnd map[string]int64, busy []time.Duration, virtual time.Duration) (map[string]float64, []string) {
	L := map[string]float64{}
	var absent []string
	// get sums a counter over the hosts ("h*") or reads a global one.
	get := func(layer, name string) float64 {
		if v, ok := atEnd[layer+"."+name]; ok {
			return float64(v)
		}
		found := false
		var s int64
		for k, v := range atEnd {
			if strings.HasPrefix(k, layer+".h") && strings.HasSuffix(k, "."+name) &&
				strings.Count(k, ".") == 2 {
				s, found = s+v, true
			}
		}
		if !found {
			absent = append(absent, layer+"."+name)
			return -1
		}
		return float64(s)
	}
	ratio := func(a, b float64) float64 {
		if a < 0 || b <= 0 {
			return -1
		}
		return a / b
	}
	ops := float64(out.attempted - out.failed)
	payload := float64(out.payload)
	events := get("sim", "events_fired")

	L["sim.events_per_op"] = ratio(events, ops)
	L["sim.max_heap"] = get("sim", "max_heap")
	L["sim.timers_cancelled"] = get("sim", "timers_cancelled")

	var busySum time.Duration
	for i, b := range busy {
		busySum += b
		if i < 2 {
			L[fmt.Sprintf("kern.h%d.cpu_util", i)] = b.Seconds() / virtual.Seconds()
		}
	}
	L["kern.cpu_vus_per_op"] = ratio(float64(busySum.Microseconds()), ops)

	gets := get("pkt", "gets")
	L["pkt.gets_per_op"] = ratio(gets, ops)
	L["pkt.recycle_ratio"] = ratio(get("pkt", "recycled"), gets)
	L["pkt.heap_allocs"] = get("pkt", "heap_allocs")

	L["checksum.bytes_per_payload_byte"] = ratio(get("checksum", "bytes_summed"), payload)

	L["netdev.tx_frames_per_op"] = ratio(get("netdev", "tx_frames"), ops)
	L["netdev.rx_dropped"] = get("netdev", "rx_dropped")

	L["wire.frames_per_op"] = ratio(get("wire", "frames_sent"), ops)
	L["wire.frames_dropped"] = get("wire", "frames_dropped")
	L["wire.bytes_per_payload_byte"] = ratio(get("wire", "bytes_sent"), payload)

	L["tcp.rexmits_timeout"] = float64(tr.rexmtTimeout)
	L["tcp.rexmits_fast"] = float64(tr.rexmtFast)
	L["tcp.rto_updates"] = float64(tr.kinds[trace.TCPRTO])
	L["tcp.state_transitions_per_op"] = ratio(float64(tr.kinds[trace.TCPState]), ops)
	L["tcp.persist_probes"] = float64(tr.kinds[trace.TCPPersist])

	delivered := get("netio", "delivered")
	matched, dflt := get("netio", "demux_matched"), get("netio", "demux_default")
	L["netio.copied_bytes_per_payload_byte"] = ratio(get("netio", "copied_bytes"), payload)
	L["netio.notifications_per_frame"] = ratio(get("netio", "notifications"), delivered)
	L["netio.demux_default_share"] = ratio(dflt, matched+dflt)
	L["netio.send_rejected"] = get("netio", "send_rejected")
	L["netio.rx_dropped"] = get("netio", "rx_dropped")
	L["netio.ring_high_water"] = 0
	for k, v := range atEnd {
		if strings.HasPrefix(k, "netio.h") && strings.HasSuffix(k, ".ring_high_water") &&
			float64(v) > L["netio.ring_high_water"] {
			L["netio.ring_high_water"] = float64(v)
		}
	}

	L["registry.rpcs_per_setup"] = ratio(float64(tr.kinds[trace.RegistryRPC]), float64(out.setups))
	L["registry.transferred"] = get("registry", "transferred")
	L["registry.syn_dropped"] = float64(sumKeys(atEnd, "registry.h", "syn_dropped")) // per shard where sharded
	L["registry.dedup_hits"] = get("registry", "dedup_hits")
	L["registry.admission_denied"] = get("registry", "admission_denied")

	// core: virtual time inside each kind of stacks call, from the spans.
	byName := map[string][]time.Duration{}
	for _, s := range tr.spans {
		byName[s.Name] = append(byName[s.Name], s.VEnd-s.VStart)
	}
	q := func(name string, p float64) time.Duration {
		d := byName[name]
		sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
		return percentile(d, p)
	}
	L["core.connect_p50_vms"] = q("connect", 0.5).Seconds() * 1e3
	L["core.connect_p99_vms"] = q("connect", 0.99).Seconds() * 1e3
	L["core.write_p50_vus"] = q("write", 0.5).Seconds() * 1e6
	L["core.read_p50_vus"] = q("read", 0.5).Seconds() * 1e6
	L["core.close_p50_vus"] = q("close", 0.5).Seconds() * 1e6

	var traced int64
	for _, n := range tr.kinds {
		traced += n
	}
	L["trace.events_per_op"] = ratio(float64(traced), ops)
	L["trace.spans"] = float64(len(tr.spans))

	L["app.goodput_vmbps"] = payload * 8 / virtual.Seconds() / 1e6
	sort.Strings(absent)
	return L, absent
}
