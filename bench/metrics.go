package main

import (
	"encoding/json"
	"fmt"
)

// metric describes one reported number. BENCHMARK.json is generated from
// these tables (`go run ./bench -manifest`), so the names, units, directions
// and bounds live in one place.
type metric struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the parent's median it may worsen by
	Doc    string  // what it is; for per-layer metrics, which end-to-end metric it should move
}

// e2eMetric is an end-to-end metric with its two bounds. Bound goes into
// BENCHMARK.json: the driver compares medians over runs with different seeds,
// so it has to exceed three times the widest seed-to-seed spread of any
// workload (lossy_iid's, for the virtual metrics). Paired is what -compare
// holds a metric to that repeats exactly for one seed: it pairs the two
// files' runs seed by seed and bounds the median of the per-seed changes
// (alloc_mb repeats to 0.01 %, the virtual metrics to the last digit).
// Zero means a wall-clock metric, compared unpaired against Bound.
type e2eMetric struct {
	metric
	Paired float64
}

// runSeconds is how long one run measures (BENCHMARK.json run_seconds).
const runSeconds = 20

// endToEnd is what a user of the system sees. Every workload reports every
// one of them, and none can be zero.
var endToEnd = []e2eMetric{
	{metric{"setup_s", "s", "lower", 0.25, "wall s to build the world and generate the inputs, until RunUntil is entered; minimum over the run's repetitions"}, 0},
	{metric{"wall_s", "s", "lower", 0.25, "wall s inside RunUntil for one repetition; minimum over the run's repetitions, whose count is printed beside it"}, 0},
	{metric{"alloc_mb", "MB", "lower", 0.05, "Go heap MB allocated in one repetition (TotalAlloc delta); median"}, 0.02},
	{metric{"virtual_s", "s", "lower", 0.20, "virtual s to complete the repetition"}, 0.01},
	{metric{"ops_per_vsec", "1/s", "higher", 0.20, "completed ops per virtual s (set-ups on churn, exchanges on reqresp, writes on the bulk workloads)"}, 0.01},
	{metric{"op_p50_vus", "us", "lower", 0.15, "median virtual us per op"}, 0.01},
	{metric{"op_p99_vus", "us", "lower", 0.10, "99th percentile virtual us per op; every workload has at least 50 samples beyond it"}, 0.01},
}

// issueNames are the names ISSUE 11 gave the same virtual results workload by
// workload, which later issues cite. The driver wants every end-to-end metric
// on every workload and never 0, so BENCHMARK.json carries the op-based ones
// above; a run prints these beside them, the results file keeps them and
// -compare pairs them by seed. ops_failed_share is not here because -compare
// bounds it at 0 from the records' attempted and failed counts.
var issueNames = []struct {
	e2eMetric
	on   []string // the workloads that report it
	from func(r *repResult) float64
}{
	{e2eMetric{metric{"conn_setup_p50_vms", "ms", "lower", 0, "op_p50_vus / 1000"}, 0.01}, []string{"churn"},
		func(r *repResult) float64 { return float64(r.P50NS) / 1e6 }},
	{e2eMetric{metric{"conn_setup_p99_vms", "ms", "lower", 0, "op_p99_vus / 1000"}, 0.01}, []string{"churn"},
		func(r *repResult) float64 { return float64(r.P99NS) / 1e6 }},
	{e2eMetric{metric{"setups_per_vsec", "1/s", "higher", 0, "ops_per_vsec"}, 0.01}, []string{"churn"},
		func(r *repResult) float64 { return float64(r.Attempted-r.Failed) / (float64(r.VirtualNS) / 1e9) }},
	{e2eMetric{metric{"rtt_p50_vus", "us", "lower", 0, "op_p50_vus"}, 0.01}, []string{"reqresp"},
		func(r *repResult) float64 { return float64(r.P50NS) / 1e3 }},
	{e2eMetric{metric{"rtt_p99_vus", "us", "lower", 0, "op_p99_vus"}, 0.01}, []string{"reqresp"},
		func(r *repResult) float64 { return float64(r.P99NS) / 1e3 }},
	{e2eMetric{metric{"goodput_vmbps", "Mb/s", "higher", 0, "verified payload bits per virtual s, all flows"}, 0.01}, []string{"bulk", "lossy_iid", "lossy_bulk"},
		func(r *repResult) float64 { return float64(r.Payload) * 8 / (float64(r.VirtualNS) / 1e9) / 1e6 }},
}

// perLayer is one layer each (a package under internal/, or the Go runtime
// under the simulator). Counts are exact; "wall" marks host-time numbers.
var perLayer = []metric{
	{"sim.events_per_op", "count", "lower", 0, "simulator events per op -> wall_s"},
	{"sim.max_heap", "count", "lower", 0, "event heap high water -> wall_s, alloc_mb"},
	{"sim.timers_cancelled", "count", "lower", 0, "timers cancelled before firing -> wall_s"},
	{"sim.events_per_wsec", "1/s", "higher", 0, "wall: events / wall_s -> wall_s on churn and reqresp"},
	{"sim.event_ns", "ns", "lower", 0, "wall probe: schedule and dispatch one event -> wall_s on churn, reqresp"},
	{"sim.proc_switch_ns", "ns", "lower", 0, "wall probe: one proc park and resume -> wall_s on churn, reqresp"},
	{"sim.timer_cancel_ns", "ns", "lower", 0, "wall probe: arm and cancel one timer -> wall_s on churn; little on the lossy workloads"},

	{"go.mallocs_per_event", "count", "lower", 0, "heap objects per simulator event -> alloc_mb, wall_s"},
	{"go.alloc_bytes_per_event", "B", "lower", 0, "heap bytes per simulator event -> alloc_mb"},
	{"go.gc_cycles", "count", "lower", 0, "GC cycles in one repetition, median -> wall_s"},
	{"go.wall_s_median", "s", "lower", 0, "wall: median of the repetitions' wall_s (spread of the minimum)"},
	{"go.wall_s_p90", "s", "lower", 0, "wall: 90th percentile of the repetitions' wall_s"},
	{"go.retained_mb", "MB", "lower", 0, "heap a finished world still pins after a GC -> how many repetitions fit in one process"},

	{"kern.h0.cpu_util", "ratio", "lower", 0, "host 0 CPU busy / virtual_s -> ops_per_vsec on bulk (saturated)"},
	{"kern.h1.cpu_util", "ratio", "lower", 0, "host 1 CPU busy / virtual_s"},
	{"kern.cpu_vus_per_op", "us", "lower", 0, "all hosts' CPU busy virtual us per op -> ops_per_vsec on bulk, op_p50_vus on reqresp and churn"},
	{"kern.sem_pingpong_ns", "ns", "lower", 0, "wall probe: semaphore hand-off between two threads -> wall_s on reqresp"},
	{"kern.port_call_ns", "ns", "lower", 0, "wall probe: one port RPC -> wall_s on churn"},

	{"pkt.gets_per_op", "count", "lower", 0, "packet buffers taken per op -> wall_s, alloc_mb on bulk"},
	{"pkt.recycle_ratio", "ratio", "higher", 0, "buffers served from the free list / buffers taken -> alloc_mb"},
	{"pkt.heap_allocs", "count", "lower", 0, "buffers that had to come from the heap -> alloc_mb"},
	{"pkt.outstanding_end", "count", "lower", 0, "buffers not returned after the drain; checked to be 0"},
	{"pkt.get_put_ns", "ns", "lower", 0, "wall probe: take and release one 1500-byte buffer -> wall_s on bulk"},

	{"checksum.bytes_per_payload_byte", "ratio", "lower", 0, "bytes summed per payload byte -> ops_per_vsec and wall_s on bulk; undefined (-1) on churn"},
	{"checksum.sum_1460_ns", "ns", "lower", 0, "wall probe: checksum of 1460 bytes -> wall_s on bulk"},

	{"filter.demux_native_ns", "ns", "lower", 0, "wall probe: compiled native predicate on one frame -> wall_s on reqresp (Ethernet software demux)"},
	{"filter.demux_bpf_ns", "ns", "lower", 0, "wall probe: interpreted BPF predicate on one frame"},

	{"netdev.tx_frames_per_op", "count", "lower", 0, "frames transmitted per op -> ops_per_vsec"},
	{"netdev.rx_dropped", "count", "lower", 0, "frames the devices dropped -> failed ops, ops_per_vsec"},

	{"wire.frames_per_op", "count", "lower", 0, "frames on the wire per op -> ops_per_vsec on lossy_iid and lossy_bulk, wall_s on bulk"},
	{"wire.frames_dropped", "count", "lower", 0, "frames the wire dropped (the injected loss on lossy_iid and lossy_bulk)"},
	{"wire.bytes_per_payload_byte", "ratio", "lower", 0, "wire bytes per payload byte: header and retransmission overhead -> ops_per_vsec on lossy_iid and lossy_bulk"},
	{"wire.frame_ns", "ns", "lower", 0, "wall probe: one 1500-byte frame across a two-station Ethernet -> wall_s on bulk"},

	{"tcp.rexmits_timeout", "count", "lower", 0, "time-out retransmissions, each an RTO of idle wire -> virtual_s, op_p99_vus on lossy_iid and lossy_bulk; 0 on bulk"},
	{"tcp.rexmits_fast", "count", "higher", 0, "fast retransmissions (loss repaired without a time-out) -> virtual_s on lossy_iid and lossy_bulk"},
	{"tcp.rto_updates", "count", "higher", 0, "RTO updates from RTT samples"},
	{"tcp.state_transitions_per_op", "count", "lower", 0, "TCP state transitions per op -> op_p50_vus on churn"},
	{"tcp.persist_probes", "count", "lower", 0, "zero-window probes sent"},
	{"tcp.conform_violations_drain", "count", "lower", 0, "RFC 793 conformance reports raised while the world drains to idle; in the measured phase any report fails the run"},
	{"tcp.segment_ns", "ns", "lower", 0, "wall probe: one segment through internal/explore's two-engine pipe, conformance checker attached -> wall_s on bulk"},
	{"tcp.header_codec_ns", "ns", "lower", 0, "wall probe: encode and decode one 1460-byte segment's header, checksum included -> wall_s on bulk"},

	{"timerwheel.set_cancel_ns", "ns", "lower", 0, "wall probe: arm and cancel a timer with 10000 armed -> wall_s on churn"},

	{"netio.copied_bytes_per_payload_byte", "ratio", "lower", 0, "bytes the module copied per payload byte -> ops_per_vsec on bulk, op_p50_vus on reqresp"},
	{"netio.notifications_per_frame", "ratio", "lower", 0, "wake-ups per delivered frame (batching) -> op_p50_vus on reqresp"},
	{"netio.demux_default_share", "ratio", "lower", 0, "share of received frames that left the fast path -> op_p50_vus on churn"},
	{"netio.send_rejected", "count", "lower", 0, "sends the module refused -> failed ops"},
	{"netio.rx_dropped", "count", "lower", 0, "frames the module dropped -> failed ops, ops_per_vsec"},
	{"netio.ring_high_water", "count", "lower", 0, "deepest receive ring"},
	{"netio.demux_steered_ns", "ns", "lower", 0, "wall probe: one frame from the wire through the Lance into the last of 1000 steered bindings -> wall_s on reqresp"},

	{"registry.rpcs_per_setup", "count", "lower", 0, "registry RPC events per connection set-up -> op_p50_vus, ops_per_vsec on churn"},
	{"registry.transferred", "count", "higher", 0, "connections handed to a library, both ends; about 0 beside churn"},
	{"registry.syn_dropped", "count", "lower", 0, "SYNs dropped by a full backlog -> op_p99_vus on churn"},
	{"registry.dedup_hits", "count", "lower", 0, "retried RPCs answered from the dedup cache"},
	{"registry.admission_denied", "count", "lower", 0, "set-ups the admission quota refused -> op_p99_vus on churn"},
	{"registry.ports_in_use_end", "count", "lower", 0, "ports still held after the drain; checked to be 0"},

	{"core.connect_p50_vms", "ms", "lower", 0, "span: virtual ms inside Connect, median -> op_p50_vus on churn"},
	{"core.connect_p99_vms", "ms", "lower", 0, "span: virtual ms inside Connect, 99th percentile -> op_p99_vus on churn"},
	{"core.write_p50_vus", "us", "lower", 0, "span: virtual us inside Write, median -> op_p50_vus on bulk"},
	{"core.read_p50_vus", "us", "lower", 0, "span: virtual us inside Read, median; most of op_p50_vus on reqresp"},
	{"core.close_p50_vus", "us", "lower", 0, "span: virtual us inside Close, median"},

	{"stacks.inkernel.goodput_vmbps", "Mb/s", "higher", 0, "1 MiB one way on Ethernet under OrgInKernel; the paper's comparison, no end-to-end metric here"},
	{"stacks.inkernel.rtt_vus", "us", "lower", 0, "mean of 200 64-byte echo exchanges under OrgInKernel"},
	{"stacks.inkernel.conn_setup_vms", "ms", "lower", 0, "one connection set-up under OrgInKernel"},
	{"stacks.singleserver.goodput_vmbps", "Mb/s", "higher", 0, "1 MiB one way on Ethernet under OrgSingleServer"},
	{"stacks.singleserver.rtt_vus", "us", "lower", 0, "mean of 200 64-byte echo exchanges under OrgSingleServer"},
	{"stacks.singleserver.conn_setup_vms", "ms", "lower", 0, "one connection set-up under OrgSingleServer"},

	{"trace.events_per_op", "count", "lower", 0, "bus events per op in the traced repetition"},
	{"trace.spans", "count", "lower", 0, "spans the benchmark's wrappers recorded"},
	{"trace.overhead_ratio", "ratio", "lower", 0, "wall: traced wall_s / untraced wall_s"},

	{"app.goodput_vmbps", "Mb/s", "higher", 0, "the untraced run's goodput_vmbps: verified payload bits per virtual s, all flows; 0 on churn, which carries none"},
}

// manifest renders BENCHMARK.json.
func manifest() []byte {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	var m struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}
	m.Command = []string{"bash", "bench/run.sh"}
	m.Paths = []string{"bench"}
	m.RunSeconds = runSeconds
	for _, w := range workloads {
		if !w.unlisted {
			m.Workloads = append(m.Workloads, wl{w.name, w.why})
		}
	}
	for _, x := range endToEnd {
		m.EndToEnd = append(m.EndToEnd, e2e{x.Name, x.Unit, x.Better, x.Bound})
	}
	for _, x := range perLayer {
		m.PerLayer = append(m.PerLayer, layer{x.Name, x.Unit, x.Better})
	}
	b, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		panic(fmt.Sprint("bench: manifest: ", err)) // the struct above always marshals
	}
	return append(b, '\n')
}
