// Package ulp is a faithful reproduction of "Implementing Network Protocols
// at User Level" (Thekkath, Nguyen, Moy, Lazowska; SIGCOMM 1993) as a
// deterministic discrete-event simulation.
//
// It builds simulated 1993 workstations (DECstation 5000/200-class hosts)
// attached to a 10 Mb/s Ethernet and/or a 100 Mb/s DEC SRC AN1 network, and
// runs a complete, byte-exact TCP/IP/ARP protocol suite under the paper's
// three protocol organizations:
//
//   - OrgUserLib — the paper's contribution: a protocol library linked into
//     the application, a trusted registry server for connection setup, and
//     an in-kernel network I/O module providing protected, demultiplexed
//     network access (hardware BQI demux on the AN1, software filters on
//     Ethernet).
//   - OrgInKernel — the Ultrix 4.2A style monolithic in-kernel stack.
//   - OrgSingleServer — the Mach 3.0 + UX style single-server stack with a
//     mapped device.
//
// The identical protocol engine runs under all three; measured differences
// are purely structural, which is the paper's methodology. The experiments
// package and cmd/ulbench regenerate every table of the paper's evaluation.
//
// # Quick start
//
//	w := ulp.NewWorld(ulp.Config{Org: ulp.OrgUserLib, Net: ulp.Ethernet})
//	server, client := w.Node(0).App("server"), w.Node(1).App("client")
//	server.Go("srv", func(t *kern.Thread) {
//	    l, _ := server.Stack.Listen(t, 80, stacks.Options{})
//	    c, _ := l.Accept(t)
//	    buf := make([]byte, 4096)
//	    n, _ := c.Read(t, buf)
//	    c.Write(t, buf[:n]) // echo
//	})
//	client.Go("cli", func(t *kern.Thread) {
//	    c, _ := client.Stack.Connect(t, w.Endpoint(0, 80), stacks.Options{})
//	    c.Write(t, []byte("hello"))
//	    ...
//	})
//	w.Run(2 * time.Second)
package ulp

import (
	"fmt"
	"time"

	"ulp/internal/chaos"
	"ulp/internal/checksum"
	"ulp/internal/conform"
	"ulp/internal/core"
	"ulp/internal/costs"
	"ulp/internal/ipv4"
	"ulp/internal/kern"
	"ulp/internal/link"
	"ulp/internal/netdev"
	"ulp/internal/netio"
	"ulp/internal/pkt"
	"ulp/internal/registry"
	"ulp/internal/sim"
	"ulp/internal/stacks"
	"ulp/internal/stats"
	"ulp/internal/tcp"
	"ulp/internal/trace"
	"ulp/internal/wire"
)

// Org selects a protocol organization (Figure 1 of the paper).
type Org int

// Organizations.
const (
	OrgUserLib Org = iota
	OrgInKernel
	OrgSingleServer
)

// String names the organization as the experiments print it.
func (o Org) String() string {
	switch o {
	case OrgUserLib:
		return "userlib"
	case OrgInKernel:
		return "inkernel"
	case OrgSingleServer:
		return "singleserver"
	}
	return fmt.Sprintf("Org(%d)", int(o))
}

// Net selects the simulated network.
type Net int

// Networks.
const (
	// Ethernet is the 10 Mb/s shared segment with the LANCE PIO interface.
	Ethernet Net = iota
	// AN1 is the 100 Mb/s switched segment, driver-limited to 1500-byte
	// encapsulation as in the paper.
	AN1
	// AN1Jumbo lifts the encapsulation limit to the hardware's 64 KB
	// frames (the paper notes the limitation; this is the ablation).
	AN1Jumbo
)

// String names the network.
func (n Net) String() string {
	switch n {
	case Ethernet:
		return "ethernet"
	case AN1:
		return "an1"
	case AN1Jumbo:
		return "an1-64k"
	}
	return fmt.Sprintf("Net(%d)", int(n))
}

// Config describes a world to build.
type Config struct {
	// Org is the protocol organization instantiated on every host.
	Org Org
	// Net is the network type.
	Net Net
	// Hosts is the number of workstations (default 2).
	Hosts int
	// Chaos optionally installs the world's control-plane fault plan:
	// registry request faults and scheduled application and registry
	// crashes.
	Chaos *chaos.FaultPlan
	// Conditions optionally installs the segment's impairment plan from
	// the start (loss, duplication, corruption, reordering, flaps,
	// partitions, bursty loss, asymmetric paths, bufferbloat). World.Seg's
	// SetConditions installs or replaces it during a run.
	Conditions *wire.LinkConditions
	// Costs overrides the calibrated cost model (ablations).
	Costs *costs.Model

	// Switch builds the segment as a store-and-forward learning switch
	// instead of a single medium — required for many-host worlds where
	// disjoint flows must not contend. Not on Ethernet: the paper's
	// Ethernet is a shared wire by definition.
	Switch *wire.SwitchConfig
	// EphemeralLo/Hi widen the registries' ephemeral port range beyond
	// the classic [1024,5000) — churn worlds recycle far more ports.
	// Both zero = default range; set both or neither. OrgUserLib only.
	EphemeralLo, EphemeralHi uint16

	// RegistryShards is the number of registry servers each host's control
	// plane is built from, each owning a static slice of the port space,
	// fronted by a stateless metaregistry index in every library. 0 or 1
	// builds one shard: the paper's single registry on the host CPU. With
	// two or more, each shard is pinned to its own CPU, each library call
	// goes to one shard (round-robin per connect), and a dead shard's work
	// fails over to a live sibling.
	// Two or more is OrgUserLib only.
	RegistryShards int
}

// World is a built simulation: a network segment plus hosts running the
// selected organization.
type World struct {
	Sim   *sim.Sim
	Seg   *wire.Segment
	nodes []*Node
	cfg   Config

	// Process-global counter baselines captured at construction, so a
	// world's stats report covers only its own activity even when several
	// worlds share the process (tests, ulbench sweeps).
	pktBase      pkt.PoolCounters
	checksumBase int64
}

// Node is one workstation.
type Node struct {
	world *World
	Index int
	Host  *kern.Host
	Mod   *netio.Module
	IP    ipv4.Addr

	// Exactly one of these is set, by organization.
	Registry   *registry.Federation // OrgUserLib
	Monolithic *stacks.Monolithic   // OrgInKernel and OrgSingleServer
}

// App is one application on a node: an address space plus the stack handle
// it uses (its own linked library under OrgUserLib; the shared kernel or
// server stack otherwise).
type App struct {
	Node  *Node
	Dom   *kern.Domain
	Stack stacks.Stack
	// Lib is non-nil under OrgUserLib, exposing library-specific calls
	// (Exit/inheritance).
	Lib *core.Library
}

// ignored names a setting the world would be built without honouring, or
// returns "" when every setting takes effect.
func (cfg *Config) ignored() string {
	if cfg.Org != OrgUserLib {
		switch {
		case cfg.RegistryShards > 1:
			return "RegistryShards: " + cfg.Org.String() + " has no registry to shard"
		case cfg.EphemeralLo != 0 || cfg.EphemeralHi != 0:
			return "EphemeralLo/Hi: " + cfg.Org.String() + " has no registry to allocate ports from the range"
		}
	}
	if cfg.Switch != nil && cfg.Net == Ethernet {
		return "Switch: the Ethernet is one shared wire"
	}
	if (cfg.EphemeralLo == 0) != (cfg.EphemeralHi == 0) {
		return "EphemeralLo/Hi: set both bounds or neither"
	}
	return ""
}

// NewWorld builds a world. It panics on a setting it would not honour (see
// the Config fields) and on a fault plan naming a host or registry shard the
// world does not have.
func NewWorld(cfg Config) *World {
	if cfg.Hosts == 0 {
		cfg.Hosts = 2
	}
	if why := cfg.ignored(); why != "" {
		panic("ulp: Config." + why)
	}
	s := sim.New()
	var wcfg wire.Config
	switch cfg.Net {
	case Ethernet:
		wcfg = wire.EthernetConfig()
	default:
		wcfg = wire.AN1Config()
	}
	var seg *wire.Segment
	if cfg.Switch != nil {
		seg = wire.NewSwitched(s, wcfg, *cfg.Switch)
	} else {
		seg = wire.New(s, wcfg)
	}
	seg.SetConditions(cfg.Conditions)
	model := costs.Default()
	if cfg.Costs != nil {
		model = *cfg.Costs
	}
	if cfg.Chaos != nil {
		shards := 0 // the monolithic organizations have no registry to crash
		if cfg.Org == OrgUserLib {
			shards = max(cfg.RegistryShards, 1)
		}
		for _, sc := range cfg.Chaos.ShardCrashes {
			if sc.Host < 0 || sc.Host >= cfg.Hosts || sc.Shard < 0 || sc.Shard >= shards {
				panic(fmt.Sprintf("ulp: fault plan crashes registry shard %d on host %d; this world has hosts 0-%d with %d shard(s) each",
					sc.Shard, sc.Host, cfg.Hosts-1, shards))
			}
		}
	}
	w := &World{Sim: s, Seg: seg, cfg: cfg}
	for i := 0; i < cfg.Hosts; i++ {
		h := kern.NewHost(s, fmt.Sprintf("h%d", i), model)
		addr := link.MakeAddr(i + 1)
		var dev netdev.Device
		switch cfg.Net {
		case Ethernet:
			dev = netdev.NewLance(h, seg, addr)
		case AN1:
			dev = netdev.NewAN1(h, seg, addr, link.AN1EncapMTU)
		case AN1Jumbo:
			dev = netdev.NewAN1(h, seg, addr, link.AN1MaxMTU)
		}
		mod := netio.New(h, dev)
		// The third octet carries the high host bits, so worlds scale past
		// 254 hosts; for small worlds this is the classic 10.0.0.x.
		n := &Node{world: w, Index: i, Host: h, Mod: mod,
			IP: ipv4.Addr{10, 0, byte((i + 1) >> 8), byte(i + 1)}}
		switch cfg.Org {
		case OrgUserLib:
			reg := registry.NewFederation(s, mod, n.IP, cfg.RegistryShards)
			n.Registry = reg
			if cfg.EphemeralHi != 0 {
				reg.SetEphemeralRange(cfg.EphemeralLo, cfg.EphemeralHi)
			}
			if cfg.Chaos != nil {
				reg.SetControlFaults(chaos.NewInjector(
					cfg.Chaos.Seed+uint64(i), cfg.Chaos.Control))
				for _, sc := range cfg.Chaos.ShardCrashes {
					if sc.Host != i {
						continue
					}
					shard := sc.Shard
					s.After(sim.Dur(sc.At), func() { reg.CrashShard(shard) })
					if sc.RestartAfter > 0 {
						s.After(sim.Dur(sc.At+sc.RestartAfter),
							func() { reg.RestartShard(shard) })
					}
				}
			}
		case OrgInKernel:
			n.Monolithic = stacks.NewInKernel(s, mod, n.IP)
		case OrgSingleServer:
			n.Monolithic = stacks.NewSingleServer(s, mod, n.IP)
		}
		w.nodes = append(w.nodes, n)
	}
	w.pktBase = pkt.Counters()
	w.checksumBase = checksum.BytesSummed()
	return w
}

// EnableTrace creates the world's trace bus, if it has none yet, and returns
// it. The bus is the Sim's: every layer of the world — wire, devices,
// network I/O modules, registries, and the TCP connections set up from here
// on — emits to it, and no other world's events reach it. Timestamps are
// virtual time. Idempotent; call before running scenarios so connection
// labels are assigned at setup. Tracing never consumes virtual time,
// sequence numbers or randomness: a traced run is bit-identical to an
// untraced one.
func (w *World) EnableTrace() *trace.Bus {
	if w.Sim.Bus == nil {
		w.Sim.Bus = trace.NewBus(func() time.Duration { return time.Duration(w.Sim.Now()) })
	}
	return w.Sim.Bus
}

// Bus returns the world's trace bus, or nil if EnableTrace was never called.
func (w *World) Bus() *trace.Bus { return w.Sim.Bus }

// EnableConformance attaches an RFC 793 conformance checker to the world's
// trace bus (enabling tracing first if needed) and returns it. Every TCP
// state transition, retransmission, RTO update and persist event on any host
// is checked live against the legal transition relation and timer rules;
// call Violations on the returned checker after the run. Like tracing, the
// checker is a pure observer: a checked run is bit-identical to an unchecked
// one.
func (w *World) EnableConformance() *conform.Checker {
	bus := w.EnableTrace()
	ck := conform.New()
	ck.Attach(bus)
	return ck
}

// StatsRegistry builds a stats registry over every layer's counters: each
// layer describes its own (wire, kern.hN, netdev.hN, netio.hN, registry.hN).
// The returned registry polls live state: snapshot it whenever a breakdown
// is wanted. Per-process counters (packet pool, checksum) are reported
// relative to the world's construction baseline.
func (w *World) StatsRegistry() *stats.Registry {
	r := stats.New()
	r.RegisterFunc("wire", w.Seg.Describe)
	for _, n := range w.nodes {
		r.RegisterFunc(fmt.Sprintf("kern.h%d", n.Index), n.Host.Describe)
		r.RegisterFunc(fmt.Sprintf("netdev.h%d", n.Index), n.Mod.Device().Describe)
		r.RegisterFunc(fmt.Sprintf("netio.h%d", n.Index), n.Mod.Describe)
		if n.Registry != nil {
			r.RegisterFunc(fmt.Sprintf("registry.h%d", n.Index), n.Registry.Describe)
		}
	}
	r.RegisterFunc("pkt", func(emit func(string, int64)) {
		c := pkt.Counters()
		emit("gets", c.Gets-w.pktBase.Gets)
		emit("puts", c.Puts-w.pktBase.Puts)
		emit("recycled", c.Recycled-w.pktBase.Recycled)
		emit("heap_allocs", c.HeapAllocs-w.pktBase.HeapAllocs)
		emit("outstanding", (c.Gets-w.pktBase.Gets)-(c.Puts-w.pktBase.Puts))
	})
	r.RegisterFunc("checksum", func(emit func(string, int64)) {
		emit("bytes_summed", checksum.BytesSummed()-w.checksumBase)
	})
	r.RegisterFunc("sim", func(emit func(string, int64)) {
		fired, cancelled, maxHeap := w.Sim.Counters()
		emit("events_fired", fired)
		emit("timers_cancelled", cancelled)
		emit("max_heap", int64(maxHeap))
	})
	return r
}

// StatsReport renders the full per-layer counter breakdown.
func (w *World) StatsReport() string { return w.StatsRegistry().Render() }

// Node returns host i.
func (w *World) Node(i int) *Node { return w.nodes[i] }

// Nodes returns the host count.
func (w *World) Nodes() int { return len(w.nodes) }

// Endpoint names a TCP endpoint on host i.
func (w *World) Endpoint(i int, port uint16) tcp.Endpoint {
	return tcp.Endpoint{IP: w.nodes[i].IP, Port: port}
}

// Run advances virtual time by d (0 = until no events remain, which with
// timer threads running means forever — always pass a budget).
func (w *World) Run(d time.Duration) time.Duration {
	return time.Duration(w.Sim.Run(d))
}

// RunUntil advances until pred holds or the budget expires.
func (w *World) RunUntil(d time.Duration, pred func() bool) time.Duration {
	return time.Duration(w.Sim.RunUntil(d, pred))
}

// Now returns current virtual time.
func (w *World) Now() time.Duration { return time.Duration(w.Sim.Now()) }

// TraceFrames installs a read-only observer for every frame transmitted on
// the segment (protocol tracing; see cmd/ultrace).
func (w *World) TraceFrames(fn func(at time.Duration, frame *pkt.Buf)) {
	w.Seg.TraceFrame = func(b *pkt.Buf, at sim.Time) {
		fn(time.Duration(at), b)
	}
}

// App creates an application on the node. If the world's fault plan
// schedules a crash matching this node and name, it is armed here.
func (n *Node) App(name string) *App {
	dom := n.Host.NewDomain(name, false)
	a := &App{Node: n, Dom: dom}
	if n.Registry != nil {
		a.Lib = core.NewLibrary(n.world.Sim, dom, n.Registry)
		a.Stack = a.Lib
	} else {
		a.Stack = n.Monolithic
	}
	if plan := n.world.cfg.Chaos; plan != nil {
		for _, cp := range plan.Crashes {
			if cp.Host == n.Index && (cp.App == "" || cp.App == name) {
				n.world.Sim.After(sim.Dur(cp.At), a.Crash)
			}
		}
	}
	return a
}

// Crash terminates the application abruptly: every thread is killed with no
// exit path run. Recovery is entirely the system's problem — the registry
// reclaims ports and connections and resets peers, and the network I/O
// module revokes capabilities and unpins shared regions.
func (a *App) Crash() { a.Dom.Kill() }

// Go runs fn as an application thread.
func (a *App) Go(name string, fn func(t *kern.Thread)) *kern.Thread {
	return a.Dom.Spawn(name, fn)
}

// GoAfter runs fn as an application thread after a delay.
func (a *App) GoAfter(d time.Duration, name string, fn func(t *kern.Thread)) *kern.Thread {
	return a.Dom.SpawnAfter(d, name, fn)
}

// UDP returns the node's datagram service (monolithic organizations).
func (n *Node) UDP() *stacks.UDPHost {
	if n.Monolithic != nil {
		return n.Monolithic.UDP()
	}
	return nil
}
