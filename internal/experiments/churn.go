package experiments

// Connection churn at many-host scale. The paper measures one connection
// setup (Table 4); this experiment measures thousands per second, which is
// where the linear-scan demultiplexing and the shared wire stop being
// noise: every SYN crosses the wire, every live or TIME_WAIT pcb is a timer
// client, and every established channel is a demux binding. The world runs
// on the paper's shared Ethernet with the wide ephemeral range; the sharded
// many-host variant on a switched AN1 is bench/'s churn workload.

import (
	"errors"
	"sort"
	"time"

	"ulp"
	"ulp/internal/kern"
	"ulp/internal/stacks"
)

// ChurnConfig parameterizes the churn experiment.
type ChurnConfig struct {
	// Conns is the total number of connection setups (default 1000).
	Conns int
	// Clients is the number of client hosts; the server is host 0
	// (default 4).
	Clients int
	// Workers is the number of concurrent connect loops per client host
	// (default 8).
	Workers int
	// Shards builds each host's registry from this many shards, each owning
	// a static slice of the port space and, from two up, pinned to its own
	// CPU (0 or 1 = the paper's single registry). Connection setup is
	// registry-CPU bound, so this is the knob that lifts the setup rate.
	Shards int
}

// ChurnResult reports setup-latency percentiles (virtual time) and the
// sustained churn rate.
type ChurnResult struct {
	Conns, Clients int
	P50, P99, P999 time.Duration // connection-setup latency percentiles
	Virtual        time.Duration // virtual time for all setups to complete
	Wall           time.Duration // wall-clock time the simulation took
	SetupsPerVSec  float64       // sustained churn rate in virtual time
	EventsPerWSec  float64       // simulator throughput (events / wall-second)
	Err            error
}

// Churn runs the experiment: Workers×Clients concurrent loops, each
// connecting to the server, reading until the server's immediate close
// arrives (EOF), and closing. The server closes first, so the thousands of
// TIME_WAIT incarnations accumulate server-side — exactly the timer
// population the wheel backend exists for — while client ephemeral ports
// recycle promptly.
func Churn(cfg ChurnConfig) ChurnResult {
	if cfg.Conns == 0 {
		cfg.Conns = 1000
	}
	if cfg.Clients == 0 {
		cfg.Clients = 4
	}
	if cfg.Workers == 0 {
		cfg.Workers = 8
	}
	w := ulp.NewWorld(ulp.Config{
		Org:         ulp.OrgUserLib,
		Net:         ulp.Ethernet,
		Hosts:       cfg.Clients + 1,
		EphemeralLo: 1024, EphemeralHi: 60000,
		RegistryShards: cfg.Shards,
	})

	res := ChurnResult{Conns: cfg.Conns, Clients: cfg.Clients}
	srv := w.Node(0).App("server")
	accepted := 0
	srv.Go("srv", func(t *kern.Thread) {
		l, err := srv.Stack.Listen(t, 80, stacks.Options{Backlog: cfg.Clients * cfg.Workers})
		if err != nil {
			res.Err = err
			return
		}
		for {
			c, err := l.Accept(t)
			if err != nil {
				return
			}
			accepted++
			// Close immediately: the server is the active closer, keeping
			// TIME_WAIT (and its 2MSL timers) on the server host.
			c.Close(t)
		}
	})

	latencies := make([]time.Duration, 0, cfg.Conns)
	done := 0
	failed := 0
	// Deal the total count across workers; earlier workers take the
	// remainder.
	per := cfg.Conns / (cfg.Clients * cfg.Workers)
	extra := cfg.Conns % (cfg.Clients * cfg.Workers)
	for ci := 1; ci <= cfg.Clients; ci++ {
		cli := w.Node(ci).App("client")
		for wi := 0; wi < cfg.Workers; wi++ {
			n := per
			if (ci-1)*cfg.Workers+wi < extra {
				n++
			}
			quota := n
			cli.GoAfter(time.Duration(wi)*50*time.Microsecond, "worker", func(t *kern.Thread) {
				buf := make([]byte, 64)
				for k := 0; k < quota; k++ {
					start := w.Now()
					c, err := cli.Stack.Connect(t, w.Endpoint(0, 80), stacks.Options{})
					if err != nil {
						failed++
						done++
						continue
					}
					latencies = append(latencies, w.Now()-start)
					// Wait for the server's FIN, then close (passive side:
					// no client TIME_WAIT, the port recycles immediately).
					for {
						n, err := c.Read(t, buf)
						if err != nil || n == 0 {
							break
						}
					}
					c.Close(t)
					done++
				}
			})
		}
	}

	wallStart := time.Now()
	w.RunUntil(time.Hour, func() bool { return done >= cfg.Conns })
	res.Wall = time.Since(wallStart)
	res.Virtual = w.Now()
	if res.Err == nil && done < cfg.Conns {
		res.Err = errors.New("churn: virtual-time budget exhausted")
		return res
	}
	if res.Err == nil && failed > 0 {
		res.Err = errors.New("churn: connection setups failed")
		return res
	}
	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	pct := func(p float64) time.Duration {
		if len(latencies) == 0 {
			return 0
		}
		i := int(p * float64(len(latencies)-1))
		return latencies[i]
	}
	res.P50, res.P99, res.P999 = pct(0.50), pct(0.99), pct(0.999)
	if res.Virtual > 0 {
		res.SetupsPerVSec = float64(len(latencies)) / res.Virtual.Seconds()
	}
	fired, _, _ := w.Sim.Counters()
	if res.Wall > 0 {
		res.EventsPerWSec = float64(fired) / res.Wall.Seconds()
	}
	return res
}
