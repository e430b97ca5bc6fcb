package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"time"

	"ulp"
	"ulp/internal/kern"
	"ulp/internal/stacks"
	"ulp/internal/wire"
)

// workload is one set of inputs. An operation ("op") is the unit its
// end-to-end metrics count and time; each workload names its own.
type workload struct {
	name  string
	why   string // BENCHMARK.json's one line
	op    string // what one op is, for the report
	build func(e *env) *scenario
	// unlisted workloads are run by hand and by the baseline, not by the
	// driver: BENCHMARK.json may only name workloads on which no op fails and
	// whose metrics hold still from seed to seed.
	unlisted bool
}

var workloads = []workload{
	{"churn",
		"32 closed-loop workers on 4 hosts open and drop 5000 zero-payload connections: control plane only (registry, RPCs, channel install and revoke, TIME_WAIT timers, proc hand-offs)",
		"connection set-up, timed from the Connect call to its return", buildChurn, false},
	{"bulk",
		"8 one-way flows move 32 MiB in seeded 2-6 KiB writes over AN1 with the receiving CPU saturated: per-byte and per-packet data path (checksum, copies, demux, TCP input and output)",
		"application write of 2-6 KiB whose bytes the receiver verifies, timed as the sender's Write call", buildBulk, false},
	{"reqresp",
		"4 clients make 20000 echo exchanges of 2 to 1460 bytes over Ethernet with 2 ms mean think time: per-packet fixed costs (traps, wake-ups, software demux, delayed ACKs)",
		"echo exchange, timed from the request Write to the last reply byte", buildReqResp, false},
	{"lossy_iid",
		"bulk with 128 MiB and 3 % of frames lost each way once the flows are up: the same data path spent in loss recovery (retransmission time-outs, backoff, long idle timer waits)",
		"application write of 2-6 KiB whose bytes the receiver verifies, timed as the sender's Write call", buildLossyIID, false},
	{"lossy_bulk",
		"bulk under Gilbert-Elliott bursts of about 2 frames (3 % good->bad, 50 % bad->good) from virtual time 0, 60 virtual minutes allowed: recovery from loss bursts, set-up under loss, flows that give up",
		"application write of 2-6 KiB whose bytes the receiver verifies, timed as the sender's Write call", buildLossyBulk, true},
}

func workloadByName(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// scenario is a built repetition: a world with its application threads
// spawned, ready for RunUntil.
type scenario struct {
	w      *ulp.World
	budget time.Duration // virtual deadline of the measured phase
	// ready, when set, splits the measured phase: the world runs until ready
	// holds, onReady runs outside the simulation, and the world runs on.
	ready   func() bool
	onReady func()
	done    func() bool // the measured phase is complete
	// stop runs once, outside the simulation, when the measured phase ends:
	// it freezes the outcome's counts, flags open-ended loops to wind down
	// and starts the threads that close the listeners, so that the drain
	// that follows can bring the world back to idle.
	stop func()
	// settle runs after the drain and makes the output checks that only
	// hold once every byte sent has landed.
	settle func()
	out    *outcome
}

// outcome is what the workload observed of its own operations.
type outcome struct {
	attempted, failed int
	setups            int             // connections established
	payload           int64           // verified application bytes delivered
	lat               []time.Duration // virtual latency of each completed op
	errs              []string        // failed output checks
}

func (o *outcome) errorf(format string, a ...any) {
	if len(o.errs) < 10 {
		o.errs = append(o.errs, fmt.Sprintf(format, a...))
	}
}

// ---------------------------------------------------------------------------
// churn
// ---------------------------------------------------------------------------

func buildChurn(e *env) *scenario {
	const clients, workers = 4, 8
	total := e.n(5000)
	w := e.newWorld(ulp.Config{
		Net: ulp.AN1, Hosts: clients + 1,
		Switch:         &wire.SwitchConfig{Latency: time.Microsecond},
		RegistryShards: 4,
		EphemeralLo:    1024, EphemeralHi: 60000,
	})
	out := &outcome{attempted: total, lat: make([]time.Duration, 0, total)}
	sc := &scenario{w: w, budget: time.Hour, out: out}

	srv := w.Node(0).App("server")
	var lis stacks.Listener
	accepted := 0
	srv.Go("srv", func(t *kern.Thread) {
		l, err := srv.Stack.Listen(t, 80, stacks.Options{Backlog: clients * workers})
		if err != nil {
			out.errorf("churn: listen: %v", err)
			return
		}
		lis = l
		for {
			e.beginOp(t, "srv", accepted)
			c, err := e.accept(t, l)
			if err != nil {
				e.endOp(t)
				return
			}
			accepted++
			// The server closes first, so TIME_WAIT and its 2MSL timers
			// pile up on the server host while client ports recycle at once.
			e.close(t, c)
			e.endOp(t)
		}
	})

	jitter := e.rng(0)
	done := 0
	for ci := 1; ci <= clients; ci++ {
		cli := w.Node(ci).App("client")
		for wi := 0; wi < workers; wi++ {
			id := (ci-1)*workers + wi
			who := fmt.Sprintf("w%d", id)
			quota := total / (clients * workers)
			if id < total%(clients*workers) {
				quota++
			}
			start := time.Duration(jitter.Int63n(int64(400 * time.Microsecond)))
			cli.GoAfter(start, "worker", func(t *kern.Thread) {
				buf := make([]byte, 64)
				for k := 0; k < quota; k++ {
					e.beginOp(t, who, k)
					t0 := w.Now()
					c, err := e.connect(t, cli.Stack, w.Endpoint(0, 80), stacks.Options{})
					if err != nil {
						out.failed++
						done++
						e.endOp(t)
						continue
					}
					out.lat = append(out.lat, w.Now()-t0)
					out.setups++
					for {
						n, err := e.read(t, c, buf)
						if n > 0 {
							out.errorf("churn: worker %d read %d bytes on a connection that carries none", id, n)
						}
						if err != nil || n == 0 {
							break
						}
					}
					e.close(t, c)
					e.endOp(t)
					done++
				}
			})
		}
	}
	sc.done = func() bool { return done >= total }
	sc.stop = func() { unlisten(srv, lis) }
	sc.settle = func() {
		if done < total {
			out.failed += total - done
		}
		if want := total - out.failed; accepted != want {
			out.errorf("churn: server accepted %d connections, clients completed %d", accepted, want)
		}
	}
	return sc
}

// ---------------------------------------------------------------------------
// bulk and lossy_bulk
// ---------------------------------------------------------------------------

const (
	bulkFlows = 8
	bulkWrite = 4096 // mean write size; the op is one write
)

func buildBulk(e *env) *scenario {
	return buildBulkOn(e, 32<<20, 10*time.Minute, nil, false)
}

// buildLossyIID is bulk with 3 % of the frames lost independently in each
// direction once the flows are up, and four times the bytes: virtual time
// here is a sum of retransmission time-outs, and it takes some 2000 of them
// for that sum to repeat within a few per cent from one seed to the next
// (README, "Choosing the loss model"). It is the loss workload the driver
// runs.
func buildLossyIID(e *env) *scenario {
	loss := &wire.PathShape{LossProb: 0.03}
	return buildBulkOn(e, 128<<20, 2*time.Hour,
		&wire.LinkConditions{Seed: e.seed, Forward: loss, Reverse: loss}, true)
}

// buildLossyBulk is ISSUE 11's loss workload and ROADMAP item 4's
// scoreboard: bulk byte for byte under the `ulbench -degrade` "burst~2" row,
// from virtual time 0, so connection set-up is exposed to the loss too. Some
// seeds lose a flow and some never connect; those are failed ops and failed
// drain checks, reported as they are.
func buildLossyBulk(e *env) *scenario {
	return buildBulkOn(e, 32<<20, time.Hour, &wire.LinkConditions{Seed: e.seed,
		Burst: &wire.GilbertElliott{PGoodBad: 0.03, PBadGood: 0.5, LossBad: 1}}, false)
}

// buildBulkOn streams the seeded pattern over bulkFlows one-way flows until
// the receivers together hold `size` verified bytes. The target is on the
// sum, not per flow: the measured phase is then all steady state, and under
// loss its length is an average over the flows and not the time of the one
// flow that backed off longest. The link conditions lc, if any, hold from
// virtual time 0, or with afterSetup from the moment every flow is connected;
// either way they are lifted for the drain.
func buildBulkOn(e *env, size int, budget time.Duration, lc *wire.LinkConditions, afterSetup bool) *scenario {
	target := int64(e.n(size/bulkWrite)) * bulkWrite
	cfg := ulp.Config{Net: ulp.AN1}
	if !afterSetup {
		cfg.Conditions = lc
	}
	w := e.newWorld(cfg)
	pat := newPattern(e.rng(1))
	out := &outcome{lat: make([]time.Duration, 0, target/bulkWrite+bulkFlows)}
	sc := &scenario{w: w, budget: budget, out: out}

	var (
		total    int64 // verified bytes received, all flows
		up       int   // flows connected
		stopping bool
		sent     [bulkFlows]int64
		rcvd     [bulkFlows]int64
		gaveUp   [bulkFlows]bool
		lis      [bulkFlows]stacks.Listener
	)
	sink := w.Node(0).App("sink")
	source := w.Node(1).App("source")
	jitter := e.rng(0)
	for f := 0; f < bulkFlows; f++ {
		port := uint16(9000 + f)
		label := fmt.Sprintf("flow%d", f)
		sink.Go("reader", func(t *kern.Thread) {
			l, err := sink.Stack.Listen(t, port, stacks.Options{})
			if err != nil {
				out.errorf("%s: listen: %v", label, err)
				return
			}
			lis[f] = l
			e.beginOp(t, label, 0)
			defer e.endOp(t)
			c, err := e.accept(t, l)
			if err != nil {
				return // listener closed by stop before the flow came up
			}
			buf := make([]byte, 16<<10)
			for {
				n, err := e.read(t, c, buf)
				if n > 0 {
					if !bytes.Equal(buf[:n], pat.at(f, rcvd[f], n)) {
						out.errorf("%s: bytes at stream offset %d differ from the seeded pattern", label, rcvd[f])
					}
					rcvd[f] += int64(n)
					total += int64(n)
				}
				if err != nil {
					break // the flow gave up, or the drain is tearing it down
				}
				if n == 0 {
					break
				}
			}
			e.close(t, c)
		})
		start := time.Millisecond + time.Duration(jitter.Int63n(int64(2*time.Millisecond)))
		// Write sizes are seeded, 2 KiB to 6 KiB, 4 KiB on average.
		sizes := make([]int, 1024)
		for i := range sizes {
			sizes[i] = 2048 + jitter.Intn(4097)
		}
		source.GoAfter(start, "writer", func(t *kern.Thread) {
			e.beginOp(t, label, 1)
			defer e.endOp(t)
			c, err := e.connect(t, source.Stack, w.Endpoint(0, port), stacks.Options{})
			if err != nil {
				out.failed++ // refused or timed out: a failed op
				gaveUp[f] = true
				return
			}
			up++
			out.setups++
			for k := 0; !stopping; k++ {
				t0 := w.Now()
				n := sizes[k%len(sizes)]
				if _, err := e.write(t, c, pat.at(f, sent[f], n)); err != nil {
					// The flow gave up (R2): a failed op. The others go on.
					out.failed++
					gaveUp[f] = true
					return
				}
				sent[f] += int64(n)
				if !stopping {
					out.lat = append(out.lat, w.Now()-t0)
				}
			}
			e.close(t, c)
		})
	}
	if lc != nil && afterSetup {
		sc.ready = func() bool { return up == bulkFlows }
		sc.onReady = func() { w.Seg.SetConditions(lc) }
	}
	sc.done = func() bool { return total >= target }
	sc.stop = func() {
		stopping = true
		w.Seg.SetConditions(nil)
		out.payload = total
		out.attempted = len(out.lat) + out.failed
		if total < target { // the budget ran out: the writes never made failed
			n := int((target - total + bulkWrite - 1) / bulkWrite)
			out.attempted, out.failed = out.attempted+n, out.failed+n
		}
		unlisten(sink, lis[:]...)
	}
	sc.settle = func() {
		for f := range sent {
			if rcvd[f] != sent[f] && !gaveUp[f] {
				out.errorf("flow%d: received %d bytes of %d sent", f, rcvd[f], sent[f])
			}
		}
	}
	return sc
}

// ---------------------------------------------------------------------------
// reqresp
// ---------------------------------------------------------------------------

func buildReqResp(e *env) *scenario {
	const clients = 4
	sizes := [...]int{2, 64, 512, 1460}
	per := e.n(5000)
	total := per * clients
	w := e.newWorld(ulp.Config{Net: ulp.Ethernet})
	pat := newPattern(e.rng(1))
	out := &outcome{attempted: total, lat: make([]time.Duration, 0, total)}
	sc := &scenario{w: w, budget: 10 * time.Minute, out: out}

	srv := w.Node(0).App("server")
	var lis stacks.Listener
	echoed := 0
	srv.Go("srv", func(t *kern.Thread) {
		l, err := srv.Stack.Listen(t, 7, stacks.Options{Backlog: clients})
		if err != nil {
			out.errorf("reqresp: listen: %v", err)
			return
		}
		lis = l
		for i := 0; ; i++ {
			c, err := e.accept(t, l)
			if err != nil {
				return
			}
			who := fmt.Sprintf("srv%d", i)
			srv.Go("echo", func(t *kern.Thread) {
				// The first two bytes of a request carry its length.
				buf := make([]byte, sizes[len(sizes)-1])
				for k := 0; ; k++ {
					e.beginOp(t, who, k)
					got, want := 0, 2
					for got < want {
						n, err := e.read(t, c, buf[got:want])
						if err != nil || n == 0 {
							e.endOp(t)
							e.close(t, c)
							return
						}
						got += n
						if got >= 2 {
							want = int(binary.BigEndian.Uint16(buf))
						}
					}
					if _, err := e.write(t, c, buf[:want]); err != nil {
						e.endOp(t)
						return
					}
					echoed++
					e.endOp(t)
				}
			})
		}
	})

	done := 0
	for ci := 0; ci < clients; ci++ {
		r := e.rng(10 + ci)
		// Sizes and think times are drawn at set-up so the measured phase
		// spends nothing on generating inputs.
		size := make([]int, per)
		think := make([]time.Duration, per)
		for k := range size {
			size[k] = sizes[r.Intn(len(sizes))]
			think[k] = time.Duration(r.ExpFloat64() * float64(2*time.Millisecond))
		}
		who := fmt.Sprintf("c%d", ci)
		cli := w.Node(1).App("client" + who[1:])
		start := time.Millisecond + time.Duration(r.Int63n(int64(time.Millisecond)))
		cli.GoAfter(start, "cli", func(t *kern.Thread) {
			c, err := e.connect(t, cli.Stack, w.Endpoint(0, 7), stacks.Options{})
			if err != nil {
				out.errorf("reqresp: client %d connect: %v", ci, err)
				out.failed += per
				done += per
				return
			}
			out.setups++
			msg := make([]byte, sizes[len(sizes)-1])
			rep := make([]byte, sizes[len(sizes)-1])
			for k := 0; k < per; k++ {
				t.Sleep(think[k])
				n := size[k]
				copy(msg, pat.at(ci, int64(k), n))
				binary.BigEndian.PutUint16(msg, uint16(n))
				e.beginOp(t, who, k)
				t0 := w.Now()
				_, err := e.write(t, c, msg[:n])
				got := 0
				for err == nil && got < n {
					var m int
					m, err = e.read(t, c, rep[got:n])
					if m == 0 && err == nil {
						err = stacks.ErrClosed
					}
					got += m
				}
				e.endOp(t)
				done++
				if err != nil {
					out.failed++
					continue
				}
				out.lat = append(out.lat, w.Now()-t0)
				if !bytes.Equal(rep[:n], msg[:n]) {
					out.errorf("reqresp: client %d exchange %d: echo differs from the request", ci, k)
				}
				out.payload += int64(n)
			}
			e.close(t, c)
		})
	}
	sc.done = func() bool { return done >= total }
	sc.stop = func() { unlisten(srv, lis) }
	sc.settle = func() {
		if done < total {
			out.failed += total - done
		}
		if want := total - out.failed; echoed != want {
			out.errorf("reqresp: server echoed %d requests, clients completed %d", echoed, want)
		}
	}
	return sc
}
