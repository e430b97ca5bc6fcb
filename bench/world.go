package main

import (
	"fmt"
	"math/rand"
	"reflect"
	"time"

	"ulp"
	"ulp/internal/conform"
	"ulp/internal/kern"
	"ulp/internal/stacks"
	"ulp/internal/tcp"
	"ulp/internal/trace"
)

// env is what one repetition hands to its workload: the seed every generated
// input derives from, the size scale, and — on a traced repetition only — the
// span recorder and event counters.
type env struct {
	seed  uint64
	scale float64 // 1 = the sizes BENCHMARK.json describes; the smoke test runs 1/50
	tr    *tracer // nil on untraced repetitions
}

// n scales an operation count, never below 1.
func (e *env) n(full int) int {
	v := int(float64(full) * e.scale)
	if v < 1 {
		v = 1
	}
	return v
}

// rng returns a generator private to one stream of inputs. Every random
// input of a repetition comes from one of these; nothing reads the global
// source or a clock.
func (e *env) rng(stream int) *rand.Rand {
	return rand.New(rand.NewSource(int64(e.seed*1000003 + uint64(stream))))
}

// newWorld builds a user-level-library world for a workload.
func (e *env) newWorld(cfg ulp.Config) *ulp.World {
	cfg.Org = ulp.OrgUserLib
	// Every user-level world must run the timing-wheel timer backend: with
	// the per-connection tick scans a world holding several connections per
	// shell is not repeatable run to run (README, "Tick-scan nondeterminism").
	// The field is set by name because ROADMAP item 2b deletes it — the wheel
	// becomes the only backend — and that change may not edit this file.
	if f := reflect.ValueOf(&cfg).Elem().FieldByName("TimerWheel"); f.IsValid() && f.Kind() == reflect.Bool {
		f.SetBool(true)
	}
	w := ulp.NewWorld(cfg)
	if e.tr != nil {
		e.tr.attach(w)
	}
	return w
}

// ---------------------------------------------------------------------------
// Tracing: event counts from the program's bus, spans from our own wrappers
// ---------------------------------------------------------------------------

// span is one call into the stacks interface (or one enclosing operation),
// on both clocks. Spans stay in memory; the per-layer core.* metrics are
// computed from them.
type span struct {
	Name         string // op, connect, accept, read, write, close
	Conn         string // label shared by the spans of one connection
	Parent       int32  // index of the enclosing op span, -1 for none
	VStart, VEnd time.Duration
	WStart, WEnd time.Duration // wall time since the repetition started
}

// tracer holds everything a traced repetition records, in memory.
type tracer struct {
	now   func() time.Duration
	wall0 time.Time
	spans []span
	open  map[*kern.Thread]int32 // a thread's open op span

	kinds        map[trace.Kind]int64
	rexmtTimeout int64
	rexmtFast    int64
	checker      *conform.Checker
}

func newTracer() *tracer {
	return &tracer{wall0: time.Now(), open: map[*kern.Thread]int32{}, kinds: map[trace.Kind]int64{}}
}

// attach turns on the world's bus with the conformance checker and a
// subscriber that counts events by kind.
func (tr *tracer) attach(w *ulp.World) {
	tr.now = w.Now
	tr.checker = w.EnableConformance()
	w.Bus().Subscribe(func(ev trace.Event) {
		tr.kinds[ev.Kind]++
		if ev.Kind == trace.TCPRexmit {
			if ev.Text == "fast" {
				tr.rexmtFast++
			} else {
				tr.rexmtTimeout++
			}
		}
	})
}

func (tr *tracer) begin(name, conn string, parent int32) int32 {
	tr.spans = append(tr.spans, span{Name: name, Conn: conn, Parent: parent,
		VStart: tr.now(), WStart: time.Since(tr.wall0)})
	return int32(len(tr.spans) - 1)
}

func (tr *tracer) end(i int32) {
	tr.spans[i].VEnd, tr.spans[i].WEnd = tr.now(), time.Since(tr.wall0)
}

// beginOp opens the span of one workload operation on thread t; the stacks
// calls t makes until endOp are its children and share its label, which is
// who/k and is only formatted on a traced repetition.
func (e *env) beginOp(t *kern.Thread, who string, k int) {
	if e.tr != nil {
		e.tr.open[t] = e.tr.begin("op", fmt.Sprintf("%s/%d", who, k), -1)
	}
}

func (e *env) endOp(t *kern.Thread) {
	if e.tr != nil {
		e.tr.end(e.tr.open[t])
		delete(e.tr.open, t)
	}
}

func noSpan() {}

// call opens the span of one stacks call on thread t, under t's open op if
// it has one, and returns what closes it. Untraced it costs one nil test.
func (e *env) call(t *kern.Thread, name string) func() {
	if e.tr == nil {
		return noSpan
	}
	conn, parent := "", int32(-1)
	if op, ok := e.tr.open[t]; ok {
		conn, parent = e.tr.spans[op].Conn, op
	}
	s := e.tr.begin(name, conn, parent)
	return func() { e.tr.end(s) }
}

// The wrappers below are the benchmark's only way into the stacks interface.

func (e *env) connect(t *kern.Thread, st stacks.Stack, to tcp.Endpoint, o stacks.Options) (stacks.Conn, error) {
	defer e.call(t, "connect")()
	return st.Connect(t, to, o)
}

func (e *env) accept(t *kern.Thread, l stacks.Listener) (stacks.Conn, error) {
	defer e.call(t, "accept")()
	return l.Accept(t)
}

func (e *env) read(t *kern.Thread, c stacks.Conn, p []byte) (int, error) {
	defer e.call(t, "read")()
	return c.Read(t, p)
}

func (e *env) write(t *kern.Thread, c stacks.Conn, p []byte) (int, error) {
	defer e.call(t, "write")()
	return c.Write(t, p)
}

func (e *env) close(t *kern.Thread, c stacks.Conn) error {
	defer e.call(t, "close")()
	return c.Close(t)
}

// unlisten closes listeners from a thread of their application, so that the
// drain can reach idle; nil entries are listeners that never came up.
func unlisten(a *ulp.App, ls ...stacks.Listener) {
	a.Go("unlisten", func(t *kern.Thread) {
		for _, l := range ls {
			if l != nil {
				l.Close(t)
			}
		}
	})
}

// ---------------------------------------------------------------------------
// Payload pattern
// ---------------------------------------------------------------------------

// pattern is the seeded, position-dependent byte stream the bulk workloads
// send: byte pos of flow f is base[(pos + f*patternStride) % patternPeriod].
// The period is prime so a block misplaced by any multiple of the write or
// segment size fails verification.
type pattern struct{ base []byte }

const (
	patternPeriod = 65521
	patternStride = 8191
	patternMaxRun = 32 << 10 // longest slice at() may be asked for
)

func newPattern(r *rand.Rand) pattern {
	b := make([]byte, patternPeriod+patternMaxRun)
	r.Read(b[:patternPeriod])
	copy(b[patternPeriod:], b)
	return pattern{b}
}

// at returns the n expected bytes of flow f starting at stream position pos.
func (p pattern) at(f int, pos int64, n int) []byte {
	off := (pos + int64(f)*patternStride) % patternPeriod
	return p.base[off : off+int64(n)]
}
