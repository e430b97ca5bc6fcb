package tcp

import (
	"encoding/binary"
	"fmt"
	"testing"
	"time"

	"ulp/internal/pkt"
	"ulp/internal/trace"
)

// TestSimultaneousCloseQuietInTimeWait: the ACK that moves a side from
// CLOSING to TIME_WAIT is the last thing it hears, and it answers nothing.
// RFC 793 ignores an ACK in CLOSING that does not cover the FIN, and one
// that does only changes the state; 4.4BSD switches on the state the segment
// arrived in. Before the fix each side acknowledged that ACK (a segment that
// acknowledges nothing new) and armed 2MSL a second time.
func TestSimultaneousCloseQuietInTimeWait(t *testing.T) {
	n := newTestNet(t, defaultCfg())
	n.connect()
	arms := map[string]int{}
	bus := trace.NewBus(func() time.Duration { return 0 })
	bus.Subscribe(func(e trace.Event) {
		if e.Kind == trace.TCPTimeWait {
			arms[e.Conn]++
		}
	})
	n.a.SetTrace(bus, "a")
	n.b.SetTrace(bus, "b")
	sentInTimeWait := map[string]int{}
	n.drop = func(dir string, h Header, _ int) bool {
		src := n.a
		if dir == "b->a" {
			src = n.b
		}
		if src.State() == TimeWait {
			sentInTimeWait[dir]++
			t.Logf("%s in TIME_WAIT sends %v", dir, h)
		}
		return false
	}
	// Both close before either FIN is delivered.
	n.a.Close()
	n.b.Close()
	n.deliver()
	if n.a.State() != TimeWait || n.b.State() != TimeWait {
		t.Fatalf("states a=%v b=%v, want TIME_WAIT for both", n.a.State(), n.b.State())
	}
	for _, dir := range []string{"a->b", "b->a"} {
		if k := sentInTimeWait[dir]; k != 0 {
			t.Errorf("%s: %d segments sent in TIME_WAIT, want none", dir, k)
		}
	}
	for _, who := range []string{"a", "b"} {
		if arms[who] != 1 {
			t.Errorf("%s: 2MSL armed %d times, want once", who, arms[who])
		}
	}
}

// twRecorder collects what a connection in TIME_WAIT does: the segments it
// answers with (header and bytes) and its trace events.
type twRecorder struct {
	replies []string
	events  []string
}

func (r *twRecorder) reply(h Header, seg []byte) {
	r.replies = append(r.replies, fmt.Sprintf("%+v % x", h, seg))
}

// timeWaitPair closes a connection from a first, so that a is in TIME_WAIT,
// and returns the net, a's compact form made at that moment, and a recorder
// of a's trace events and of the segments a sends from then on.
func timeWaitPair(t *testing.T) (*testNet, TW, *twRecorder) {
	n := newTestNet(t, defaultCfg())
	rec := &twRecorder{}
	bus := trace.NewBus(func() time.Duration { return 0 })
	bus.Subscribe(func(e trace.Event) {
		rec.events = append(rec.events, fmt.Sprintf("%v %d %d %d %s", e.Kind, e.A, e.B, e.C, e.Text))
	})
	n.a.SetTrace(bus, "a")
	n.connect()
	n.pump(n.b, n.a, pattern(3000), 100)
	n.a.Close()
	n.deliver()
	n.b.Close()
	n.deliver()
	if n.a.State() != TimeWait {
		t.Fatalf("a in %v, want TIME_WAIT", n.a.State())
	}
	n.drop = func(dir string, h Header, _ int) bool { return true }
	cb := n.a.Callbacks()
	cb.Send = func(seg *pkt.Buf, h Header, _ int) { rec.reply(h, seg.Bytes()) }
	n.a.SetCallbacks(cb)
	rec.events = nil
	return n, n.a.Compact(), rec
}

// twSeg is one segment fed to a connection in TIME_WAIT: its sequence and
// acknowledgment numbers are offsets from the connection's rcv_nxt and
// snd_nxt.
type twSeg struct {
	seq, ack int
	flags    uint8
	data     []byte
}

// runTimeWaitRule feeds a connection in TIME_WAIT and the compact form made
// of it the same segments. Both must answer with the same segments byte for
// byte, count the same, trace the same events, close the same way, and
// neither may restart the 2MSL, so both expire on the tick it was armed
// for. It returns the engine's answers.
func runTimeWaitRule(t *testing.T, name string, segs []twSeg) []string {
	t.Helper()
	n, tw, full := timeWaitPair(t)
	a := n.a
	before := a.Stats()
	ticks := a.NextSlowTicks()
	snd, rcv := a.sndNxt, a.rcvNxt
	hdrs := make([]Header, len(segs))
	for i, s := range segs {
		hdrs[i] = Header{SrcPort: 80, DstPort: 1025, Seq: rcv.Add(s.seq), Ack: snd.Add(s.ack), Flags: s.flags, Window: 4096}
	}

	for i, s := range segs {
		if a.State() != TimeWait {
			break
		}
		a.Input(hdrs[i], s.data)
		if a.State() == TimeWait && a.NextSlowTicks() != ticks {
			t.Fatalf("%s: %v restarted the 2MSL: %d ticks left, armed for %d", name, hdrs[i], a.NextSlowTicks(), ticks)
		}
	}
	fullStats := a.Stats()

	compact := &twRecorder{}
	bus := trace.NewBus(func() time.Duration { return 0 })
	bus.Subscribe(func(e trace.Event) {
		compact.events = append(compact.events, fmt.Sprintf("%v %d %d %d %s", e.Kind, e.A, e.B, e.C, e.Text))
	})
	tw.bus = bus
	var st Stats
	closed := false
	for i, s := range segs {
		if closed {
			break
		}
		r := tw.Input(hdrs[i], len(s.data), &st)
		if r.Seg != nil {
			compact.reply(r.Hdr, r.Seg.Bytes())
		}
		if r.Closed {
			tw.Close(TrigReset, &st)
			closed = true
			if r.Err != a.closedErr {
				t.Errorf("%s: compact form closed with %v, engine with %v", name, r.Err, a.closedErr)
			}
		}
	}
	if closed != (a.State() == Closed) {
		t.Errorf("%s: compact form closed %v, engine in %v", name, closed, a.State())
	}
	if !closed {
		for k := 1; a.State() == TimeWait; k++ {
			a.SlowTick()
			if a.State() == Closed && k != ticks {
				t.Errorf("%s: engine expired %d ticks into its 2MSL, want %d", name, k, ticks)
			}
		}
		tw.Close(TrigTimer, &st)
		fullStats = a.Stats()
	}

	if fmt.Sprint(compact.replies) != fmt.Sprint(full.replies) {
		t.Errorf("%s: answers differ:\ncompact %v\nengine  %v", name, compact.replies, full.replies)
	}
	if fmt.Sprint(compact.events) != fmt.Sprint(full.events) {
		t.Errorf("%s: trace differs:\ncompact %v\nengine  %v", name, compact.events, full.events)
	}
	var want Stats
	want.SegsSent = fullStats.SegsSent - before.SegsSent
	want.SegsRcvd = fullStats.SegsRcvd - before.SegsRcvd
	want.AcksSent = fullStats.AcksSent - before.AcksSent
	want.BadChecksumOrTrim = fullStats.BadChecksumOrTrim - before.BadChecksumOrTrim
	want.TimerOps = fullStats.TimerOps - before.TimerOps
	if st != want {
		t.Errorf("%s: compact form counted %+v, engine %+v", name, st, want)
	}
	return full.replies
}

// twKinds are the segments TestCompactTimeWaitMatchesEngine scripts, each a
// kind FuzzTimeWaitRule seeds its corpus with.
var twKinds = []twSeg{
	{seq: -1, flags: FlagFIN | FlagACK},              // retransmitted FIN
	{ack: -5, flags: FlagACK},                        // old ACK
	{ack: 100, flags: FlagACK},                       // ACK for data never sent
	{flags: FlagACK | FlagPSH, data: []byte("late")}, // data
	{flags: FlagFIN | FlagACK},                       // the FIN again, in the window
	{seq: 100000, flags: FlagACK},                    // outside the window
	{seq: 100000, flags: FlagRST},                    // RST outside the window
	{},                                               // no ACK
	{seq: 10, flags: FlagRST},                        // RST in the window
	{seq: 10, flags: FlagSYN},                        // SYN in the window
}

// TestCompactTimeWaitMatchesEngine feeds a connection in TIME_WAIT and the
// compact form made of it the same segments: a retransmitted FIN, an old
// ACK, an ACK above snd_max, data, the peer's FIN again inside the window,
// segments outside the window with and without RST, one without ACK, and
// then an RST or an in-window SYN (runTimeWaitRule holds the two forms to
// each other).
func TestCompactTimeWaitMatchesEngine(t *testing.T) {
	script := twKinds[:8]
	for _, c := range []struct {
		last string
		tail []twSeg
		want int
	}{
		// The retransmitted FIN, the ACK above snd_max, the data and the
		// segment outside the window draw an ACK each; the SYN a reset.
		{"none", nil, 4},
		{"rst", twKinds[8:9], 4},
		{"syn", twKinds[9:10], 5},
	} {
		segs := append(script[:len(script):len(script)], c.tail...)
		if full := runTimeWaitRule(t, c.last, segs); len(full) != c.want {
			t.Errorf("%s: %d answers, want %d", c.last, len(full), c.want)
		}
	}
}

// twSegBytes is the size of one segment in FuzzTimeWaitRule's input: a
// sequence offset (int32) and an acknowledgment offset (int16), big-endian,
// then flags and a data length.
const twSegBytes = 8

// encodeTW encodes segments as FuzzTimeWaitRule reads them.
func encodeTW(segs ...twSeg) []byte {
	var out []byte
	for _, s := range segs {
		out = binary.BigEndian.AppendUint32(out, uint32(int32(s.seq)))
		out = binary.BigEndian.AppendUint16(out, uint16(int16(s.ack)))
		out = append(out, s.flags, byte(len(s.data)))
	}
	return out
}

// FuzzTimeWaitRule generalizes TestCompactTimeWaitMatchesEngine: random
// sequences of up to 32 segments, each with its sequence and acknowledgment
// offsets around rcv_nxt and snd_nxt, its flags and its data length drawn
// from the input, must leave a connection in TIME_WAIT and its compact form
// answering, counting, tracing and closing alike.
func FuzzTimeWaitRule(f *testing.F) {
	for _, k := range twKinds {
		f.Add(encodeTW(k))
	}
	f.Add(encodeTW(twKinds...))
	f.Fuzz(func(t *testing.T, in []byte) {
		var segs []twSeg
		for ; len(in) >= twSegBytes && len(segs) < 32; in = in[twSegBytes:] {
			segs = append(segs, twSeg{
				seq:   int(int32(binary.BigEndian.Uint32(in))),
				ack:   int(int16(binary.BigEndian.Uint16(in[4:]))),
				flags: in[6] & (FlagFIN | FlagSYN | FlagRST | FlagPSH | FlagACK | FlagURG),
				data:  make([]byte, in[7]),
			})
		}
		runTimeWaitRule(t, "fuzz", segs)
	})
}
