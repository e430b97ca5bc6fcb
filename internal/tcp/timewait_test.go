package tcp

import (
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

// TestCompactTimeWaitMatchesEngine feeds a connection in TIME_WAIT and the
// compact form made of it the same segments: a retransmitted FIN, an old
// ACK, an ACK above snd_max, data, the peer's FIN again inside the window,
// segments outside the window with and without RST, one without ACK, and
// then an RST or an in-window SYN. Both must answer with the same segments
// byte for byte, count the same, trace the same events, close the same way,
// and neither may restart the 2MSL, so both expire on the tick it was armed
// for.
func TestCompactTimeWaitMatchesEngine(t *testing.T) {
	for _, last := range []string{"none", "rst", "syn"} {
		n, tw, full := timeWaitPair(t)
		a := n.a
		before := a.Stats()
		ticks := a.NextSlowTicks()
		snd, rcv := a.sndNxt, a.rcvNxt
		from := func(seq, ack Seq, flags uint8) Header {
			return Header{SrcPort: 80, DstPort: 1025, Seq: seq, Ack: ack, Flags: flags, Window: 4096}
		}
		type segIn struct {
			h    Header
			data []byte
		}
		segs := []segIn{
			{h: from(rcv.Add(-1), snd, FlagFIN|FlagACK)}, // retransmitted FIN
			{h: from(rcv, snd.Add(-5), FlagACK)},         // old ACK
			{h: from(rcv, snd.Add(100), FlagACK)},        // ACK for data never sent
			{h: from(rcv, snd, FlagACK|FlagPSH), data: []byte("late")},
			{h: from(rcv, snd, FlagFIN|FlagACK)},     // the FIN again, in the window
			{h: from(rcv.Add(100000), snd, FlagACK)}, // outside the window
			{h: from(rcv.Add(100000), snd, FlagRST)}, // RST outside the window
			{h: from(rcv, 0, 0)},                     // no ACK
		}
		switch last {
		case "rst":
			segs = append(segs, segIn{h: from(rcv.Add(10), 0, FlagRST)})
		case "syn":
			segs = append(segs, segIn{h: from(rcv.Add(10), 0, FlagSYN)})
		}

		for _, s := range segs {
			a.Input(s.h, s.data)
			if a.State() == TimeWait && a.NextSlowTicks() != ticks {
				t.Fatalf("%s: %v restarted the 2MSL: %d ticks left, armed for %d", last, s.h, a.NextSlowTicks(), ticks)
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
		for _, s := range segs {
			r := tw.Input(s.h, len(s.data), &st)
			if r.Seg != nil {
				compact.reply(r.Hdr, r.Seg.Bytes())
			}
			if r.Closed {
				tw.Close(TrigReset, &st)
				closed = true
				if r.Err != a.closedErr {
					t.Errorf("%s: compact form closed with %v, engine with %v", last, r.Err, a.closedErr)
				}
			}
		}
		if !closed {
			for k := 1; a.State() == TimeWait; k++ {
				a.SlowTick()
				if a.State() == Closed && k != ticks {
					t.Errorf("engine expired %d ticks into its 2MSL, want %d", k, ticks)
				}
			}
			tw.Close(TrigTimer, &st)
			fullStats = a.Stats()
		}

		if fmt.Sprint(compact.replies) != fmt.Sprint(full.replies) {
			t.Errorf("%s: answers differ:\ncompact %v\nengine  %v", last, compact.replies, full.replies)
		}
		if fmt.Sprint(compact.events) != fmt.Sprint(full.events) {
			t.Errorf("%s: trace differs:\ncompact %v\nengine  %v", last, compact.events, full.events)
		}
		var want Stats
		want.SegsSent = fullStats.SegsSent - before.SegsSent
		want.SegsRcvd = fullStats.SegsRcvd - before.SegsRcvd
		want.AcksSent = fullStats.AcksSent - before.AcksSent
		want.BadChecksumOrTrim = fullStats.BadChecksumOrTrim - before.BadChecksumOrTrim
		want.TimerOps = fullStats.TimerOps - before.TimerOps
		if st != want {
			t.Errorf("%s: compact form counted %+v, engine %+v", last, st, want)
		}
		// The retransmitted FIN, the ACK above snd_max, the data and the
		// segment outside the window draw an ACK each; the SYN a reset.
		if want := map[string]int{"none": 4, "rst": 4, "syn": 5}[last]; len(full.replies) != want {
			t.Errorf("%s: %d answers, want %d", last, len(full.replies), want)
		}
	}
}
