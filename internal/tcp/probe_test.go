package tcp

import (
	"fmt"
	"testing"
	"time"

	"ulp/internal/trace"
)

// Tail loss probe (RFC 8985 §7): a flight whose loss is too near its tail
// to draw three duplicate ACKs gets one segment more after a probe
// time-out, and the duplicate that draws lets fast retransmission repair
// the hole instead of the retransmission timer.

// probeLog records what a's estimator samples and, at each tail loss probe,
// its back-off and retransmission timer.
type probeLog struct {
	samples []int64
	probes  []string
}

func traceProbes(n *testNet) *probeLog {
	l := new(probeLog)
	bus := trace.NewBus(func() time.Duration { return time.Duration(n.now) * 100 * time.Millisecond })
	bus.Subscribe(func(e trace.Event) {
		switch {
		case e.Kind == trace.TCPRTO:
			l.samples = append(l.samples, e.A)
		case e.Kind == trace.TCPRexmit && e.Text == "probe":
			l.probes = append(l.probes, fmt.Sprintf("shift %d, retransmission timer %d", e.A, n.a.tRexmt))
		}
	})
	n.a.SetTrace(bus, "a")
	return l
}

// TestTailLossRepairedByProbe loses the third of a five-segment flight with
// nothing behind it: the last two segments draw two duplicate ACKs, one
// short of fast retransmission. The probe resends the highest segment,
// which draws the third, and fast retransmission repairs the hole with no
// time-out. Without the probe the flow waits out the retransmission timer.
func TestTailLossRepairedByProbe(t *testing.T) {
	n := newTestNet(t, defaultCfg())
	n.connect()
	warmUp(t, n)
	n.drop = dropSends(3)
	data := pattern(5 * mss)
	checkIntegrity(t, data, n.pump(n.a, n.b, data, 200))
	st := n.a.Stats()
	if st.Rexmits != 0 || st.TailProbes != 1 || st.FastRexmits != 1 {
		t.Fatalf("time-outs %d, probes %d, fast retransmissions %d; want 0, 1, 1",
			st.Rexmits, st.TailProbes, st.FastRexmits)
	}
}

// TestLossFreeFlowNeverProbes: with nothing lost no probe fires, neither in
// a bulk transfer nor in a run of lone segments whose ACKs the peer delays.
func TestLossFreeFlowNeverProbes(t *testing.T) {
	n := newTestNet(t, defaultCfg())
	n.connect()
	data := pattern(200_000)
	checkIntegrity(t, data, n.pump(n.a, n.b, data, 5000))
	for i := 0; i < 20; i++ {
		small := pattern(100 + i)
		checkIntegrity(t, small, n.pump(n.b, n.a, small, 100))
		n.run(7)
	}
	if a, b := n.a.Stats().TailProbes, n.b.Stats().TailProbes; a != 0 || b != 0 {
		t.Fatalf("loss-free flows sent %d and %d tail loss probes", a, b)
	}
}

// TestProbeResendsPastLimitedTransmit: two duplicate ACKs let limited
// transmit take a cwnd-limited flight to cwnd + 2 segments, and then
// nothing more arrives. The probe resends the highest segment, which is
// already in flight: a frame leaves for the probe that is counted, though
// cwnd + 1 segment is less than what the resend would count in flight.
func TestProbeResendsPastLimitedTransmit(t *testing.T) {
	n := newTestNet(t, defaultCfg())
	n.connect()
	warmUp(t, n)
	n.a.cwnd = 2 * mss
	una := n.a.sndUna
	n.a.Write(pattern(5 * mss))
	n.toB = nil
	for range 2 {
		ackA(n, una, 0, n.a.sndWnd)
	}
	n.toB = nil
	if out, cwnd := n.a.sndMax.Diff(n.a.sndUna), n.a.cwnd; out != cwnd+2*mss {
		t.Fatalf("%d bytes in flight with cwnd %d, want limited transmit to reach cwnd + 2 segments", out, cwnd)
	}
	n.a.AdvanceFastTicks(probeTicks + 1)
	if st := n.a.Stats(); st.TailProbes != 1 || len(n.toB) != 1 {
		t.Fatalf("%d probes counted, %d frames sent; want 1 and 1", st.TailProbes, len(n.toB))
	}
	h, err := Decode(n.toB[0], n.aIP, n.bIP)
	if err != nil {
		t.Fatal(err)
	}
	if want := n.a.sndMax.Add(-mss); h.Seq != want {
		t.Fatalf("probe starts at %d, want the highest segment at %d", h.Seq, want)
	}
}
