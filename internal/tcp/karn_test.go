package tcp

// Regression tests for Karn's rule: updateRTT must never see a sample
// measured across a retransmitted sequence. The retransmission-timeout and
// fast-retransmit paths always cleared the running measurement; the
// persist path did not — a window probe re-sends the byte at snd_una, so
// an RTT measurement surviving a persist episode would eventually be
// "completed" by an ACK of a multiply-retransmitted byte, feeding the
// estimator a sample spanning the entire episode (tens of seconds of
// probe backoff) and blowing up the RTO.

import (
	"slices"
	"testing"
	"time"

	"ulp/internal/trace"
)

// fillPeerWindow writes until b's advertised window is zero and the
// in-flight data is acknowledged (b never reads), leaving a with queued
// unsent data and the persist timer armed.
func fillPeerWindow(t *testing.T, n *testNet) {
	t.Helper()
	data := pattern(12000)
	written := 0
	for u := 0; u < 400; u++ {
		if written < len(data) {
			written += n.a.Write(data[written:])
		}
		n.tick()
		if n.b.rcv.window() == 0 && n.a.sndUna == n.a.sndMax && n.a.tPersist > 0 {
			return
		}
	}
	t.Fatalf("window never filled: bwin=%d persist=%d", n.b.rcv.window(), n.a.tPersist)
}

// TestPersistProbeNotTimedKarn pins the persist-path half of Karn's rule:
// after a zero-window episode with several probes, reopening the window
// must not complete an RTT measurement started at (or surviving into) the
// probe exchange.
// TestPersistProbeNotTimedKarn drives the interleaving where the bug
// bites: the first probe transmits a *new* byte (snd_nxt == snd_max) and
// starts an RTT measurement; the peer's window is still zero, so the byte
// is discarded. The persist timer then re-sends that byte just as the
// peer's window reopens — the re-sent (retransmitted) byte is accepted,
// and its ACK covers the timed sequence. Without the persist-path Karn
// clear, the estimator swallows a sample spanning the whole episode. The
// retransmission timer is parked with an inflated RTO so it cannot mask
// the bug by clearing the measurement first (its own Karn clear).
func TestPersistProbeNotTimedKarn(t *testing.T) {
	n := newTestNet(t, Config{MSS: 1460})
	n.connect()

	// Record every RTT sample the estimator accepts, via the trace bus
	// (TCPRTO events carry the sample in ticks).
	var samples []int64
	bus := trace.NewBus(func() time.Duration { return 0 })
	bus.Subscribe(func(e trace.Event) {
		if e.Kind == trace.TCPRTO {
			samples = append(samples, e.A)
		}
	})
	n.a.SetTrace(bus, "a")

	// Park the retransmission timer far out: a long-delay path whose
	// estimator has already converged on a large RTO.
	n.a.srtt = 50 << 3
	n.a.rttvar = 10
	n.a.rxtCur = 90

	fillPeerWindow(t, n)

	// First probe: sends the new byte at snd_max, starts timing it.
	probesBefore := n.a.stats.WindowProbes
	for u := 0; u < 200 && n.a.stats.WindowProbes == probesBefore; u++ {
		n.tick()
	}
	if n.a.stats.WindowProbes == probesBefore {
		t.Fatal("persist probe never fired")
	}

	// Let the (would-be) measurement age several slow ticks.
	n.run(25)

	// The peer drains its buffer — its window reopens — and in the same
	// breath the persist timer re-sends the probe byte. This time the
	// byte is accepted, and the covering ACK comes back.
	buf := make([]byte, 16384)
	for n.b.Read(buf) > 0 {
	}
	unaBefore := n.a.sndUna
	n.a.persistTimeout()
	n.deliver()
	if !unaBefore.Less(n.a.sndUna) {
		t.Fatal("re-sent probe byte was not accepted — scenario did not reach the Karn window")
	}

	// Legitimate samples (fresh transmissions into the reopened window,
	// acknowledged within the same delivery round) are 1 tick here. A
	// sample measured from the probe byte's first transmission spans the
	// aged persist episode — several ticks — and must never appear.
	for _, s := range samples {
		if s > 3 {
			t.Fatalf("RTT estimator accepted a %d-tick sample spanning the persist episode (samples: %v): Karn violation",
				s, samples)
		}
	}
}

// TestRetransmitNotSampledUnderLoss loses a lone segment sent so that its
// probe falls due before the retransmission timer. The probe resends it
// (Karn: its ACK gives no RTT sample) without a back-off, and the timer
// stays armed; when the probe is lost too, the time-out repairs the loss,
// and its ACK gives no sample either.
func TestRetransmitNotSampledUnderLoss(t *testing.T) {
	for _, tc := range []struct {
		name                   string
		lost                   int // transmissions of the segment lost
		wantProbes, wantRexmit int
	}{
		{"probe repairs", 1, 1, 0},
		{"probe lost, time-out repairs", 2, 1, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n := newTestNet(t, defaultCfg())
			n.connect()

			// Prime the estimator with one clean round so srtt != 0.
			got := n.pump(n.a, n.b, pattern(512), 50)
			checkIntegrity(t, pattern(512), got)

			// Wait out the last ACK so the next write is not Nagle-held,
			// and send just after a slow tick on a fast one: the probe
			// (four fast ticks) then falls due 800 ms on, the time-out (two
			// slow ticks) 1 s on.
			for u := 0; u < 40 && (n.a.sndUna != n.a.sndMax || n.now%10 != 0); u++ {
				n.tick()
			}
			if n.a.rxtCur != minRexmtTicks {
				t.Fatalf("RTO %d ticks, want %d", n.a.rxtCur, minRexmtTicks)
			}
			log := traceProbes(n)
			n.drop = dropSends([]int{1, 2}[:tc.lost]...)
			if n.a.Write(pattern(256)) != 256 {
				t.Fatal("write failed")
			}
			for u := 0; u < 200 && n.a.sndUna != n.a.sndMax; u++ {
				n.tick()
			}
			if n.a.sndUna != n.a.sndMax {
				t.Fatal("the loss was never repaired")
			}
			st := n.a.Stats()
			if st.TailProbes != tc.wantProbes || st.Rexmits != tc.wantRexmit {
				t.Fatalf("probes %d, time-outs %d; want %d, %d", st.TailProbes, st.Rexmits, tc.wantProbes, tc.wantRexmit)
			}
			// Nothing backs off before the probe, and the retransmission
			// timer (two ticks) still runs, one tick from firing.
			if want := []string{"shift 0, retransmission timer 1"}; !slices.Equal(log.probes, want) {
				t.Fatalf("probes: %q, want %q", log.probes, want)
			}
			if len(log.samples) != 0 {
				t.Fatalf("RTT samples %v taken from a resent segment: Karn violation", log.samples)
			}
		})
	}
}

// TestPersistShiftCapped pins the explicit growth cap on the persist
// backoff shift.
func TestPersistShiftCapped(t *testing.T) {
	n := newTestNet(t, defaultCfg())
	n.connect()
	fillPeerWindow(t, n)
	for i := 0; i < 40; i++ {
		n.a.persistTimeout()
	}
	if n.a.persistShift > maxPersistShift {
		t.Fatalf("persistShift grew to %d, cap is %d", n.a.persistShift, maxPersistShift)
	}
	if got := n.a.persistBackoff(); got != persistMax {
		t.Fatalf("backoff at cap = %d ticks, want persistMax = %d", got, persistMax)
	}
}
