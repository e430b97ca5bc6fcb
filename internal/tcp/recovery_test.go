package tcp

import (
	"math/rand"
	"testing"
)

// Loss recovery with the default 8 KiB buffers and MSS 1460: a warmed-up
// flow has five full segments in flight and an 892-byte tail that Nagle
// holds back.

const mss = 1460

// warmUp moves enough data that cwnd no longer limits a, then lets the
// last delayed ACK and window update arrive.
func warmUp(t *testing.T, n *testNet) {
	t.Helper()
	warm := pattern(40000)
	checkIntegrity(t, warm, n.pump(n.a, n.b, warm, 5000))
	n.run(5)
}

// dropSends returns a drop function that loses the listed data segments
// a sends from now on, counted from 1.
func dropSends(which ...int) func(string, Header, int) bool {
	sent := 0
	return func(dir string, h Header, pl int) bool {
		if dir != "a->b" || pl == 0 {
			return false
		}
		sent++
		for _, k := range which {
			if sent == k {
				return true
			}
		}
		return false
	}
}

// TestSingleLossRepairedByFastRecovery loses the third of five segments in
// flight: fast recovery repairs it without a time-out, keeps half the window
// instead of collapsing cwnd to one segment, and inflates cwnd by a segment
// for each further duplicate.
func TestSingleLossRepairedByFastRecovery(t *testing.T) {
	n := newTestNet(t, defaultCfg())
	n.connect()
	warmUp(t, n)
	n.drop = dropSends(3)
	entryCwnd, entrySsthresh, inflations := -1, -1, 0
	n.around = func(c *Conn, h Header, input func()) {
		fast, cwnd := c.stats.FastRexmits, c.cwnd
		dup := c.inRecovery && h.Ack == c.sndUna && int(h.Window) == c.sndWnd
		input()
		if c != n.a {
			return
		}
		if fast == 0 && c.stats.FastRexmits == 1 {
			entryCwnd, entrySsthresh = c.cwnd, c.ssthresh
		}
		if dup {
			inflations++
			if c.cwnd != cwnd+mss {
				t.Errorf("duplicate in recovery took cwnd %d -> %d, want one segment more", cwnd, c.cwnd)
			}
		}
	}
	data := pattern(20000)
	checkIntegrity(t, data, n.pump(n.a, n.b, data, 10000))
	st := n.a.Stats()
	if st.Rexmits != 0 || st.FastRexmits != 1 {
		t.Fatalf("rexmits %d, fast %d; want 0 and 1", st.Rexmits, st.FastRexmits)
	}
	if entryCwnd != entrySsthresh+3*mss {
		t.Fatalf("cwnd on entering recovery = %d, want ssthresh %d + 3 segments", entryCwnd, entrySsthresh)
	}
	if inflations == 0 {
		t.Fatal("no duplicate arrived during recovery")
	}
	if n.a.inRecovery {
		t.Fatal("still in recovery after the transfer")
	}
}

// TestTwoLossesRepairedOnPartialAck loses two segments of one window: the
// ACK for the first repair is partial and resends the second hole at once,
// and the full ACK leaves recovery at ssthresh.
func TestTwoLossesRepairedOnPartialAck(t *testing.T) {
	n := newTestNet(t, defaultCfg())
	n.connect()
	warmUp(t, n)
	n.drop = dropSends(1, 3)
	exits := 0
	n.around = func(c *Conn, h Header, input func()) {
		was := c.inRecovery
		input()
		if c == n.a && was && !c.inRecovery {
			exits++
			if c.cwnd != c.ssthresh {
				t.Errorf("left recovery with cwnd %d, want ssthresh %d", c.cwnd, c.ssthresh)
			}
		}
	}
	data := pattern(20000)
	checkIntegrity(t, data, n.pump(n.a, n.b, data, 10000))
	if st := n.a.Stats(); st.Rexmits != 0 || st.FastRexmits != 2 || exits != 1 {
		t.Fatalf("rexmits %d, fast %d, recoveries left %d; want 0, 2 (entry and partial ACK) and 1",
			st.Rexmits, st.FastRexmits, exits)
	}
}

// TestPartialAckSendsOneSegment: the partial ACK emits exactly the
// retransmission of the next hole, not a resent window behind it, and
// deflates cwnd by what it acknowledged less one segment.
func TestPartialAckSendsOneSegment(t *testing.T) {
	n := newTestNet(t, defaultCfg())
	n.connect()
	warmUp(t, n)
	lose := dropSends(1, 3)
	var sent []Header
	n.drop = func(dir string, h Header, pl int) bool {
		if dir == "a->b" {
			sent = append(sent, h)
		}
		return lose(dir, h, pl)
	}
	partials := 0
	n.around = func(c *Conn, h Header, input func()) {
		partial := c == n.a && c.inRecovery && c.sndUna.Less(h.Ack) && h.Ack.Less(c.recover)
		from, want := len(sent), c.cwnd-h.Ack.Diff(c.sndUna)+mss
		input()
		if !partial {
			return
		}
		partials++
		if out := sent[from:]; len(out) != 1 || out[0].Seq != h.Ack {
			t.Errorf("partial ACK %d sent %d segments %+v, want one at the ACK", h.Ack, len(out), out)
		}
		if c.cwnd != want {
			t.Errorf("partial ACK left cwnd %d, want %d", c.cwnd, want)
		}
	}
	data := pattern(20000)
	checkIntegrity(t, data, n.pump(n.a, n.b, data, 10000))
	if partials != 1 {
		t.Fatalf("%d partial ACKs, want 1", partials)
	}
}

// TestLimitedTransmitSendsFullSegmentsInsideWindow: over seeded random loss,
// every data segment sent while a first or second duplicate ACK is processed
// is full-sized and inside the peer's window, and some are sent.
func TestLimitedTransmitSendsFullSegmentsInsideWindow(t *testing.T) {
	lt := 0
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := newTestNet(t, defaultCfg())
		n.connect()
		inDup := false
		n.drop = func(dir string, h Header, pl int) bool {
			if dir == "a->b" && pl > 0 && inDup {
				lt++
				if pl != mss {
					t.Errorf("seed %d: %d-byte segment sent on a duplicate ACK", seed, pl)
				}
				if edge := n.a.sndUna.Add(n.a.sndWnd); edge.Less(h.Seq.Add(pl)) {
					t.Errorf("seed %d: segment ends at %d, beyond the peer's window edge %d", seed, h.Seq.Add(pl), edge)
				}
			}
			return rng.Float64() < 0.05
		}
		n.around = func(c *Conn, h Header, input func()) {
			inDup = c == n.a && !c.inRecovery && c.dupAcks < 2 && c.sndNxt == c.sndMax &&
				h.Ack == c.sndUna && c.snd.len() > 0 && int(h.Window) == c.sndWnd
			input()
			inDup = false
		}
		data := pattern(60000)
		checkIntegrity(t, data, n.pump(n.a, n.b, data, 200000))
	}
	if lt == 0 {
		t.Fatal("no segment was sent on a first or second duplicate ACK")
	}
}

// TestDupAcksFromBeforeTimeoutDoNotStartRecovery: duplicates that report
// data sent before a time-out arrive after it; the time-out already resent
// the hole, so they must not start fast recovery.
func TestDupAcksFromBeforeTimeoutDoNotStartRecovery(t *testing.T) {
	n := newTestNet(t, defaultCfg())
	n.connect()
	warmUp(t, n)
	n.drop = dropSends(1)
	n.a.Write(pattern(8192))
	// Let b see the burst, and hold its four duplicates back.
	for len(n.toB) > 0 {
		seg := n.toB[0]
		n.toB = n.toB[1:]
		h, err := Decode(seg, n.aIP, n.bIP)
		if err != nil {
			t.Fatal(err)
		}
		n.b.Input(h, seg.Bytes())
	}
	held := n.toA
	n.toA = nil
	if len(held) < 3 {
		t.Fatalf("b sent %d duplicates, want at least 3", len(held))
	}
	for n.a.Stats().Rexmits == 0 {
		n.a.SlowTick()
	}
	n.toB = nil // the time-out's retransmission is still on its way
	for _, seg := range held {
		h, err := Decode(seg, n.bIP, n.aIP)
		if err != nil {
			t.Fatal(err)
		}
		n.a.Input(h, seg.Bytes())
	}
	if n.a.inRecovery || n.a.Stats().FastRexmits != 0 {
		t.Fatalf("stale duplicates started fast recovery (fast rexmits %d)", n.a.Stats().FastRexmits)
	}
}

// TestRecoveryAcrossWrapAndRestore: recover follows snd_una, so fast recovery
// still starts after the sequence space wraps from an ISS just below 2^32,
// and on a connection rebuilt from a snapshot.
func TestRecoveryAcrossWrapAndRestore(t *testing.T) {
	for _, restore := range []bool{false, true} {
		// Restored, the ISS puts snd_una more than 2^31 from the zero that
		// Init leaves in recover.
		iss := Seq(0xfffff000)
		if restore {
			iss = 0xc0000000
		}
		n := newTestNet(t, defaultCfg())
		n.b.OpenListen()
		n.b.SetISS(9000)
		n.a.OpenActive(iss)
		n.deliver()
		warmUp(t, n)
		if !restore && uint32(n.a.sndUna) >= uint32(iss) {
			t.Fatalf("snd_una %d has not wrapped past ISS %d", n.a.sndUna, iss)
		}
		if d := n.a.sndUna.Diff(n.a.recover); d <= 0 || d > n.a.cfg.SndBufSize {
			t.Fatalf("recover %d trails snd_una %d by %d, want within one send buffer", n.a.recover, n.a.sndUna, d)
		}
		if restore {
			na := new(Conn)
			RestoreInto(na, n.a.Snapshot(), n.aEvents.callbacks(Callbacks{Send: n.a.cb.Send}))
			n.a = na
		}
		n.drop = dropSends(1, 3)
		data := pattern(20000)
		checkIntegrity(t, data, n.pump(n.a, n.b, data, 10000))
		if st := n.a.Stats(); st.Rexmits != 0 || st.FastRexmits != 2 {
			t.Fatalf("restored %v: rexmits %d, fast %d; want 0 and 2", restore, st.Rexmits, st.FastRexmits)
		}
	}
}

// TestHoleFillAckedAtOnce: the segment that empties the reassembly queue is
// ACKed within its own Input, so the sender's recovery does not wait out the
// delayed-ACK tick. A plain in-order segment, and one that leaves a hole
// behind it, keep the delayed ACK: loss-free runs must not change.
func TestHoleFillAckedAtOnce(t *testing.T) {
	for _, tc := range []struct {
		name  string
		order []int // indexes into a's burst, in the order b receives them
		acked bool  // whether the last one is ACKed at once
	}{
		{"in order", []int{0}, false},
		{"fills the hole", []int{1, 0}, true},
		{"leaves a hole", []int{1, 3, 0}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n := newTestNet(t, defaultCfg())
			n.connect()
			warmUp(t, n)
			n.a.Write(pattern(4 * mss))
			burst := n.toB
			n.toB = nil
			if len(burst) < 4 {
				t.Fatalf("a sent %d segments, want 4", len(burst))
			}
			for _, i := range tc.order {
				h, err := Decode(burst[i], n.aIP, n.bIP)
				if err != nil {
					t.Fatal(err)
				}
				n.toA = nil
				n.b.Input(h, burst[i].Bytes())
			}
			var acks []Seq
			for _, seg := range n.toA {
				h, err := Decode(seg, n.bIP, n.aIP)
				if err != nil {
					t.Fatal(err)
				}
				acks = append(acks, h.Ack)
			}
			switch {
			case tc.acked && (len(acks) != 1 || acks[0] != n.b.rcvNxt || n.b.DelAckPending()):
				t.Fatalf("b sent ACKs %v (delayed ACK pending %v), want one for rcv_nxt %d at once",
					acks, n.b.DelAckPending(), n.b.rcvNxt)
			case !tc.acked && (len(acks) != 0 || !n.b.DelAckPending()):
				t.Fatalf("b sent ACKs %v (delayed ACK pending %v), want the ACK delayed",
					acks, n.b.DelAckPending())
			}
		})
	}
}

// TestCongestionAvoidanceCountsBytes: with delayed ACKs each ACK covers two
// segments, and congestion avoidance still grows cwnd by about one segment
// per window of acknowledged bytes.
func TestCongestionAvoidanceCountsBytes(t *testing.T) {
	n := newTestNet(t, defaultCfg())
	n.connect()
	warmUp(t, n)
	n.a.cwnd, n.a.ssthresh = 4*mss, 2*mss
	una0, cwnd0 := n.a.sndUna, n.a.cwnd
	data := pattern(40000)
	checkIntegrity(t, data, n.pump(n.a, n.b, data, 10000))
	if n.b.Stats().DelayedAcks == 0 {
		t.Fatal("no delayed ACKs")
	}
	// Every increment is MSS*acked/cwnd, cwnd at most its final value, less
	// under a byte of truncation.
	grew := n.a.cwnd - cwnd0
	atLeast := mss * n.a.sndUna.Diff(una0) / n.a.cwnd
	if grew < atLeast*19/20 {
		t.Fatalf("cwnd grew %d bytes over %d acknowledged, want at least %d", grew, n.a.sndUna.Diff(una0), atLeast*19/20)
	}
}
