package tcp

import (
	"math/rand"
	"slices"
	"testing"
	"time"

	"ulp/internal/trace"
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

// TestLossAfterFullAckAtRecoverRepairedFast: a fast recovery ends on a
// full ACK exactly at recover, and the first segment sent after it is lost.
// That ACK covers recover, so the three duplicates the loss draws start the
// next recovery; refusing them until snd_una passes recover leaves the hole
// to the retransmission timer.
func TestLossAfterFullAckAtRecoverRepairedFast(t *testing.T) {
	n := newTestNet(t, defaultCfg())
	n.connect()
	warmUp(t, n)
	first, next, lost := dropSends(3), Seq(0), false
	n.drop = func(dir string, h Header, pl int) bool {
		if first(dir, h, pl) {
			return true
		}
		if dir == "a->b" && pl > 0 && !lost && n.a.stats.FastRexmits == 1 && !n.a.inRecovery {
			next, lost = h.Seq, true
			return true
		}
		return false
	}
	var exits []Seq
	n.around = func(c *Conn, h Header, input func()) {
		was, recover := c.inRecovery, c.recover
		input()
		if c == n.a && was && !c.inRecovery {
			if c.sndUna != recover {
				t.Errorf("full ACK at %d, want exactly recover %d", c.sndUna, recover)
			}
			exits = append(exits, c.sndUna)
		}
	}
	data := pattern(20000)
	checkIntegrity(t, data, n.pump(n.a, n.b, data, 10000))
	if !lost || len(exits) == 0 || next != exits[0] {
		t.Fatalf("lost %v at %d, recoveries left at %v; want the segment at the first full ACK lost", lost, next, exits)
	}
	if st := n.a.Stats(); st.Rexmits != 0 || st.FastRexmits != 2 {
		t.Fatalf("time-outs %d, fast %d; want 0 and 2 (one recovery per loss)", st.Rexmits, st.FastRexmits)
	}
}

// TestDupAcksAfterTimeoutCoveredStartRecovery: once an ACK covers all that
// was sent before a time-out, duplicates can no longer echo its go-back-N
// resends, and three of them start fast recovery for a new hole.
func TestDupAcksAfterTimeoutCoveredStartRecovery(t *testing.T) {
	n := flight(t)
	una := n.a.sndUna
	for n.a.Stats().Rexmits == 0 {
		n.a.SlowTick()
	}
	n.toB = nil
	ackA(n, una, 5, 8192) // everything sent before the time-out
	if n.a.sndUna != n.a.recover {
		t.Fatalf("snd_una %d after the ACK, want recover %d", n.a.sndUna, n.a.recover)
	}
	n.a.Write(pattern(4 * mss))
	n.toB = nil // the first of them is lost
	for range 3 {
		ackA(n, una, 5, 8192)
	}
	if st := n.a.Stats(); st.FastRexmits != 1 || !n.a.inRecovery {
		t.Fatalf("fast %d, in recovery %v; want three duplicates to start recovery", st.FastRexmits, n.a.inRecovery)
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

// flight warms a up and has it send five full segments that b never sees;
// the test then plays b's ACKs to a by hand with ackA.
func flight(t *testing.T) *testNet {
	t.Helper()
	n := newTestNet(t, defaultCfg())
	n.connect()
	warmUp(t, n)
	n.a.Write(pattern(5 * mss))
	n.toB = nil
	if out := n.a.sndMax.Diff(n.a.sndUna); out != 5*mss {
		t.Fatalf("a has %d bytes in flight, want 5 segments", out)
	}
	return n
}

// ackA delivers to a a bare ACK from b for una+k segments, advertising wnd.
func ackA(n *testNet, una Seq, k, wnd int) {
	n.a.Input(Header{SrcPort: 80, DstPort: 1025, Seq: n.a.rcvNxt, Ack: una.Add(k * mss),
		Flags: FlagACK, Window: uint16(wnd)}, nil)
}

// TestWindowMovingAckCountsBeforeTwoDuplicates: the peer's application
// reads while the first segment is lost, so the first ACK at snd_una moves
// the window. Held, it counts with the two true duplicates that follow, and
// the five-segment flight is repaired by fast retransmission, not a
// time-out. Refusing the window-moving ACK (rule (e) alone) leaves two.
func TestWindowMovingAckCountsBeforeTwoDuplicates(t *testing.T) {
	n := flight(t)
	una := n.a.sndUna
	ackA(n, una, 1, 8192-mss) // segment 1 arrived, unread
	ackA(n, una, 1, 8192)     // segment 2 lost; the application read
	ackA(n, una, 1, 8192)
	ackA(n, una, 1, 8192)
	if st := n.a.Stats(); st.FastRexmits != 1 || st.Rexmits != 0 || !n.a.inRecovery {
		t.Fatalf("fast %d, time-outs %d, in recovery %v; want 1, 0 and true", st.FastRexmits, st.Rexmits, n.a.inRecovery)
	}
	ackA(n, una, 5, 8192)
	if n.a.inRecovery || n.a.Stats().Rexmits != 0 {
		t.Fatal("the full ACK did not end recovery without a time-out")
	}
}

// TestWindowUpdatesAloneStartNoRecovery: nothing is lost, and the peer's
// application reads a little at a time, so ACK after ACK at snd_una opens
// the window while data is outstanding. None of them is a duplicate, as
// they would be if every ACK whose window did not shrink counted.
func TestWindowUpdatesAloneStartNoRecovery(t *testing.T) {
	n := flight(t)
	una := n.a.sndUna
	ackA(n, una, 1, 2*mss)
	for _, wnd := range []int{3 * mss, 4 * mss, 5 * mss, 8192} {
		ackA(n, una, 1, wnd)
	}
	if st := n.a.Stats(); st.DupAcksRcvd != 0 || st.FastRexmits != 0 || n.a.inRecovery {
		t.Fatalf("window updates counted %d duplicates and %d fast retransmissions", st.DupAcksRcvd, st.FastRexmits)
	}
}

// TestHeldAckCountsUpToThree: duplicate, duplicate, window-moving ACK,
// duplicate. The last counts itself and the held one, but the count stops at
// three, so recovery starts exactly once; adding the held one regardless
// would jump the count from 2 to 4, past the threshold.
func TestHeldAckCountsUpToThree(t *testing.T) {
	n := flight(t)
	una := n.a.sndUna
	ackA(n, una, 1, 8192-mss)
	ackA(n, una, 1, 8192-mss)
	ackA(n, una, 1, 8192-mss)
	ackA(n, una, 1, 8192)
	ackA(n, una, 1, 8192)
	ackA(n, una, 1, 8192)
	if st := n.a.Stats(); st.FastRexmits != 1 || !n.a.inRecovery {
		t.Fatalf("fast %d, in recovery %v; want one recovery", st.FastRexmits, n.a.inRecovery)
	}
}

// TestWindowMovingAckInRecoveryDoesNotInflate: in recovery only a true
// duplicate says a segment left the network; a window update does not
// inflate cwnd, as it would if it counted as a duplicate, and is not held.
func TestWindowMovingAckInRecoveryDoesNotInflate(t *testing.T) {
	n := flight(t)
	una := n.a.sndUna
	for range 4 {
		ackA(n, una, 1, 8192-mss)
	}
	if !n.a.inRecovery {
		t.Fatal("three duplicates did not start recovery")
	}
	cwnd := n.a.cwnd
	ackA(n, una, 1, 8192)
	if n.a.cwnd != cwnd || n.a.dupHeld {
		t.Fatalf("window update in recovery took cwnd %d -> %d (held %v), want it unchanged and not held", cwnd, n.a.cwnd, n.a.dupHeld)
	}
	ackA(n, una, 1, 8192)
	if n.a.cwnd != cwnd+mss {
		t.Fatalf("duplicate in recovery took cwnd %d -> %d, want one segment more", cwnd, n.a.cwnd)
	}
}

// TestNewAckClearsHeldAck: an ACK that moves snd_una drops the held
// window-moving ACK, so two later duplicates are two, not three.
func TestNewAckClearsHeldAck(t *testing.T) {
	n := flight(t)
	una := n.a.sndUna
	ackA(n, una, 1, 8192-2*mss)
	ackA(n, una, 1, 8192-mss) // held
	ackA(n, una, 2, 8192-2*mss)
	ackA(n, una, 2, 8192-2*mss)
	ackA(n, una, 2, 8192-2*mss)
	if st := n.a.Stats(); st.FastRexmits != 0 || n.a.dupAcks != 2 {
		t.Fatalf("fast %d, %d duplicates counted; want 0 and 2", st.FastRexmits, n.a.dupAcks)
	}
}

// TestDataSegmentIsNotDuplicateAck: RFC 5681 §2 rule (b). Both ends send
// four segments at once, and b's reach a before a's reach b: each carries
// a's snd_una as its ACK, but it carries data, so none is a duplicate.
func TestDataSegmentIsNotDuplicateAck(t *testing.T) {
	n := newTestNet(t, defaultCfg())
	n.connect()
	warmUp(t, n)
	back := pattern(40000)
	checkIntegrity(t, back, n.pump(n.b, n.a, back, 5000))
	n.run(5)
	ab, ba := pattern(4*mss), pattern(4*mss)
	n.a.Write(ab)
	n.b.Write(ba)
	if len(n.toB) != 4 || len(n.toA) != 4 {
		t.Fatalf("a sent %d segments and b %d, want 4 each", len(n.toB), len(n.toA))
	}
	toB := n.toB
	n.toB = nil
	for len(n.toA) > 0 {
		seg := n.toA[0]
		n.toA = n.toA[1:]
		h, err := Decode(seg, n.bIP, n.aIP)
		if err != nil {
			t.Fatal(err)
		}
		n.a.Input(h, seg.Bytes())
	}
	if d := n.a.Stats().DupAcksRcvd; d != 0 {
		t.Fatalf("a counted %d of b's data segments as duplicate ACKs", d)
	}
	n.toB = append(toB, n.toB...)
	n.run(10)
	for _, tc := range []struct {
		dst  *Conn
		want []byte
	}{{n.b, ab}, {n.a, ba}} {
		got := make([]byte, 8*mss)
		checkIntegrity(t, tc.want, got[:tc.dst.Read(got)])
	}
}

// TestBackoffFromOneTickSample: a one-tick RTT sample leaves srtt at 0, and
// the time-outs that follow still back off from the estimator's RTO, not
// from the 3 s used before any sample.
func TestBackoffFromOneTickSample(t *testing.T) {
	n := newTestNet(t, defaultCfg())
	n.connect()
	n.a.Write(pattern(100))
	n.run(5)
	if n.a.stats.RTTSamples != 1 || n.a.srtt != 0 {
		t.Fatalf("%d RTT samples, srtt %d; want one sample of one tick", n.a.stats.RTTSamples, n.a.srtt)
	}
	n.drop = func(string, Header, int) bool { return true }
	n.a.Write(pattern(100))
	armed := []int{n.a.tRexmt}
	for len(armed) < 3 {
		rexmits := n.a.stats.Rexmits
		n.a.SlowTick()
		if n.a.stats.Rexmits > rexmits {
			armed = append(armed, n.a.tRexmt)
		}
	}
	if want := []int{2, 4, 8}; !slices.Equal(armed, want) {
		t.Fatalf("the send and two time-outs armed %v ticks, want %v", armed, want)
	}

	// A restored connection brings its estimator but no sample count.
	snap := n.a.Snapshot()
	snap.SRTT, snap.RTTVar, snap.RxtCur = 8<<3, 8, 16
	na := new(Conn)
	RestoreInto(na, snap, n.a.cb)
	for na.stats.Rexmits == 0 {
		na.SlowTick()
	}
	if na.tRexmt != 32 {
		t.Fatalf("restored connection's time-out armed %d ticks, want 32 from its estimator's 16", na.tRexmt)
	}
}

// TestTimeoutEventCountsDuplicates: the traced time-out says why fast
// retransmission did not repair the loss: C carries the duplicates counted
// since the last new ACK, here two.
func TestTimeoutEventCountsDuplicates(t *testing.T) {
	n := flight(t)
	var dups []int64
	bus := trace.NewBus(func() time.Duration { return 0 })
	bus.Subscribe(func(e trace.Event) {
		if e.Kind == trace.TCPRexmit && e.Text == "timeout" {
			dups = append(dups, e.C)
		}
	})
	n.a.SetTrace(bus, "a")
	una := n.a.sndUna
	for range 3 {
		ackA(n, una, 1, 8192-mss)
	}
	for len(dups) == 0 {
		n.a.SlowTick()
	}
	if dups[0] != 2 {
		t.Fatalf("time-out event carries C = %d, want 2 duplicates", dups[0])
	}
}
