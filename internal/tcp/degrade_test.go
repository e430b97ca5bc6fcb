package tcp

import (
	"testing"
)

// Tests for behavior under sustained degradation: the RFC 1122 R1/R2
// retransmission thresholds, keepalive-driven dead-peer detection across
// partitions, zero-window-probe survival across link flaps, and the
// exactly-once give-up path.

func TestConfigFillRexmtThresholds(t *testing.T) {
	cases := []struct {
		in     Config
		r1, r2 int
	}{
		{Config{}, defaultRexmtR1, maxRexmtShift},
		{Config{RexmtR2: 2}, 2, 2}, // R1 capped at R2
		{Config{RexmtR1: 5, RexmtR2: 8}, 5, 8},
		{Config{RexmtR2: 99}, defaultRexmtR1, maxRexmtShift}, // R2 capped at table size
		{Config{RexmtR1: -1, RexmtR2: -1}, defaultRexmtR1, maxRexmtShift},
	}
	for i, tc := range cases {
		tc.in.fill()
		if tc.in.RexmtR1 != tc.r1 || tc.in.RexmtR2 != tc.r2 {
			t.Errorf("case %d: fill gave R1=%d R2=%d, want %d/%d",
				i, tc.in.RexmtR1, tc.in.RexmtR2, tc.r1, tc.r2)
		}
	}
}

func TestRexmtR2GiveUp(t *testing.T) {
	cfg := defaultCfg()
	cfg.RexmtR2 = 2
	n := newTestNet(t, cfg)
	n.connect()
	n.drop = func(string, Header, int) bool { return true } // blackhole
	n.a.Write(pattern(100))
	n.run(400)
	if n.a.State() != Closed {
		t.Fatalf("connection not abandoned: %v", n.a.State())
	}
	if n.aEvents.closedErr != ErrTimeout {
		t.Fatalf("closed with %v, want ErrTimeout", n.aEvents.closedErr)
	}
	st := n.a.Stats()
	if st.RexmtGiveUps != 1 {
		t.Fatalf("RexmtGiveUps = %d, want 1", st.RexmtGiveUps)
	}
	// R2=2 means two retransmissions before the third expiry gives up.
	if st.Rexmits != 2 {
		t.Fatalf("Rexmits = %d, want 2", st.Rexmits)
	}
	// Give-up must sweep every timer (entering Closed cancels them all).
	for i, tm := range [4]int{n.a.tRexmt, n.a.tPersist, n.a.tKeep, n.a.t2MSL} {
		if tm != 0 {
			t.Fatalf("timer %d still armed (%d ticks) after give-up", i, tm)
		}
	}
}

func TestRexmtR1Advisory(t *testing.T) {
	n := newTestNet(t, defaultCfg())
	n.connect()
	n.drop = func(string, Header, int) bool { return true }
	n.a.Write(pattern(100))
	// Run long enough to cross R1 (3 retransmissions: RTO 6+12+24 ticks)
	// but far short of R2 give-up.
	for n.a.Stats().Rexmits < defaultRexmtR1 {
		n.run(10)
	}
	st := n.a.Stats()
	if st.R1Advisories != 1 {
		t.Fatalf("R1Advisories = %d after %d rexmits, want 1", st.R1Advisories, st.Rexmits)
	}
	if n.a.State() != Established {
		t.Fatalf("R1 must be advisory only; state = %v", n.a.State())
	}
	// Healing the path resumes the transfer without any reset.
	n.drop = nil
	n.run(100)
	if n.a.State() != Established || n.aEvents.closed {
		t.Fatalf("connection did not survive R1: %v (closed=%v)", n.a.State(), n.aEvents.closed)
	}
}

// TestGiveUpFiresOnClosedExactlyOnce drives a connection into R2 give-up and
// then keeps ticking and injecting late segments: OnClosed must fire exactly
// once and the engine must stay inert.
func TestGiveUpFiresOnClosedExactlyOnce(t *testing.T) {
	cfg := defaultCfg()
	cfg.RexmtR2 = 1
	n := newTestNet(t, cfg)
	closedCount := 0
	cb := n.a.Callbacks()
	prev := cb.OnClosed
	cb.OnClosed = func(err error) { closedCount++; prev(err) }
	n.a.SetCallbacks(cb)
	n.connect()
	// Capture the peer's last segment so we can replay it after give-up.
	var lateH Header
	var lateSeen bool
	n.drop = func(dir string, h Header, pl int) bool {
		if dir == "b->a" {
			lateH, lateSeen = h, true
		}
		return true
	}
	n.a.Write(pattern(100))
	n.run(100)
	if n.a.State() != Closed || closedCount != 1 {
		t.Fatalf("state=%v closedCount=%d, want Closed/1", n.a.State(), closedCount)
	}
	// Late timer ticks and a stale segment must not resurrect or re-close.
	n.a.SlowTick()
	n.a.FastTick()
	if lateSeen {
		n.a.Input(lateH, nil)
	}
	if closedCount != 1 {
		t.Fatalf("OnClosed fired %d times after give-up", closedCount)
	}
}

func TestKeepaliveSurvivesHealedPartition(t *testing.T) {
	cfg := defaultCfg()
	cfg.KeepAliveTicks = 4 // probe after 2 s idle
	n := newTestNet(t, cfg)
	n.connect()
	data := pattern(2000)
	got := n.pump(n.a, n.b, data, 1000)
	checkIntegrity(t, data, got)

	// Partition for long enough that several keepalive probes go
	// unanswered, but fewer than keepMaxProbes.
	n.drop = func(string, Header, int) bool { return true }
	n.run(4 * 5 * 3) // ~3 probe intervals
	if probes := n.a.Stats().KeepProbes; probes == 0 {
		t.Fatal("no keepalive probes sent during partition")
	}
	if n.a.State() != Established {
		t.Fatalf("gave up during survivable partition: %v", n.a.State())
	}

	// Heal: the next answered probe must reset the count and the
	// connection must carry fresh data with no spurious reset.
	n.drop = nil
	n.run(4 * 5)
	if n.a.keepProbes != 0 {
		t.Fatalf("answered probe did not reset keepProbes (%d)", n.a.keepProbes)
	}
	more := pattern(3000)
	got = n.pump(n.a, n.b, more, 1000)
	checkIntegrity(t, more, got)
	if n.aEvents.closed || n.bEvents.closed {
		t.Fatal("healed partition triggered a close")
	}
}

func TestKeepalivePermanentPartitionTearsDown(t *testing.T) {
	cfg := defaultCfg()
	cfg.KeepAliveTicks = 2
	n := newTestNet(t, cfg)
	n.connect()
	n.drop = func(string, Header, int) bool { return true }
	// Idle connection, permanent partition: only keepalive can notice.
	n.run(2 * 5 * (keepMaxProbes + 3))
	if n.a.State() != Closed {
		t.Fatalf("dead peer not detected: %v", n.a.State())
	}
	if n.aEvents.closedErr != ErrKeepalive {
		t.Fatalf("closed with %v, want ErrKeepalive", n.aEvents.closedErr)
	}
	if n.a.Stats().KeepProbes != keepMaxProbes {
		t.Fatalf("sent %d probes, want %d", n.a.Stats().KeepProbes, keepMaxProbes)
	}
}

// TestZeroWindowProbeSurvivesFlap closes the peer's window, flaps the link
// down across many persist intervals, then heals and reopens the window:
// the probing connection must neither give up (persist never does; tRexmt
// is off) nor lose data.
func TestZeroWindowProbeSurvivesFlap(t *testing.T) {
	cfg := defaultCfg()
	cfg.RcvBufSize = 1024
	n := newTestNet(t, cfg)
	n.connect()

	// Fill b's receive buffer without reading: a ends up against a zero
	// window and enters persist.
	data := pattern(4096)
	written := n.a.Write(data)
	for i := 0; i < 400 && n.a.Stats().WindowProbes == 0; i++ {
		if written < len(data) {
			written += n.a.Write(data[written:])
		}
		n.tick()
	}
	if n.a.Stats().WindowProbes == 0 {
		t.Fatal("never entered persist against the zero window")
	}

	// Link flaps down across several persist backoff intervals.
	n.drop = func(string, Header, int) bool { return true }
	n.run(persistMax * 5 * 2)
	if n.a.State() != Established {
		t.Fatalf("persist gave up during flap: %v (err %v)", n.a.State(), n.aEvents.closedErr)
	}

	// Heal and drain: the probe re-establishes the window exchange and the
	// full payload arrives intact.
	n.drop = nil
	var got []byte
	buf := make([]byte, 512)
	for i := 0; i < 2000 && len(got) < len(data); i++ {
		if written < len(data) {
			written += n.a.Write(data[written:])
		}
		for {
			r := n.b.Read(buf)
			got = append(got, buf[:r]...)
			if r == 0 {
				break
			}
		}
		n.tick()
	}
	checkIntegrity(t, data, got)
}

// TestRestoreArmsKeepalive hands off an established connection via
// Snapshot/Restore and then goes silent: the restored side must still
// detect the dead peer, which requires Restore to arm the keepalive timer.
func TestRestoreArmsKeepalive(t *testing.T) {
	cfg := defaultCfg()
	cfg.KeepAliveTicks = 2
	n := newTestNet(t, cfg)
	n.connect()

	var closedErr error
	closed := false
	r := new(Conn)
	RestoreInto(r, n.a.Snapshot(), Callbacks{
		OnClosed: func(err error) { closed = true; closedErr = err },
	})
	if r.State() != Established {
		t.Fatalf("restored state %v", r.State())
	}
	for i := 0; i < 2*(keepMaxProbes+3) && !closed; i++ {
		r.SlowTick()
		r.SlowTick()
	}
	if !closed || closedErr != ErrKeepalive {
		t.Fatalf("restored connection never detected dead peer (closed=%v err=%v)", closed, closedErr)
	}
}
