package tcp

import (
	"testing"

	"ulp/internal/pkt"
)

func TestHandshake(t *testing.T) {
	n := newTestNet(t, defaultCfg())
	n.connect()
	if n.aEvents.established != 1 || n.bEvents.established != 1 {
		t.Fatalf("established events: a=%d b=%d", n.aEvents.established, n.bEvents.established)
	}
	// Three segments: SYN, SYN|ACK, ACK.
	if got := n.a.Stats().SegsSent + n.b.Stats().SegsSent; got != 3 {
		t.Fatalf("handshake used %d segments, want 3", got)
	}
}

func TestMSSNegotiation(t *testing.T) {
	cfgA := Config{MSS: 1460}
	cfgB := Config{MSS: 512}
	n := newTestNet(t, cfgA)
	// Rebuild b with a smaller MSS.
	n.b = NewConn(cfgB, n.b.Local(), n.b.Peer(), n.bEvents.callbacks(Callbacks{
		Send: n.b.cb.Send,
	}))
	n.connect()
	if n.a.sndMSS != 512 {
		t.Fatalf("a effective MSS = %d, want 512 (peer's option)", n.a.sndMSS)
	}
	if n.b.sndMSS != 512 {
		t.Fatalf("b effective MSS = %d, want 512 (own limit)", n.b.sndMSS)
	}
}

func TestBulkTransfer(t *testing.T) {
	for _, size := range []int{1, 100, 1460, 1461, 4096, 50000} {
		n := newTestNet(t, defaultCfg())
		n.connect()
		data := pattern(size)
		got := n.pump(n.a, n.b, data, 10000)
		checkIntegrity(t, data, got)
	}
}

func TestBidirectionalTransfer(t *testing.T) {
	n := newTestNet(t, defaultCfg())
	n.connect()
	dataA, dataB := pattern(20000), pattern(15000)
	var gotA, gotB []byte
	wa, wb := 0, 0
	buf := make([]byte, 4096)
	for u := 0; u < 5000; u++ {
		if wa < len(dataA) {
			wa += n.a.Write(dataA[wa:])
		}
		if wb < len(dataB) {
			wb += n.b.Write(dataB[wb:])
		}
		for {
			r := n.b.Read(buf)
			gotA = append(gotA, buf[:r]...)
			if r == 0 {
				break
			}
		}
		for {
			r := n.a.Read(buf)
			gotB = append(gotB, buf[:r]...)
			if r == 0 {
				break
			}
		}
		if len(gotA) == len(dataA) && len(gotB) == len(dataB) {
			break
		}
		n.tick()
	}
	checkIntegrity(t, dataA, gotA)
	checkIntegrity(t, dataB, gotB)
}

func TestSequenceWraparound(t *testing.T) {
	n := newTestNet(t, defaultCfg())
	n.b.OpenListen()
	n.b.SetISS(Seq(0xffffff00)) // wraps during transfer
	n.a.OpenActive(Seq(0xfffffff0))
	n.deliver()
	if n.a.State() != Established {
		t.Fatalf("state = %v", n.a.State())
	}
	data := pattern(30000)
	got := n.pump(n.a, n.b, data, 10000)
	checkIntegrity(t, data, got)
}

func TestDelayedAck(t *testing.T) {
	n := newTestNet(t, defaultCfg())
	n.connect()
	base := n.b.Stats().AcksSent
	n.a.Write([]byte("ping"))
	n.deliver()
	if n.b.Stats().AcksSent != base {
		t.Fatal("single segment acked immediately despite delayed-ack policy")
	}
	if n.b.Stats().DelayedAcks == 0 {
		t.Fatal("delayed ack not registered")
	}
	n.run(2) // fast timer fires within 200 ms
	if n.b.Stats().AcksSent == base {
		t.Fatal("delayed ack never flushed by fast timer")
	}
}

func TestAckEveryOtherSegment(t *testing.T) {
	n := newTestNet(t, defaultCfg())
	n.connect()
	// Warm the congestion window so two segments can be in flight.
	warm := pattern(20000)
	checkIntegrity(t, warm, n.pump(n.a, n.b, warm, 4000))
	// Two back-to-back full segments: the second forces an immediate ACK.
	n.a.Write(pattern(2 * 1460))
	base := n.b.Stats().AcksSent
	n.deliver()
	if n.b.Stats().AcksSent <= base {
		t.Fatal("second in-order segment did not force an ACK")
	}
}

func TestNoDelayedAckOption(t *testing.T) {
	cfg := defaultCfg()
	cfg.NoDelayedAck = true
	n := newTestNet(t, cfg)
	n.connect()
	base := n.b.Stats().AcksSent
	n.a.Write([]byte("x"))
	n.deliver()
	if n.b.Stats().AcksSent == base {
		t.Fatal("NoDelayedAck did not ack immediately")
	}
}

func TestNagleCoalescing(t *testing.T) {
	n := newTestNet(t, defaultCfg())
	n.connect()
	// First small write goes out (idle); subsequent small writes must
	// coalesce until the ACK returns.
	segs := func() int { return n.a.Stats().SegsSent }
	base := segs()
	n.a.Write([]byte("a"))
	if segs() != base+1 {
		t.Fatal("idle small write should transmit immediately")
	}
	n.a.Write([]byte("b"))
	n.a.Write([]byte("c"))
	if segs() != base+1 {
		t.Fatalf("Nagle violated: %d segments for pending ACK", segs()-base)
	}
	n.run(5) // ACK returns, coalesced segment flushes
	var buf [16]byte
	total := 0
	for {
		r := n.b.Read(buf[total:])
		if r == 0 {
			break
		}
		total += r
	}
	if string(buf[:total]) != "abc" {
		t.Fatalf("received %q", buf[:total])
	}
}

func TestNoDelayOption(t *testing.T) {
	cfg := defaultCfg()
	cfg.NoDelay = true
	n := newTestNet(t, cfg)
	n.connect()
	base := n.a.Stats().SegsSent
	n.a.Write([]byte("a"))
	n.a.Write([]byte("b"))
	if n.a.Stats().SegsSent != base+2 {
		t.Fatalf("NoDelay sent %d segments, want 2", n.a.Stats().SegsSent-base)
	}
}

func TestOrderlyClose(t *testing.T) {
	n := newTestNet(t, defaultCfg())
	n.connect()
	n.a.Close()
	n.deliver()
	if n.a.State() != FinWait2 {
		t.Fatalf("active closer state = %v, want FIN_WAIT_2", n.a.State())
	}
	if n.b.State() != CloseWait {
		t.Fatalf("passive closer state = %v, want CLOSE_WAIT", n.b.State())
	}
	if !n.b.EOF() {
		t.Fatal("passive side did not see EOF")
	}
	n.b.Close()
	n.deliver()
	if n.b.State() != Closed {
		t.Fatalf("passive state after close = %v, want CLOSED", n.b.State())
	}
	if n.a.State() != TimeWait {
		t.Fatalf("active state = %v, want TIME_WAIT", n.a.State())
	}
	if n.bEvents.closedErr != nil {
		t.Fatalf("passive side closed with error %v", n.bEvents.closedErr)
	}
	// 2*MSL drains (shorten by config in other tests; here run it out).
	n.run(2 * 60 * 5)
	if n.a.State() != Closed {
		t.Fatalf("TIME_WAIT did not expire: %v", n.a.State())
	}
	if n.aEvents.closedErr != nil {
		t.Fatalf("active side closed with error %v", n.aEvents.closedErr)
	}
}

func TestCloseWithPendingData(t *testing.T) {
	n := newTestNet(t, defaultCfg())
	n.connect()
	data := pattern(10000)
	written := 0
	written += n.a.Write(data)
	n.a.Close() // FIN must follow the buffered data
	var got []byte
	buf := make([]byte, 4096)
	for u := 0; u < 2000 && !(n.b.EOF() && written == len(data)); u++ {
		if written < len(data) {
			written += n.a.Write(data[written:]) // Close forbids further writes
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
	// Close means no more writes accepted.
	if written != len(data) {
		// The write after Close correctly returned 0 each round; only the
		// pre-close bytes arrive.
		data = data[:written]
	}
	for {
		r := n.b.Read(buf)
		got = append(got, buf[:r]...)
		if r == 0 {
			break
		}
	}
	checkIntegrity(t, data, got)
	if !n.b.EOF() {
		t.Fatal("EOF not delivered after data")
	}
}

func TestSimultaneousClose(t *testing.T) {
	n := newTestNet(t, defaultCfg())
	n.connect()
	// Both close before either FIN is delivered.
	n.a.Close()
	n.b.Close()
	n.deliver()
	if n.a.State() != TimeWait && n.a.State() != Closed {
		t.Fatalf("a state = %v", n.a.State())
	}
	if n.b.State() != TimeWait && n.b.State() != Closed {
		t.Fatalf("b state = %v", n.b.State())
	}
}

func TestSimultaneousOpen(t *testing.T) {
	n := newTestNet(t, defaultCfg())
	// Both actively open toward each other.
	n.a.OpenActive(1000)
	n.b.OpenActive(2000)
	n.deliver()
	n.run(20)
	if n.a.State() != Established || n.b.State() != Established {
		t.Fatalf("simultaneous open: a=%v b=%v", n.a.State(), n.b.State())
	}
	data := pattern(5000)
	got := n.pump(n.a, n.b, data, 2000)
	checkIntegrity(t, data, got)
}

func TestAbortSendsRST(t *testing.T) {
	n := newTestNet(t, defaultCfg())
	n.connect()
	n.a.Abort()
	n.deliver()
	if n.b.State() != Closed {
		t.Fatalf("peer state after RST = %v", n.b.State())
	}
	if n.bEvents.closedErr != ErrReset {
		t.Fatalf("peer closed with %v, want ErrReset", n.bEvents.closedErr)
	}
}

func TestConnectionRefused(t *testing.T) {
	n := newTestNet(t, defaultCfg())
	// b stays Closed; simulate the shell answering the SYN with MakeRST.
	n.b = NewConn(defaultCfg(), n.b.Local(), n.b.Peer(), Callbacks{})
	sawSyn := false
	n.a.cb.Send = func(seg *pkt.Buf, h Header, pl int) {
		if h.Flags&FlagSYN != 0 && !sawSyn {
			sawSyn = true
			r, rb := MakeRST(h, pl, 40, n.b.Local(), n.b.Peer())
			hh, err := Decode(rb, n.bIP, n.aIP)
			if err != nil {
				t.Fatalf("rst decode: %v", err)
			}
			_ = r
			n.a.Input(hh, nil)
		}
	}
	n.a.OpenActive(555)
	if n.a.State() != Closed {
		t.Fatalf("state = %v, want CLOSED after RST", n.a.State())
	}
	if n.aEvents.closedErr != ErrRefused {
		t.Fatalf("closed err = %v, want ErrRefused", n.aEvents.closedErr)
	}
}

func TestSynRetransmission(t *testing.T) {
	n := newTestNet(t, defaultCfg())
	n.b.OpenListen()
	dropped := 0
	n.drop = func(dir string, h Header, pl int) bool {
		if dir == "a->b" && h.Flags&FlagSYN != 0 && dropped == 0 {
			dropped++
			return true
		}
		return false
	}
	n.a.OpenActive(1000)
	n.deliver()
	if n.a.State() == Established {
		t.Fatal("established despite dropped SYN")
	}
	n.run(40) // 3 s initial RTO + slack
	if n.a.State() != Established {
		t.Fatalf("SYN retransmission did not recover: %v", n.a.State())
	}
	if n.a.Stats().Rexmits == 0 {
		t.Fatal("no retransmission counted")
	}
}

func TestDataRetransmissionOnTimeout(t *testing.T) {
	cfg := defaultCfg()
	cfg.FastRetransmit = false // force timeout-driven recovery
	n := newTestNet(t, cfg)
	n.connect()
	dropped := false
	n.drop = func(dir string, h Header, pl int) bool {
		if dir == "a->b" && pl > 0 && !dropped {
			dropped = true
			return true
		}
		return false
	}
	data := pattern(8000)
	got := n.pump(n.a, n.b, data, 10000)
	checkIntegrity(t, data, got)
	if n.a.Stats().Rexmits == 0 {
		t.Fatal("expected a timeout retransmission")
	}
}

func TestFastRetransmit(t *testing.T) {
	cfg := defaultCfg()
	cfg.MSS = 512
	cfg.SndBufSize = 8192
	cfg.RcvBufSize = 8192
	n := newTestNet(t, cfg)
	n.connect()
	// Grow cwnd first so a window of segments is in flight.
	warm := pattern(20000)
	checkIntegrity(t, warm, n.pump(n.a, n.b, warm, 5000))

	dropped := false
	n.drop = func(dir string, h Header, pl int) bool {
		if dir == "a->b" && pl > 0 && !dropped {
			dropped = true
			return true
		}
		return false
	}
	data := pattern(20000)
	got := n.pump(n.a, n.b, data, 10000)
	checkIntegrity(t, data, got)
	if n.a.Stats().FastRexmits == 0 {
		t.Fatalf("expected fast retransmit (dupacks=%d, rexmits=%d)",
			n.a.Stats().DupAcksRcvd, n.a.Stats().Rexmits)
	}
}

func TestZeroWindowAndPersist(t *testing.T) {
	cfg := defaultCfg()
	cfg.MSS = 512
	n := newTestNet(t, cfg)
	n.connect()
	// Fill b's receive buffer without reading.
	data := pattern(12000)
	written := n.a.Write(data)
	for u := 0; u < 400; u++ {
		if written < len(data) {
			written += n.a.Write(data[written:])
		}
		n.tick()
	}
	if n.b.rcv.window() != 0 {
		t.Fatalf("receive window = %d, want 0 (app not reading)", n.b.rcv.window())
	}
	// Sender must be probing, not deadlocked, and must not overrun.
	n.run(200) // 20 s of persist probing
	if n.a.Stats().WindowProbes == 0 {
		t.Fatal("no window probes against zero window")
	}
	// Now drain and finish.
	var got []byte
	buf := make([]byte, 2048)
	for u := 0; u < 4000 && len(got) < len(data); u++ {
		for {
			r := n.b.Read(buf)
			got = append(got, buf[:r]...)
			if r == 0 {
				break
			}
		}
		if written < len(data) {
			written += n.a.Write(data[written:])
		}
		n.tick()
	}
	checkIntegrity(t, data, got)
}

func TestKeepaliveProbesAndDeath(t *testing.T) {
	cfg := defaultCfg()
	cfg.KeepAliveTicks = 4 // 2 s idle
	n := newTestNet(t, cfg)
	n.connect()
	// Healthy peer: probes answered, connection survives.
	n.run(100)
	if n.a.State() != Established {
		t.Fatalf("state = %v with healthy peer", n.a.State())
	}
	if n.a.Stats().KeepProbes == 0 {
		t.Fatal("no keepalive probes sent")
	}
	// Dead peer: drop everything b would send.
	n.drop = func(dir string, h Header, pl int) bool { return dir == "b->a" }
	n.run(4 * 5 * (keepMaxProbes + 3))
	if n.a.State() != Closed || n.aEvents.closedErr != ErrKeepalive {
		t.Fatalf("state=%v err=%v, want keepalive death", n.a.State(), n.aEvents.closedErr)
	}
}

func TestWindowLimitsInFlight(t *testing.T) {
	cfg := defaultCfg()
	cfg.MSS = 512
	cfg.RcvBufSize = 2048 // peer advertises at most 2048
	n := newTestNet(t, cfg)
	n.connect()
	n.a.Write(pattern(100000))
	// Without delivering, a can have at most 2048 bytes in flight... but
	// enqueue happens synchronously; check against snd bookkeeping instead:
	inFlight := n.a.sndNxt.Diff(n.a.sndUna)
	if inFlight > 2048 {
		t.Fatalf("in flight %d exceeds peer window 2048", inFlight)
	}
}

func TestSlowStartGrowth(t *testing.T) {
	cfg := defaultCfg()
	cfg.MSS = 512
	n := newTestNet(t, cfg)
	n.connect()
	if n.a.cwnd != 512 {
		t.Fatalf("initial cwnd = %d, want one segment", n.a.cwnd)
	}
	data := pattern(8000)
	got := n.pump(n.a, n.b, data, 4000)
	checkIntegrity(t, data, got)
	if n.a.cwnd <= 512 {
		t.Fatalf("cwnd did not grow: %d", n.a.cwnd)
	}
}

func TestRTTEstimation(t *testing.T) {
	n := newTestNet(t, defaultCfg())
	n.connect()
	data := pattern(30000)
	got := n.pump(n.a, n.b, data, 10000)
	checkIntegrity(t, data, got)
	if n.a.Stats().RTTSamples == 0 {
		t.Fatal("no RTT samples collected")
	}
	if n.a.rxtCur < minRexmtTicks || n.a.rxtCur > maxRexmtTicks {
		t.Fatalf("RTO %d outside clamp", n.a.rxtCur)
	}
}

func TestReceiverDataAfterFinIgnored(t *testing.T) {
	n := newTestNet(t, defaultCfg())
	n.connect()
	n.a.Close()
	n.deliver()
	// b in CLOSE_WAIT can still send; a must accept it (half-close).
	n.b.Write([]byte("late data"))
	n.deliver()
	buf := make([]byte, 64)
	r := n.a.Read(buf)
	if string(buf[:r]) != "late data" {
		t.Fatalf("half-close read = %q", buf[:r])
	}
}

func TestStatsAccounting(t *testing.T) {
	n := newTestNet(t, defaultCfg())
	n.connect()
	data := pattern(10000)
	got := n.pump(n.a, n.b, data, 4000)
	checkIntegrity(t, data, got)
	st := n.a.Stats()
	if st.BytesSent != int64(len(data)) {
		t.Fatalf("bytes sent = %d, want %d", st.BytesSent, len(data))
	}
	if rb := n.b.Stats().BytesRcvd; rb != int64(len(data)) {
		t.Fatalf("bytes rcvd = %d, want %d", rb, len(data))
	}
	if st.TimerOps == 0 {
		t.Fatal("timer operations not counted")
	}
}
