package tcp

import (
	"testing"

	"ulp/internal/pkt"
)

// TestRetransmissionBackoffGrows verifies exponential RTO backoff while the
// peer is unreachable.
func TestRetransmissionBackoffGrows(t *testing.T) {
	n := newTestNet(t, defaultCfg())
	n.connect()
	n.drop = func(dir string, h Header, pl int) bool { return true } // black hole
	n.a.Write([]byte("into the void"))
	var gaps []int
	last := -1
	prev := n.a.Stats().Rexmits
	for u := 0; u < 5000; u++ {
		n.tick()
		if r := n.a.Stats().Rexmits; r != prev {
			if last >= 0 {
				gaps = append(gaps, u-last)
			}
			last = u
			prev = r
		}
		if len(gaps) >= 5 {
			break
		}
	}
	if len(gaps) < 4 {
		t.Fatalf("only %d retransmissions observed", len(gaps))
	}
	for i := 1; i < len(gaps); i++ {
		if gaps[i] < gaps[i-1] {
			t.Fatalf("backoff not monotone: %v", gaps)
		}
	}
	if gaps[1] < 2*gaps[0]-2 {
		t.Fatalf("backoff not roughly exponential: %v", gaps)
	}
}

// TestConnectionDropsAfterMaxRetries verifies the sender eventually gives
// up with ErrTimeout.
func TestConnectionDropsAfterMaxRetries(t *testing.T) {
	n := newTestNet(t, defaultCfg())
	n.connect()
	n.drop = func(dir string, h Header, pl int) bool { return true }
	n.a.Write([]byte("doomed"))
	// Backoffs sum to minutes of virtual time; run generously.
	for u := 0; u < 60*60*10 && n.a.State() != Closed; u++ {
		n.tick()
	}
	if n.a.State() != Closed {
		t.Fatalf("connection never dropped: %v (rexmits %d)", n.a.State(), n.a.Stats().Rexmits)
	}
	if n.aEvents.closedErr != ErrTimeout {
		t.Fatalf("closed err = %v, want timeout", n.aEvents.closedErr)
	}
}

// TestOutOfOrderFIN delivers the FIN before its preceding data.
func TestOutOfOrderFIN(t *testing.T) {
	cfg := defaultCfg()
	cfg.MSS = 512
	n := newTestNet(t, cfg)
	n.connect()
	// Hold back the first data segment so the FIN (and later data) arrive
	// out of order.
	held := 0
	n.drop = func(dir string, h Header, pl int) bool {
		if dir == "a->b" && pl > 0 && held == 0 {
			held++
			return true // dropped; retransmission will re-deliver
		}
		return false
	}
	n.a.Write(pattern(400))
	n.a.Close() // FIN follows the (lost) data
	n.deliver()
	if n.b.EOF() {
		t.Fatal("EOF delivered before missing data arrived")
	}
	n.drop = nil
	n.run(5000) // let retransmission fill the hole
	buf := make([]byte, 1024)
	r := n.b.Read(buf)
	checkIntegrity(t, pattern(400), buf[:r])
	if !n.b.EOF() {
		t.Fatal("EOF not delivered after hole filled")
	}
}

// TestHalfCloseTransfersBothWays exercises the shutdown(SHUT_WR) pattern.
func TestHalfCloseTransfersBothWays(t *testing.T) {
	n := newTestNet(t, defaultCfg())
	n.connect()
	n.a.Write([]byte("request"))
	n.a.Close()
	n.deliver()
	buf := make([]byte, 64)
	r := n.b.Read(buf)
	if string(buf[:r]) != "request" || !n.b.EOF() {
		t.Fatalf("request = %q eof=%v", buf[:r], n.b.EOF())
	}
	// b streams a response into the half-closed connection.
	resp := pattern(9000)
	got := n.pump(n.b, n.a, resp, 4000)
	checkIntegrity(t, resp, got)
	n.b.Close()
	n.deliver()
	if n.b.State() != Closed && n.b.State() != LastAck {
		t.Fatalf("b state %v", n.b.State())
	}
}

// TestZeroWindowProbeElicitsAck verifies probes are answered even with a
// closed window, so the opening is discovered.
func TestZeroWindowProbeElicitsAck(t *testing.T) {
	cfg := defaultCfg()
	cfg.MSS = 512
	n := newTestNet(t, cfg)
	n.connect()
	data := pattern(12000)
	written := n.a.Write(data)
	for u := 0; u < 300; u++ {
		if written < len(data) {
			written += n.a.Write(data[written:])
		}
		n.tick()
	}
	ackedBefore := n.a.Stats().SegsRcvd
	probesBefore := n.a.Stats().WindowProbes
	n.run(1300) // persist backoff reaches 60 s; cover at least one probe
	if n.a.Stats().WindowProbes == probesBefore {
		t.Fatal("no persist probes during observation window")
	}
	if n.a.Stats().SegsRcvd == ackedBefore {
		t.Fatal("zero-window probes not answered")
	}
	if n.a.State() != Established {
		t.Fatalf("connection degraded to %v under zero window", n.a.State())
	}
}

// TestDuplicateSYNHandling: a retransmitted SYN to an established
// connection must not corrupt it.
func TestDuplicateSYNRetransmission(t *testing.T) {
	n := newTestNet(t, defaultCfg())
	// Drop the SYN|ACK once: client retransmits SYN, server sees dup SYN in
	// SYN_RCVD.
	dropped := false
	n.drop = func(dir string, h Header, pl int) bool {
		if dir == "b->a" && h.Flags&FlagSYN != 0 && !dropped {
			dropped = true
			return true
		}
		return false
	}
	n.b.OpenListen()
	n.a.OpenActive(777)
	n.run(50)
	if n.a.State() != Established || n.b.State() != Established {
		t.Fatalf("states after dup SYN: %v/%v", n.a.State(), n.b.State())
	}
	data := pattern(3000)
	checkIntegrity(t, data, n.pump(n.a, n.b, data, 2000))
}

// TestAckBeyondSndMaxIgnored: an ACK for unsent data must not advance the
// send state (blind-injection robustness).
func TestAckBeyondSndMaxIgnored(t *testing.T) {
	n := newTestNet(t, defaultCfg())
	n.connect()
	forged := Header{
		SrcPort: n.b.Local().Port, DstPort: n.a.Local().Port,
		Seq: n.a.rcvNxt, Ack: n.a.sndMax.Add(5000),
		Flags: FlagACK, Window: 4096,
	}
	before := n.a.sndUna
	n.a.Input(forged, nil)
	if n.a.sndUna != before {
		t.Fatal("forged ACK advanced snd_una")
	}
	if n.a.State() != Established {
		t.Fatalf("state = %v", n.a.State())
	}
}

// TestBlindRSTOutsideWindowIgnored: an RST whose sequence is outside the
// receive window must not kill the connection.
func TestBlindRSTOutsideWindowIgnored(t *testing.T) {
	n := newTestNet(t, defaultCfg())
	n.connect()
	forged := Header{
		SrcPort: n.b.Local().Port, DstPort: n.a.Local().Port,
		Seq:   n.a.rcvNxt.Add(100000), // far outside the window
		Flags: FlagRST,
	}
	n.a.Input(forged, nil)
	if n.a.State() != Established {
		t.Fatalf("blind RST killed the connection: %v", n.a.State())
	}
	// An in-window RST is honoured.
	legit := Header{
		SrcPort: n.b.Local().Port, DstPort: n.a.Local().Port,
		Seq: n.a.rcvNxt, Flags: FlagRST,
	}
	n.a.Input(legit, nil)
	if n.a.State() != Closed {
		t.Fatalf("in-window RST ignored: %v", n.a.State())
	}
}

// TestSYNInWindowResets: a SYN appearing inside an established window is a
// protocol error that resets the connection (RFC 793).
func TestSYNInWindowResets(t *testing.T) {
	n := newTestNet(t, defaultCfg())
	n.connect()
	syn := Header{
		SrcPort: n.b.Local().Port, DstPort: n.a.Local().Port,
		Seq: n.a.rcvNxt, Ack: n.a.sndNxt, Flags: FlagSYN | FlagACK, Window: 1024,
	}
	n.a.Input(syn, nil)
	if n.a.State() != Closed || n.aEvents.closedErr != ErrReset {
		t.Fatalf("in-window SYN: state=%v err=%v", n.a.State(), n.aEvents.closedErr)
	}
}

// TestWriteAfterCloseRejected: the API contract.
func TestWriteAfterCloseRejected(t *testing.T) {
	n := newTestNet(t, defaultCfg())
	n.connect()
	n.a.Close()
	if n.a.Write([]byte("late")) != 0 {
		t.Fatal("write accepted after close")
	}
}

// TestSilentDropOfCorruptSegments: the shell drops checksum failures
// before Input; here we verify a mangled in-window segment (simulating a
// shell that skipped verification) cannot advance rcv_nxt past real data —
// i.e., sequence accounting tolerates garbage payloads without state
// corruption.
func TestGarbagePayloadDoesNotCorruptStream(t *testing.T) {
	n := newTestNet(t, defaultCfg())
	n.connect()
	real := pattern(2000)
	n.a.Write(real)
	n.run(20) // let slow start deliver everything
	// Inject a duplicate segment with different bytes for already-received
	// sequence space: it must be ignored as a duplicate.
	fake := Header{
		SrcPort: n.a.Local().Port, DstPort: n.b.Local().Port,
		Seq: n.b.rcvNxt.Add(-100), Ack: n.b.sndNxt, Flags: FlagACK, Window: 4096,
	}
	n.b.Input(fake, make([]byte, 100)) // zeros, not the real data
	buf := make([]byte, 4096)
	var got []byte
	for {
		r := n.b.Read(buf)
		if r == 0 {
			break
		}
		got = append(got, buf[:r]...)
	}
	checkIntegrity(t, real, got)
}

// TestListenIgnoresRSTAndAcksGetReset covers the LISTEN-state input rules.
func TestListenStateRules(t *testing.T) {
	n := newTestNet(t, defaultCfg())
	n.b.OpenListen()
	sent := 0
	n.b.cb.Send = func(seg *pkt.Buf, h Header, pl int) { sent++ }
	// RST to LISTEN: ignored.
	n.b.Input(Header{SrcPort: 1, DstPort: 80, Seq: 9, Flags: FlagRST}, nil)
	if n.b.State() != Listen || sent != 0 {
		t.Fatalf("RST to LISTEN: state=%v sent=%d", n.b.State(), sent)
	}
	// Stray ACK to LISTEN: answered with RST.
	n.b.Input(Header{SrcPort: 1, DstPort: 80, Seq: 9, Ack: 55, Flags: FlagACK}, nil)
	if sent != 1 {
		t.Fatalf("ACK to LISTEN should elicit RST (sent=%d)", sent)
	}
	if n.b.State() != Listen {
		t.Fatalf("listener disturbed: %v", n.b.State())
	}
}
