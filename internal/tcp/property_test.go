package tcp

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"ulp/internal/ipv4"
	"ulp/internal/pkt"
)

// TestTransferUnderRandomLoss is the central robustness property: for any
// seeded combination of loss, duplication and reordering, the byte stream
// delivered equals the byte stream sent.
func TestTransferUnderRandomLoss(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		seed := seed
		rng := rand.New(rand.NewSource(seed))
		cfg := defaultCfg()
		cfg.MSS = 512
		n := newTestNet(t, cfg)
		lossP := 0.02 + rng.Float64()*0.08
		n.dupP = rng.Float64() * 0.05
		n.reorderP = rng.Float64() * 0.1
		n.rng = rand.New(rand.NewSource(seed * 77))
		n.connect() // handshake over a clean network, then inject faults
		n.drop = func(dir string, h Header, pl int) bool {
			return rng.Float64() < lossP
		}
		data := pattern(int(4000 + rng.Int63n(20000)))
		got := n.pump(n.a, n.b, data, 200000)
		if !bytes.Equal(data, got) {
			t.Fatalf("seed %d: corrupted transfer (%d/%d bytes)", seed, len(got), len(data))
		}
	}
}

// TestNoDataBeyondWindowProperty: the engine never has more unacknowledged
// data outstanding than min(peer window, cwnd) at any instant.
func TestInFlightNeverExceedsWindows(t *testing.T) {
	cfg := defaultCfg()
	cfg.MSS = 512
	n := newTestNet(t, cfg)
	n.connect()
	data := pattern(30000)
	written := 0
	buf := make([]byte, 4096)
	for u := 0; u < 4000; u++ {
		if written < len(data) {
			written += n.a.Write(data[written:])
		}
		inFlight := n.a.sndNxt.Diff(n.a.sndUna)
		lim := n.a.sndWnd
		if n.a.cwnd < lim {
			lim = n.a.cwnd
		}
		// A persist probe may exceed a zero window by one byte.
		if inFlight > lim+1 {
			t.Fatalf("in flight %d exceeds window %d at step %d", inFlight, lim, u)
		}
		for {
			r := n.b.Read(buf)
			if r == 0 {
				break
			}
		}
		n.tick()
	}
}

func TestHeaderRoundTripProperty(t *testing.T) {
	src := ipv4.Addr{10, 0, 0, 1}
	dst := ipv4.Addr{10, 0, 0, 2}
	if err := quick.Check(func(sp, dp uint16, seq, ack uint32, flags uint8, win, urg, mss uint16, payload []byte) bool {
		h := Header{
			SrcPort: sp, DstPort: dp,
			Seq: Seq(seq), Ack: Seq(ack),
			Flags: flags, Window: win, Urgent: urg, MSS: mss,
		}
		b := pkt.FromBytes(h.EncodedLen(), payload)
		h.Encode(b, src, dst)
		got, err := Decode(b, src, dst)
		if err != nil {
			return false
		}
		return got == h && bytes.Equal(b.Bytes(), payload)
	}, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	src := ipv4.Addr{10, 0, 0, 1}
	dst := ipv4.Addr{10, 0, 0, 2}
	if err := quick.Check(func(payload []byte, bitSel uint16) bool {
		h := Header{SrcPort: 1, DstPort: 2, Seq: 100, Ack: 200, Flags: FlagACK, Window: 512}
		b := pkt.FromBytes(HeaderLen, payload)
		h.Encode(b, src, dst)
		w := b.Bytes()
		bit := int(bitSel) % (len(w) * 8)
		w[bit/8] ^= 1 << (bit % 8)
		_, err := Decode(b, src, dst)
		// Any single-bit flip must be detected (ones-complement checksum
		// catches all single-bit errors).
		return err != nil
	}, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeRejectsWrongPseudoHeader(t *testing.T) {
	src := ipv4.Addr{10, 0, 0, 1}
	dst := ipv4.Addr{10, 0, 0, 2}
	h := Header{SrcPort: 1, DstPort: 2, Flags: FlagACK}
	b := pkt.FromBytes(HeaderLen, []byte("data"))
	h.Encode(b, src, dst)
	if _, err := Decode(b, src, ipv4.Addr{10, 0, 0, 3}); err == nil {
		t.Fatal("segment misdelivered to wrong address passed checksum")
	}
}

func TestSeqArithmetic(t *testing.T) {
	if err := quick.Check(func(a uint32, d int16) bool {
		s := Seq(a)
		u := s.Add(int(d))
		return u.Diff(s) == int(d)
	}, nil); err != nil {
		t.Fatal(err)
	}
	// Wraparound ordering.
	if !Seq(0xfffffff0).Less(Seq(0x10)) {
		t.Fatal("wraparound Less broken")
	}
	if Seq(0x10).Less(Seq(0xfffffff0)) {
		t.Fatal("wraparound Less inverted")
	}
	if seqMax(Seq(0xfffffff0), Seq(0x10)) != Seq(0x10) {
		t.Fatal("seqMax broken across wrap")
	}
	if !Seq(5).Leq(5) {
		t.Fatal("Leq not reflexive")
	}
}

func TestSendBuf(t *testing.T) {
	b := newSendBuf(10)
	b.start = 1000
	if n := b.append([]byte("hello world!!!")); n != 10 {
		t.Fatalf("append accepted %d, want 10 (limit)", n)
	}
	if b.space() != 0 {
		t.Fatalf("space = %d", b.space())
	}
	if got := string(b.read(1002, 3)); got != "llo" {
		t.Fatalf("read = %q", got)
	}
	if b.read(999, 5) != nil {
		t.Fatal("read before start should be nil")
	}
	b.ackTo(1004)
	if b.len() != 6 || b.start != 1004 {
		t.Fatalf("after ack: len=%d start=%d", b.len(), b.start)
	}
	if got := string(b.read(1004, 100)); got != "o worl" {
		t.Fatalf("post-ack read = %q", got)
	}
	b.ackTo(1000) // stale ack: no-op
	if b.start != 1004 {
		t.Fatal("stale ack moved start")
	}
}

// Property: recvBuf.insert over any permutation of segment arrivals yields
// the original stream.
func TestRecvBufReassemblyProperty(t *testing.T) {
	if err := quick.Check(func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		total := int(n)%2000 + 100
		stream := make([]byte, total)
		rng.Read(stream)
		// Split into random segments.
		type seg struct {
			off int
			d   []byte
		}
		var segs []seg
		for off := 0; off < total; {
			l := rng.Intn(300) + 1
			if off+l > total {
				l = total - off
			}
			segs = append(segs, seg{off, stream[off : off+l]})
			off += l
		}
		rng.Shuffle(len(segs), func(i, j int) { segs[i], segs[j] = segs[j], segs[i] })
		b := newRecvBuf(64 * 1024)
		base := Seq(0xffffff00) // exercise wraparound too
		nxt := base
		for _, s := range segs {
			nxt = b.insert(nxt, base.Add(s.off), s.d)
		}
		if nxt.Diff(base) != total {
			return false
		}
		out := make([]byte, total)
		if b.read(out) != total {
			return false
		}
		return bytes.Equal(out, stream)
	}, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestRecvBufOverlaps(t *testing.T) {
	b := newRecvBuf(1024)
	nxt := Seq(0)
	nxt = b.insert(nxt, 10, []byte("cdef")) // ooo
	nxt = b.insert(nxt, 8, []byte("abcd"))  // overlaps ooo head
	if len(b.ooo) == 0 {
		t.Fatal("expected out-of-order segments queued")
	}
	nxt = b.insert(nxt, 0, []byte("01234567")) // fills the hole
	if nxt != 14 {
		t.Fatalf("rcvNxt = %d, want 14", nxt)
	}
	out := make([]byte, 64)
	r := b.read(out)
	if string(out[:r]) != "01234567abcdef" {
		t.Fatalf("stream = %q", out[:r])
	}
}

func TestRecvBufWindow(t *testing.T) {
	b := newRecvBuf(100)
	if b.window() != 100 {
		t.Fatalf("window = %d", b.window())
	}
	b.insert(0, 0, make([]byte, 60))
	if b.window() != 40 {
		t.Fatalf("window = %d", b.window())
	}
	// Overfill attempts are capped at the window.
	nxt := b.insert(60, 60, make([]byte, 100))
	if nxt != 100 || b.window() != 0 {
		t.Fatalf("nxt=%d window=%d", nxt, b.window())
	}
}

func TestSnapshotRestoreMidConnection(t *testing.T) {
	n := newTestNet(t, defaultCfg())
	n.connect()
	// Move some data so the state is non-trivial.
	data := pattern(5000)
	got := n.pump(n.a, n.b, data, 2000)
	checkIntegrity(t, data, got)

	// Hand the b side to a "new owner" (registry -> library transfer).
	snap := n.b.Snapshot()
	if snap.Size() <= 0 {
		t.Fatal("snapshot size must be positive")
	}
	bEvents := &events{}
	nb := new(Conn)
	RestoreInto(nb, snap, bEvents.callbacks(Callbacks{
		Send: n.b.cb.Send,
	}))
	n.b = nb
	if nb.State() != Established {
		t.Fatalf("restored state = %v", nb.State())
	}

	// The restored connection keeps working in both directions.
	data2 := pattern(8000)
	got2 := n.pump(n.a, n.b, data2, 4000)
	checkIntegrity(t, data2, got2)
	data3 := pattern(3000)
	got3 := n.pump(n.b, n.a, data3, 4000)
	checkIntegrity(t, data3, got3)
}

func TestSnapshotCarriesBufferedData(t *testing.T) {
	n := newTestNet(t, defaultCfg())
	n.connect()
	n.a.Write([]byte("buffered but unacked"))
	// Don't deliver: snapshot with data in the send buffer.
	snap := n.a.Snapshot()
	if len(snap.SndData) == 0 {
		t.Fatal("snapshot lost send-buffer data")
	}
	na := new(Conn)
	RestoreInto(na, snap, Callbacks{Send: n.a.cb.Send})
	n.a = na
	n.run(30)
	buf := make([]byte, 64)
	r := n.b.Read(buf)
	if string(buf[:r]) != "buffered but unacked" {
		t.Fatalf("restored transfer = %q", buf[:r])
	}
}

func TestPortAlloc(t *testing.T) {
	a := NewPortAlloc()
	if !a.Reserve(80) {
		t.Fatal("reserve free port failed")
	}
	if a.Reserve(80) {
		t.Fatal("double reserve allowed")
	}
	p1, err1 := a.Ephemeral()
	p2, err2 := a.Ephemeral()
	if err1 != nil || err2 != nil {
		t.Fatalf("ephemeral errors: %v, %v", err1, err2)
	}
	if p1 == p2 || p1 < 1024 || p2 < 1024 {
		t.Fatalf("ephemeral ports %d, %d", p1, p2)
	}
	a.Release(p1)
	if !a.Reserve(p1) {
		t.Fatal("released port not reusable")
	}
}

// TestPortAllocExhaustion pins the churn-world fix: an allocator whose
// whole range is in use must return ErrPortExhausted instead of spinning
// forever, and must recover once a port is released.
func TestPortAllocExhaustion(t *testing.T) {
	a := NewPortAllocRange(100, 104)
	got := map[uint16]bool{}
	for i := 0; i < 4; i++ {
		p, err := a.Ephemeral()
		if err != nil {
			t.Fatalf("alloc %d: %v", i, err)
		}
		if p < 100 || p >= 104 || got[p] {
			t.Fatalf("alloc %d: bad or duplicate port %d", i, p)
		}
		got[p] = true
	}
	if _, err := a.Ephemeral(); err != ErrPortExhausted {
		t.Fatalf("exhausted alloc: err = %v, want ErrPortExhausted", err)
	}
	a.Release(102)
	p, err := a.Ephemeral()
	if err != nil || p != 102 {
		t.Fatalf("post-release alloc: %d, %v (want 102)", p, err)
	}
	if lo, hi := a.EphemeralRange(); lo != 100 || hi != 104 {
		t.Fatalf("range = [%d, %d)", lo, hi)
	}
}

func TestStateStrings(t *testing.T) {
	if Established.String() != "ESTABLISHED" || TimeWait.String() != "TIME_WAIT" {
		t.Fatal("state names broken")
	}
	if State(99).String() == "" {
		t.Fatal("out-of-range state name empty")
	}
	h := Header{SrcPort: 1, DstPort: 2, Flags: FlagSYN | FlagACK}
	if h.String() == "" || flagNames(h.Flags) != "S." {
		t.Fatalf("header string %q flags %q", h.String(), flagNames(h.Flags))
	}
	e := Endpoint{IP: ipv4.Addr{1, 2, 3, 4}, Port: 80}
	if e.String() != "1.2.3.4:80" {
		t.Fatalf("endpoint string %q", e.String())
	}
}

func TestMakeRSTRules(t *testing.T) {
	local := Endpoint{IP: ipv4.Addr{10, 0, 0, 1}, Port: 80}
	peer := Endpoint{IP: ipv4.Addr{10, 0, 0, 2}, Port: 5000}
	// RST in response to a SYN (no ACK): RST|ACK with ack = seq+1.
	syn := Header{SrcPort: peer.Port, DstPort: local.Port, Seq: 700, Flags: FlagSYN}
	r, b := MakeRST(syn, 0, 40, local, peer)
	if r == nil || r.Flags != FlagRST|FlagACK || r.Ack != 701 {
		t.Fatalf("rst for syn = %+v", r)
	}
	if h, err := Decode(b, local.IP, peer.IP); err != nil || h.Flags&FlagRST == 0 {
		t.Fatalf("encoded rst invalid: %v", err)
	}
	// RST in response to an ACK: seq = their ack, no ACK flag.
	ack := Header{SrcPort: peer.Port, DstPort: local.Port, Seq: 700, Ack: 4242, Flags: FlagACK}
	r, _ = MakeRST(ack, 0, 40, local, peer)
	if r == nil || r.Flags != FlagRST || r.Seq != 4242 {
		t.Fatalf("rst for ack = %+v", r)
	}
	// Never reset a reset.
	rst := Header{Flags: FlagRST}
	if r, _ := MakeRST(rst, 0, 40, local, peer); r != nil {
		t.Fatal("generated RST in response to RST")
	}
}

func TestTimeWaitAcksRetransmittedFIN(t *testing.T) {
	cfg := defaultCfg()
	cfg.TimeWaitTicks = 6
	n := newTestNet(t, cfg)
	n.connect()
	n.a.Close()
	n.deliver()
	n.b.Close()
	// Drop b's FIN once so b retransmits it into a's TIME_WAIT.
	first := true
	n.drop = func(dir string, h Header, pl int) bool {
		if dir == "b->a" && h.Flags&FlagFIN != 0 && first {
			first = false
			return true
		}
		return false
	}
	n.deliver()
	n.drop = nil
	n.run(60)
	if n.b.State() != Closed {
		t.Fatalf("b stuck in %v after FIN retransmission", n.b.State())
	}
}
