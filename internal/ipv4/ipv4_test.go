package ipv4

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"ulp/internal/pkt"
)

var (
	srcA = Addr{10, 0, 0, 1}
	dstA = Addr{10, 0, 0, 2}
)

func TestHeaderGolden(t *testing.T) {
	h := Header{
		TOS: 0, ID: 0x1c46, DF: true, TTL: 64, Proto: ProtoTCP,
		Src: Addr{172, 16, 10, 99}, Dst: Addr{172, 16, 10, 12},
	}
	b := pkt.FromBytes(HeaderLen, make([]byte, 20))
	h.Encode(b)
	w := b.Bytes()
	// Verify fixed fields.
	if w[0] != 0x45 || w[8] != 64 || w[9] != 6 {
		t.Fatalf("header bytes = %x", w[:HeaderLen])
	}
	if w[6] != 0x40 || w[7] != 0x00 {
		t.Fatalf("flags/frag = %x%x, want DF", w[6], w[7])
	}
	got, err := Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != h.ID || !got.DF || got.TTL != 64 || got.Proto != 6 || got.Src != h.Src || got.Dst != h.Dst {
		t.Fatalf("decoded %+v", got)
	}
	if got.TotalLen != 40 {
		t.Fatalf("total len = %d, want 40", got.TotalLen)
	}
}

func TestDecodeRejectsCorruptChecksum(t *testing.T) {
	h := Header{TTL: 64, Proto: ProtoTCP, Src: srcA, Dst: dstA}
	b := pkt.FromBytes(HeaderLen, []byte("payload"))
	h.Encode(b)
	b.Bytes()[8] ^= 0xff // clobber TTL
	if _, err := Decode(b); err == nil {
		t.Fatal("corrupt header decoded successfully")
	}
}

func TestDecodeRejectsMalformed(t *testing.T) {
	cases := map[string]func() *pkt.Buf{
		"short": func() *pkt.Buf { return pkt.FromBytes(0, make([]byte, 10)) },
		"bad version": func() *pkt.Buf {
			h := Header{TTL: 1, Proto: 6, Src: srcA, Dst: dstA}
			b := pkt.FromBytes(HeaderLen, nil)
			h.Encode(b)
			b.Bytes()[0] = 0x65
			return b
		},
		"bad ihl": func() *pkt.Buf {
			h := Header{TTL: 1, Proto: 6, Src: srcA, Dst: dstA}
			b := pkt.FromBytes(HeaderLen, nil)
			h.Encode(b)
			b.Bytes()[0] = 0x44
			return b
		},
		"total exceeds frame": func() *pkt.Buf {
			h := Header{TTL: 1, Proto: 6, Src: srcA, Dst: dstA}
			b := pkt.FromBytes(HeaderLen, nil)
			h.Encode(b)
			b.Bytes()[3] = 0xff // huge total length; checksum now also wrong,
			return b            // either rejection is correct
		},
	}
	for name, mk := range cases {
		if _, err := Decode(mk()); err == nil {
			t.Errorf("%s: decoded successfully", name)
		}
	}
}

func TestDecodeTrimsLinkPadding(t *testing.T) {
	h := Header{TTL: 64, Proto: ProtoUDP, Src: srcA, Dst: dstA}
	b := pkt.FromBytes(HeaderLen, []byte("abc"))
	h.Encode(b)
	// Simulate link minimum-size padding.
	padded := pkt.FromBytes(0, append(append([]byte(nil), b.Bytes()...), make([]byte, 30)...))
	got, err := Decode(padded)
	if err != nil {
		t.Fatal(err)
	}
	if got.TotalLen != HeaderLen+3 || !bytes.Equal(padded.Bytes(), []byte("abc")) {
		t.Fatalf("payload = %q", padded.Bytes())
	}
}

func TestOptionsRoundTrip(t *testing.T) {
	h := Header{TTL: 9, Proto: 6, Src: srcA, Dst: dstA, Options: []byte{1, 1, 1, 1}}
	b := pkt.FromBytes(h.HdrLen(), []byte("xy"))
	h.Encode(b)
	got, err := Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Options, []byte{1, 1, 1, 1}) {
		t.Fatalf("options = %x", got.Options)
	}
}

func TestUnalignedOptionsPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for unaligned options")
		}
	}()
	h := Header{Options: []byte{1, 2}}
	h.Encode(pkt.FromBytes(64, nil))
}

func TestFragmentSingleWhenFits(t *testing.T) {
	h := Header{TTL: 64, Proto: ProtoUDP, Src: srcA, Dst: dstA, ID: 7}
	frags, err := Fragment(h, pkt.FromBytes(0, make([]byte, 100)), 1500, 14)
	if err != nil || len(frags) != 1 {
		t.Fatalf("frags = %d, err = %v", len(frags), err)
	}
	if frags[0].Headroom() != 14 {
		t.Fatalf("headroom = %d, want 14 below the IP header", frags[0].Headroom())
	}
	got, err := Decode(frags[0])
	if err != nil || got.MF || got.FragOff != 0 {
		t.Fatalf("single fragment header: %+v err=%v", got, err)
	}
}

func TestFragmentHonoursDF(t *testing.T) {
	h := Header{TTL: 64, Proto: ProtoUDP, Src: srcA, Dst: dstA, DF: true}
	if _, err := Fragment(h, pkt.FromBytes(0, make([]byte, 3000)), 1500, 0); err == nil {
		t.Fatal("expected DF error")
	}
}

func TestFragmentOffsetsAligned(t *testing.T) {
	h := Header{TTL: 64, Proto: ProtoUDP, Src: srcA, Dst: dstA, ID: 3}
	frags, err := Fragment(h, pkt.FromBytes(0, make([]byte, 4000)), 1500, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(frags) != 3 {
		t.Fatalf("fragments = %d, want 3", len(frags))
	}
	for i, f := range frags {
		fh, err := Decode(f)
		if err != nil {
			t.Fatal(err)
		}
		if fh.FragOff%8 != 0 {
			t.Fatalf("fragment %d offset %d not 8-aligned", i, fh.FragOff)
		}
		if (i < len(frags)-1) != fh.MF {
			t.Fatalf("fragment %d MF = %v", i, fh.MF)
		}
	}
}

func TestReassemblyInOrder(t *testing.T) {
	testReassembly(t, func(n int, perm []int) []int { return perm })
}

func TestReassemblyOutOfOrder(t *testing.T) {
	testReassembly(t, func(n int, perm []int) []int {
		for i := range perm {
			perm[i] = n - 1 - i
		}
		return perm
	})
}

func testReassembly(t *testing.T, order func(int, []int) []int) {
	t.Helper()
	payload := make([]byte, 5000)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	h := Header{TTL: 64, Proto: ProtoUDP, Src: srcA, Dst: dstA, ID: 42}
	frags, err := Fragment(h, pkt.FromBytes(0, payload), 1500, 0)
	if err != nil {
		t.Fatal(err)
	}
	perm := make([]int, len(frags))
	for i := range perm {
		perm[i] = i
	}
	perm = order(len(frags), perm)
	r := NewReassembler(10)
	done := false
	for _, idx := range perm {
		fh, err := Decode(frags[idx])
		if err != nil {
			t.Fatal(err)
		}
		hdr, data, ok := r.Insert(0, fh, frags[idx].Bytes())
		if ok {
			if done {
				t.Fatal("completed twice")
			}
			done = true
			if !bytes.Equal(data, payload) {
				t.Fatal("reassembled payload mismatch")
			}
			if hdr.MF || hdr.FragOff != 0 || hdr.ID != 42 {
				t.Fatalf("reassembled header %+v", hdr)
			}
		}
	}
	if !done {
		t.Fatal("never completed")
	}
	if len(r.entries) != 0 {
		t.Fatalf("pending = %d", len(r.entries))
	}
}

func TestReassemblyTimeout(t *testing.T) {
	h := Header{TTL: 64, Proto: ProtoUDP, Src: srcA, Dst: dstA, ID: 9}
	frags, _ := Fragment(h, pkt.FromBytes(0, make([]byte, 3000)), 1500, 0)
	r := NewReassembler(5)
	fh, _ := Decode(frags[0])
	r.Insert(100, fh, frags[0].Bytes())
	r.Expire(104)
	if len(r.entries) != 1 {
		t.Fatal("expired too early")
	}
	r.Expire(105)
	if len(r.entries) != 0 || r.TimedOut != 1 {
		t.Fatalf("pending=%d timedout=%d", len(r.entries), r.TimedOut)
	}
}

func TestReassemblyInterleavedDatagrams(t *testing.T) {
	r := NewReassembler(100)
	mk := func(id uint16, fill byte) ([]*pkt.Buf, []byte) {
		payload := bytes.Repeat([]byte{fill}, 3000)
		h := Header{TTL: 64, Proto: ProtoUDP, Src: srcA, Dst: dstA, ID: id}
		frags, _ := Fragment(h, pkt.FromBytes(0, payload), 1500, 0)
		return frags, payload
	}
	fa, pa := mk(1, 0xaa)
	fb, pb := mk(2, 0xbb)
	var gotA, gotB []byte
	seq := []*pkt.Buf{fa[0], fb[0], fb[1], fa[1], fa[2], fb[2]}
	for _, f := range seq {
		fh, err := Decode(f)
		if err != nil {
			t.Fatal(err)
		}
		if hdr, data, ok := r.Insert(0, fh, f.Bytes()); ok {
			switch hdr.ID {
			case 1:
				gotA = data
			case 2:
				gotB = data
			}
		}
	}
	if !bytes.Equal(gotA, pa) || !bytes.Equal(gotB, pb) {
		t.Fatal("interleaved reassembly mismatch")
	}
}

// Property: header encode/decode round-trips.
func TestHeaderRoundTripProperty(t *testing.T) {
	if err := quick.Check(func(tos uint8, id uint16, df, mf bool, fragOff uint16, ttl, proto uint8, src, dst [4]byte, n uint8) bool {
		h := Header{
			TOS: tos, ID: id, DF: df, MF: mf, FragOff: int(fragOff%1024) * 8,
			TTL: ttl, Proto: proto, Src: src, Dst: dst,
		}
		b := pkt.FromBytes(HeaderLen, make([]byte, int(n)))
		h.Encode(b)
		got, err := Decode(b)
		if err != nil {
			return false
		}
		h.TotalLen = HeaderLen + int(n)
		return got.TOS == h.TOS && got.ID == h.ID && got.DF == h.DF && got.MF == h.MF &&
			got.FragOff == h.FragOff && got.TTL == h.TTL && got.Proto == h.Proto &&
			got.Src == h.Src && got.Dst == h.Dst && got.TotalLen == h.TotalLen
	}, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: fragment + reassemble (random order) restores the payload for
// any size and MTU.
func TestFragmentReassembleProperty(t *testing.T) {
	if err := quick.Check(func(seed int64, sz uint16, mtuSel uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		size := int(sz)%20000 + 1
		mtu := []int{576, 1500, 4096}[int(mtuSel)%3]
		payload := make([]byte, size)
		rng.Read(payload)
		h := Header{TTL: 64, Proto: ProtoUDP, Src: srcA, Dst: dstA, ID: uint16(seed)}
		frags, err := Fragment(h, pkt.FromBytes(0, payload), mtu, 0)
		if err != nil {
			return false
		}
		rng.Shuffle(len(frags), func(i, j int) { frags[i], frags[j] = frags[j], frags[i] })
		r := NewReassembler(10)
		for i, f := range frags {
			fh, err := Decode(f)
			if err != nil {
				return false
			}
			_, data, ok := r.Insert(0, fh, f.Bytes())
			if ok {
				return i == len(frags)-1 && bytes.Equal(data, payload)
			}
		}
		return false
	}, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestReassemblyDuplicateFragments(t *testing.T) {
	payload := make([]byte, 3000)
	for i := range payload {
		payload[i] = byte(i)
	}
	h := Header{TTL: 64, Proto: ProtoUDP, Src: srcA, Dst: dstA, ID: 5}
	frags, _ := Fragment(h, pkt.FromBytes(0, payload), 1500, 0)
	r := NewReassembler(10)
	var got []byte
	seq := []*pkt.Buf{frags[0].Clone(), frags[0], frags[1].Clone(), frags[1], frags[2].Clone(), frags[2]}
	for _, f := range seq {
		fh, err := Decode(f)
		if err != nil {
			t.Fatal(err)
		}
		if _, data, ok := r.Insert(0, fh, f.Bytes()); ok {
			got = data
		}
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("duplicate fragments broke reassembly")
	}
}

func TestAddrHelpers(t *testing.T) {
	if (Addr{10, 1, 2, 3}).String() != "10.1.2.3" {
		t.Fatal("String broken")
	}
	if !(Addr{}).IsZero() || (Addr{1}).IsZero() {
		t.Fatal("IsZero broken")
	}
	if !SameSubnet(Addr{10, 0, 0, 1}, Addr{10, 0, 0, 200}) || SameSubnet(Addr{10, 0, 0, 1}, Addr{10, 0, 1, 1}) {
		t.Fatal("SameSubnet broken")
	}
}

func TestIDGen(t *testing.T) {
	var g IDGen
	a, b := g.Next(), g.Next()
	if a == b {
		t.Fatal("IDs not unique")
	}
}
