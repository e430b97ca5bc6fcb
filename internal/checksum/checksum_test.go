package checksum

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// refChecksum is an independent straightforward reference implementation
// used to cross-check the production one.
func refChecksum(b []byte) uint16 {
	var sum uint64
	for i := 0; i < len(b); i += 2 {
		if i+1 < len(b) {
			sum += uint64(b[i])<<8 + uint64(b[i+1])
		} else {
			sum += uint64(b[i]) << 8
		}
	}
	for sum>>16 != 0 {
		sum = sum&0xffff + sum>>16
	}
	return ^uint16(sum)
}

func TestKnownVectors(t *testing.T) {
	// RFC 1071 §3 worked example: 00 01 f2 03 f4 f5 f6 f7 -> sum ddf2,
	// checksum ^0xddf2 = 0x220d.
	b := []byte{0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7}
	if got := Checksum(b); got != 0x220d {
		t.Fatalf("Checksum = %#04x, want 0x220d", got)
	}
	if got := Checksum(nil); got != 0xffff {
		t.Fatalf("Checksum(nil) = %#04x, want 0xffff", got)
	}
	// A classic IPv4 header example (from RFC 1071 erratum community
	// vector): verify a header embedding its checksum verifies.
	hdr := []byte{
		0x45, 0x00, 0x00, 0x73, 0x00, 0x00, 0x40, 0x00,
		0x40, 0x11, 0xb8, 0x61, 0xc0, 0xa8, 0x00, 0x01,
		0xc0, 0xa8, 0x00, 0xc7,
	}
	if !Verify(hdr) {
		t.Fatal("known-good IPv4 header failed Verify")
	}
}

func TestOddLength(t *testing.T) {
	b := []byte{0x12, 0x34, 0x56}
	if got, want := Checksum(b), refChecksum(b); got != want {
		t.Fatalf("odd-length checksum = %#04x, want %#04x", got, want)
	}
}

func TestMatchesReference(t *testing.T) {
	if err := quick.Check(func(b []byte) bool {
		return Checksum(b) == refChecksum(b)
	}, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: embedding the computed checksum makes the region verify, for
// even-length regions with a dedicated checksum field.
func TestEmbedVerifyProperty(t *testing.T) {
	if err := quick.Check(func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		size := 2 + 2*int(n%64) // even, >= 2
		b := make([]byte, size)
		rng.Read(b)
		b[0], b[1] = 0, 0 // checksum field at offset 0
		ck := Checksum(b)
		b[0], b[1] = byte(ck>>8), byte(ck)
		return Verify(b)
	}, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: chained Sum over even-boundary splits equals Sum over the whole.
func TestChainingProperty(t *testing.T) {
	if err := quick.Check(func(b []byte, cut uint8) bool {
		k := int(cut) % (len(b) + 1)
		k &^= 1 // even boundary
		whole := Fold(Sum(0, b))
		split := Fold(Sum(Sum(0, b[:k]), b[k:]))
		return whole == split
	}, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: RFC 1624 incremental update equals recomputation when a 16-bit
// field changes.
func TestPseudoHeader(t *testing.T) {
	src := [4]byte{192, 168, 0, 1}
	dst := [4]byte{10, 0, 0, 2}
	payload := []byte{0xde, 0xad, 0xbe, 0xef}
	acc := PseudoHeader(0, src, dst, 6, len(payload))
	got := Fold(Sum(acc, payload))

	// Reference: serialize the pseudo-header explicitly.
	ph := []byte{
		192, 168, 0, 1,
		10, 0, 0, 2,
		0, 6,
		0, byte(len(payload)),
	}
	want := refChecksum(append(ph, payload...))
	if got != want {
		t.Fatalf("pseudo-header checksum = %#04x, want %#04x", got, want)
	}
}
