// Package checksum implements the Internet checksum (RFC 1071): the 16-bit
// ones-complement of the ones-complement sum of the data, with support for
// incremental composition across regions (headers, pseudo-headers, payload).
package checksum

import (
	"encoding/binary"
	"sync/atomic"
)

// bytesSummed counts every byte fed through Sum, process-wide. The paper's
// Table 3 accounting attributes checksum cost per byte; consumers snapshot
// this around a scenario to report it.
var bytesSummed atomic.Int64

// BytesSummed returns the cumulative number of bytes checksummed by Sum
// since process start. Process-global: subtract a baseline taken at scenario
// start for per-run figures.
func BytesSummed() int64 { return bytesSummed.Load() }

// Sum accumulates the ones-complement sum of b into the running partial sum
// acc. The partial sum is kept un-folded in a uint32; combine regions by
// chaining Sum calls and finish with Fold.
//
// Regions must be concatenated on even-byte boundaries for straight
// chaining, which holds for all uses in this stack (headers are even-sized).
//
// The sum is computed a word at a time: 8-byte loads, four per unrolled
// iteration, each folded 64->32 before accumulating in a uint64. Any
// grouping of the byte-pair additions is congruent to the reference sum
// modulo 2^16-1 (the checksum's modulus), so the returned partial folds to
// exactly the same checksum as the byte-pair loop (sumReference, retained
// below and fuzz-checked against this implementation).
func Sum(acc uint32, b []byte) uint32 {
	bytesSummed.Add(int64(len(b)))
	sum := uint64(acc)
	for len(b) >= 32 {
		v0 := binary.BigEndian.Uint64(b)
		v1 := binary.BigEndian.Uint64(b[8:])
		v2 := binary.BigEndian.Uint64(b[16:])
		v3 := binary.BigEndian.Uint64(b[24:])
		sum += (v0 >> 32) + (v0 & 0xffffffff)
		sum += (v1 >> 32) + (v1 & 0xffffffff)
		sum += (v2 >> 32) + (v2 & 0xffffffff)
		sum += (v3 >> 32) + (v3 & 0xffffffff)
		b = b[32:]
	}
	for len(b) >= 8 {
		v := binary.BigEndian.Uint64(b)
		sum += (v >> 32) + (v & 0xffffffff)
		b = b[8:]
	}
	if len(b) >= 4 {
		sum += uint64(binary.BigEndian.Uint32(b))
		b = b[4:]
	}
	if len(b) >= 2 {
		sum += uint64(binary.BigEndian.Uint16(b))
		b = b[2:]
	}
	if len(b) > 0 {
		sum += uint64(b[0]) << 8
	}
	for sum>>32 != 0 {
		sum = (sum & 0xffffffff) + (sum >> 32)
	}
	return uint32(sum)
}

// sumReference is the plain byte-pair accumulation the optimized Sum must
// agree with (after Fold) on every input; it is exercised only by tests.
func sumReference(acc uint32, b []byte) uint32 {
	i := 0
	for ; i+1 < len(b); i += 2 {
		acc += uint32(b[i])<<8 | uint32(b[i+1])
	}
	if i < len(b) {
		acc += uint32(b[i]) << 8
	}
	return acc
}

// Fold reduces a partial sum to the final 16-bit ones-complement checksum.
func Fold(acc uint32) uint16 {
	for acc>>16 != 0 {
		acc = (acc & 0xffff) + acc>>16
	}
	return ^uint16(acc)
}

// Checksum computes the checksum of a single region.
func Checksum(b []byte) uint16 { return Fold(Sum(0, b)) }

// Verify reports whether a region that embeds its own checksum field sums to
// the all-ones pattern (i.e. checksums to zero), the standard receive check.
func Verify(b []byte) bool { return Fold(Sum(0, b)) == 0 }

// PseudoHeader accumulates the TCP/UDP pseudo-header (RFC 793 §3.1): source
// and destination IPv4 addresses, the protocol number, and the transport
// segment length.
func PseudoHeader(acc uint32, src, dst [4]byte, proto uint8, length int) uint32 {
	acc += uint32(src[0])<<8 | uint32(src[1])
	acc += uint32(src[2])<<8 | uint32(src[3])
	acc += uint32(dst[0])<<8 | uint32(dst[1])
	acc += uint32(dst[2])<<8 | uint32(dst[3])
	acc += uint32(proto)
	acc += uint32(length)
	return acc
}
