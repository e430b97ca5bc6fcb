// Package tcp implements the Transmission Control Protocol in the style of
// the 4.3BSD implementation the paper's library borrows: tick-driven timers
// (500 ms slow / 200 ms fast timeouts), Jacobson SRTT/RTTVAR estimation with
// Karn's clamp, slow start and congestion avoidance, optional fast
// retransmit, delayed acknowledgments, the Nagle algorithm, silly-window
// avoidance, keepalives, and the full connection state machine including
// simultaneous open/close and TIME_WAIT.
//
// The engine is pure protocol logic: no blocking, no virtual time, no cost
// accounting. Organization shells (user-level library, in-kernel,
// single-server) drive it through Input/Write/Read/Close and the two tick
// methods, and receive output segments and event notifications through
// callbacks. This is what lets all three organizations of the paper run the
// identical protocol, so that measured differences are structural.
package tcp

// Seq is a TCP sequence number with modular comparison semantics (RFC 793).
type Seq uint32

// Less reports s < t in sequence space.
func (s Seq) Less(t Seq) bool { return int32(s-t) < 0 }

// Leq reports s <= t in sequence space.
func (s Seq) Leq(t Seq) bool { return int32(s-t) <= 0 }

// Add advances s by n bytes.
func (s Seq) Add(n int) Seq { return s + Seq(uint32(int32(n))) }

// Diff returns the signed distance s - t.
func (s Seq) Diff(t Seq) int { return int(int32(s - t)) }

// seqMax returns the later of two sequence numbers.
func seqMax(a, b Seq) Seq {
	if a.Less(b) {
		return b
	}
	return a
}
