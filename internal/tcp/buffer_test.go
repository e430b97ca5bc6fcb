package tcp

import (
	"bytes"
	"testing"
)

// After warm-up, a steady append/ack cycle on the send side and insert/read
// cycle on the receive side reuse their one backing array: no allocation.
func TestBuffersSteadyStateAllocatesNothing(t *testing.T) {
	const limit = 4096
	payload := bytes.Repeat([]byte{0xA5}, 1460)
	out := make([]byte, 1000)

	snd := newSendBuf(limit)
	una := Seq(100)
	snd.start = una
	sendCycle := func() {
		// Fill, then acknowledge all but a remainder so the window keeps
		// sliding through the array at an odd stride.
		for snd.append(payload) > 0 {
		}
		una = una.Add(snd.len() - 333)
		snd.ackTo(una)
	}
	rcv := newRecvBuf(limit)
	nxt := Seq(7)
	recvCycle := func() {
		for rcv.window() > 0 {
			nxt = rcv.insert(nxt, nxt, payload)
		}
		for rcv.readable() > len(out) {
			rcv.read(out)
		}
	}
	sendCycle()
	recvCycle()
	if n := testing.AllocsPerRun(200, sendCycle); n != 0 {
		t.Errorf("sendBuf append/ack cycle: %v allocations a run, want 0", n)
	}
	if n := testing.AllocsPerRun(200, recvCycle); n != 0 {
		t.Errorf("recvBuf insert/read cycle: %v allocations a run, want 0", n)
	}
	if snd.len() > limit || rcv.readable() > limit {
		t.Fatalf("buffers hold %d and %d bytes, limit %d", snd.len(), rcv.readable(), limit)
	}
}

// The bytes survive the moves: what goes in comes out, in order, across many
// wraps of the backing array and from a buffer restored at exact size.
func TestBuffersKeepBytesAcrossCompaction(t *testing.T) {
	const limit = 512
	next := byte(0)
	chunk := func(n int) []byte {
		p := make([]byte, n)
		for i := range p {
			p[i] = next
			next++
		}
		return p
	}

	snd := newSendBuf(limit)
	snd.data = append([]byte(nil), chunk(100)...) // as Restore leaves it
	want := byte(0)
	for round := 0; round < 200; round++ {
		snd.append(chunk(1 + round%97))
		n := snd.len() * 2 / 3
		for _, c := range snd.read(snd.start, n) {
			if c != want {
				t.Fatalf("sendBuf round %d: read %d, want %d", round, c, want)
			}
			want++
		}
		snd.ackTo(snd.start.Add(n))
	}

	next = 0
	rcv := newRecvBuf(limit)
	rcv.ready = append([]byte(nil), chunk(100)...)
	nxt, got := Seq(100), byte(0)
	out := make([]byte, 61)
	for round := 0; round < 200; round++ {
		nxt = rcv.insert(nxt, nxt, chunk(1+round%53))
		for _, c := range out[:rcv.read(out)] {
			if c != got {
				t.Fatalf("recvBuf round %d: read %d, want %d", round, c, got)
			}
			got++
		}
	}
}
