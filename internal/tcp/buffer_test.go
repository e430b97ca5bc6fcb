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

// Test-side constructors: the engine itself only ever initialises the
// buffers embedded in a Conn.
func newSendBuf(limit int) *sendBuf {
	b := new(sendBuf)
	b.init(limit)
	return b
}

func newRecvBuf(limit int) *recvBuf {
	b := new(recvBuf)
	b.init(limit)
	return b
}

// A hole, three segments queued behind it, then the fill: once the queue has
// been through one such cycle its segment storage is reused and the next
// cycles allocate nothing.
func TestReassemblySteadyStateAllocatesNothing(t *testing.T) {
	const seg = 1460
	payload := bytes.Repeat([]byte{0x5A}, seg)
	out := make([]byte, 8*seg)
	rcv := newRecvBuf(16 * seg)
	nxt := Seq(1000)
	cycle := func() {
		for k := 3; k >= 1; k-- { // arrive in reverse order, behind the hole
			if got := rcv.insert(nxt, nxt.Add(k*seg), payload); got != nxt {
				t.Fatalf("out-of-order insert moved rcv_nxt to %d", got)
			}
		}
		if len(rcv.ooo) != 3 {
			t.Fatalf("%d segments queued, want 3", len(rcv.ooo))
		}
		nxt = rcv.insert(nxt, nxt, payload)
		if len(rcv.ooo) != 0 || rcv.readable() != 4*seg {
			t.Fatalf("after the fill: %d queued, %d readable, want 0 and %d",
				len(rcv.ooo), rcv.readable(), 4*seg)
		}
		rcv.read(out)
	}
	cycle()
	if n := testing.AllocsPerRun(100, cycle); n != 0 {
		t.Errorf("hole-then-fill cycle: %v allocations a run, want 0", n)
	}
}

// Reused segment storage must not show through: overlapping, contained and
// covering out-of-order inserts reassemble to exactly the stream, cycle after
// cycle, and a queued segment never aliases the caller's bytes.
func TestReassemblyBytesWithReusedStorage(t *testing.T) {
	stream := make([]byte, 4000)
	for i := range stream {
		stream[i] = byte(i*7 + i>>8)
	}
	rcv := newRecvBuf(8192)
	base := Seq(0xFFFFF000) // wraps mid-stream
	for cycle := 0; cycle < 5; cycle++ {
		nxt := base
		ins := func(from, to int) {
			p := append([]byte(nil), stream[from:to]...)
			nxt = rcv.insert(nxt, base.Add(from), p)
			for i := range p {
				p[i] = 0xEE // the caller's buffer is recycled at once
			}
		}
		ins(1000, 1500) // behind a hole
		ins(2000, 2500) // a second island
		ins(1200, 1400) // contained in the first: dropped
		ins(1400, 2100) // overlaps both islands: trimmed to the gap
		ins(2400, 3000) // overlaps the second island's tail
		ins(900, 3200)  // covers everything queued: the islands are dropped
		ins(3500, 4000) // a last island
		if nxt != base {
			t.Fatalf("cycle %d: rcv_nxt moved before the hole was filled", cycle)
		}
		ins(0, 1000) // the fill: everything up to 3200 drains
		ins(3100, 3600)
		if want := base.Add(4000); nxt != want {
			t.Fatalf("cycle %d: rcv_nxt = %d, want %d", cycle, nxt, want)
		}
		got := make([]byte, 5000)
		got = got[:rcv.read(got)]
		if !bytes.Equal(got, stream) {
			t.Fatalf("cycle %d: reassembled %d bytes differ from the stream", cycle, len(got))
		}
		base = nxt
	}
}
