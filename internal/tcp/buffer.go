package tcp

import "slices"

// appendInPlace appends p to live, a window onto the backing array *buf,
// without allocating: behind the window if the array's tail has room, else
// after moving the window back to the array's start. Both buffers drop bytes
// from the front of their window, so a plain append would find the tail used
// up on every refill and reallocate. The array is made on first use, at
// socket-buffer size: a connection that carries no data never pays for it,
// one that does pays once. Slices of the old window are invalid afterwards.
func appendInPlace(buf *[]byte, live, p []byte, limit int) []byte {
	if need := len(live) + len(p); need > cap(live) {
		if need > len(*buf) {
			// First use, or live came from Restore and is not in *buf yet.
			*buf = make([]byte, max(need, limit))
		}
		live = (*buf)[:copy(*buf, live)]
	}
	return append(live, p...)
}

// sendBuf holds unacknowledged plus unsent stream bytes. Its origin tracks
// snd_una: bytes are appended by the application and dropped from the front
// as acknowledgments arrive. Retransmission reads by absolute sequence
// number.
type sendBuf struct {
	data  []byte // live bytes: a window onto buf (see appendInPlace)
	buf   []byte
	start Seq // sequence number of data[0]
	limit int // capacity (socket buffer size)
}

// init empties the buffer for a new connection, keeping the backing array.
func (b *sendBuf) init(limit int) { *b = sendBuf{buf: b.buf, limit: limit} }

// space returns how many more bytes the application may append.
func (b *sendBuf) space() int { return b.limit - len(b.data) }

// len returns the number of buffered bytes.
func (b *sendBuf) len() int { return len(b.data) }

// append adds as much of p as fits, returning the number accepted.
func (b *sendBuf) append(p []byte) int {
	n := b.space()
	if n > len(p) {
		n = len(p)
	}
	b.data = appendInPlace(&b.buf, b.data, p[:n], b.limit)
	return n
}

// read returns up to n bytes starting at absolute sequence seq (used by the
// output and retransmission paths). The slice aliases the buffer and is
// valid until the next append.
func (b *sendBuf) read(seq Seq, n int) []byte {
	off := seq.Diff(b.start)
	if off < 0 || off > len(b.data) {
		return nil
	}
	end := off + n
	if end > len(b.data) {
		end = len(b.data)
	}
	return b.data[off:end]
}

// ackTo drops bytes below una (they were acknowledged).
func (b *sendBuf) ackTo(una Seq) {
	drop := una.Diff(b.start)
	if drop <= 0 {
		return
	}
	if drop > len(b.data) {
		drop = len(b.data)
	}
	b.data = b.data[drop:]
	b.start = b.start.Add(drop)
}

// recvBuf holds in-order stream bytes ready for the application, plus a
// reassembly queue of out-of-order segments (the BSD seg_next queue).
type recvBuf struct {
	ready []byte // in-order data not yet read by the application: a window onto buf
	buf   []byte
	limit int

	// ooo is the reassembly queue, kept sorted and non-overlapping. Each
	// queued segment's bytes are a copy; spare holds the storage of segments
	// that left the queue, for the next one to arrive out of order.
	ooo   []oooSeg
	spare [][]byte
}

// maxOOO bounds the reassembly queue.
const maxOOO = 64

type oooSeg struct {
	seq  Seq
	data []byte
}

// init empties the buffer for a new connection, keeping the backing arrays.
func (b *recvBuf) init(limit int) {
	for i := range b.ooo {
		b.freeSeg(i)
	}
	*b = recvBuf{buf: b.buf, limit: limit, ooo: b.ooo[:0], spare: b.spare}
}

// holdSeg returns a copy of data in spare storage when a piece large enough
// is at hand, else in storage of its own.
func (b *recvBuf) holdSeg(data []byte) []byte {
	for i := len(b.spare) - 1; i >= 0; i-- {
		if d := b.spare[i]; cap(d) >= len(data) {
			b.spare[i] = b.spare[len(b.spare)-1]
			b.spare[len(b.spare)-1] = nil
			b.spare = b.spare[:len(b.spare)-1]
			return append(d[:0], data...)
		}
	}
	return append([]byte(nil), data...)
}

// freeSeg takes queued segment i's storage back, up to as many pieces as the
// queue may hold segments. The caller removes the entry.
func (b *recvBuf) freeSeg(i int) {
	if len(b.spare) < maxOOO {
		b.spare = append(b.spare, b.ooo[i].data)
	}
	b.ooo[i].data = nil
}

// dropOOO removes queued segment i, keeping its storage and the queue's.
func (b *recvBuf) dropOOO(i int) {
	b.freeSeg(i)
	b.ooo = slices.Delete(b.ooo, i, i+1)
}

// window returns the receive window to advertise: free buffer space.
func (b *recvBuf) window() int {
	w := b.limit - len(b.ready)
	if w < 0 {
		w = 0
	}
	return w
}

// queued reports whether the reassembly queue holds out-of-order data.
func (b *recvBuf) queued() bool { return len(b.ooo) > 0 }

// readable returns the number of in-order bytes available to the app.
func (b *recvBuf) readable() int { return len(b.ready) }

// read moves up to len(p) in-order bytes to the application.
func (b *recvBuf) read(p []byte) int {
	n := copy(p, b.ready)
	b.ready = b.ready[n:]
	return n
}

// insert accepts segment data beginning at seq, given the current rcv_nxt.
// It appends in-order data to ready, stores out-of-order data in the
// reassembly queue, and drains the queue as holes fill. It returns the new
// rcv_nxt.
func (b *recvBuf) insert(rcvNxt Seq, seq Seq, data []byte) Seq {
	if len(data) == 0 {
		return rcvNxt
	}
	if seq.Less(rcvNxt) {
		// Partial or full duplicate: trim the already-received prefix.
		dup := rcvNxt.Diff(seq)
		if dup >= len(data) {
			return rcvNxt
		}
		data = data[dup:]
		seq = rcvNxt
	}
	if seq == rcvNxt {
		data = b.capToWindow(data)
		b.ready = appendInPlace(&b.buf, b.ready, data, b.limit)
		rcvNxt = rcvNxt.Add(len(data))
		return b.drain(rcvNxt)
	}
	// Out of order: store (bounded by a generous multiple of the window to
	// prevent pathological memory use).
	if len(b.ooo) < maxOOO {
		b.insertOOO(seq, data)
	}
	return rcvNxt
}

// capToWindow limits in-order appends to the advertised window; a correct
// peer never exceeds it, but a faulty or malicious one must not grow our
// memory unboundedly.
func (b *recvBuf) capToWindow(data []byte) []byte {
	w := b.window()
	if len(data) > w {
		return data[:w]
	}
	return data
}

// insertOOO adds a segment to the sorted reassembly queue, merging overlaps
// conservatively (keeping existing bytes, as BSD does).
func (b *recvBuf) insertOOO(seq Seq, data []byte) {
	// Find insertion point.
	i := 0
	for i < len(b.ooo) && b.ooo[i].seq.Less(seq) {
		i++
	}
	// Trim against predecessor.
	if i > 0 {
		prevEnd := b.ooo[i-1].seq.Add(len(b.ooo[i-1].data))
		if seq.Less(prevEnd) {
			trim := prevEnd.Diff(seq)
			if trim >= len(data) {
				return // fully contained
			}
			data = data[trim:]
			seq = prevEnd
		}
	}
	// Trim against successors.
	for i < len(b.ooo) {
		nxt := b.ooo[i]
		end := seq.Add(len(data))
		if end.Leq(nxt.seq) {
			break
		}
		if nxt.seq.Add(len(nxt.data)).Leq(end) {
			// Successor fully covered by new data: drop it.
			b.dropOOO(i)
			continue
		}
		// Partial overlap: trim our tail.
		data = data[:nxt.seq.Diff(seq)]
		break
	}
	if len(data) == 0 {
		return
	}
	b.ooo = append(b.ooo, oooSeg{})
	copy(b.ooo[i+1:], b.ooo[i:])
	b.ooo[i] = oooSeg{seq: seq, data: b.holdSeg(data)}
}

// drain moves now-in-order segments from the reassembly queue to ready.
func (b *recvBuf) drain(rcvNxt Seq) Seq {
	for len(b.ooo) > 0 {
		s := b.ooo[0]
		if rcvNxt.Less(s.seq) {
			break
		}
		if end := s.seq.Add(len(s.data)); rcvNxt.Less(end) {
			d := b.capToWindow(s.data[rcvNxt.Diff(s.seq):])
			b.ready = appendInPlace(&b.buf, b.ready, d, b.limit)
			rcvNxt = rcvNxt.Add(len(d))
		}
		b.dropOOO(0)
	}
	return rcvNxt
}
