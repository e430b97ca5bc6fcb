package pkt

import "sync"

// The allocator keeps per-size-class free lists of buffer storage and of Buf
// structs, so the steady-state packet path performs no heap allocation: a
// released buffer's storage is recycled by the next New/FromBytes/Clone of a
// compatible size. Classes cover the stack's real frame population — control
// segments (bare headers), Ethernet MTU frames, and AN1 jumbo frames.
//
// Lifecycle rules (see DESIGN.md §7c "Buffer ownership and by-reference
// receive"):
//
//   - Exactly one owner at a time. Passing a buffer to Transmit/Deliver
//     transfers ownership; cloning creates an independently owned copy.
//   - Retain adds an extra reference; each reference is balanced by its own
//     Release. The storage returns to the free list only when the final
//     reference releases, so a receive channel can lien a buffer while the
//     application still reads it.
//   - The holder at a packet's death point calls Release. Releasing more
//     times than references exist, or touching a buffer (or any slice
//     obtained from it) after the final Release, is a lifecycle bug; the
//     extra release panics with the buffer's acquisition site when leak
//     tracking is on.
//   - Recycled storage is zeroed on reallocation, so a leaked reference can
//     never observe another packet's bytes and New's documented "payload
//     region is zeroed" contract holds.
//
// The free lists are guarded by a mutex (cheap, uncontended in the
// single-threaded engine; safe for parallel tests running multiple sims).

// classSizes are the storage capacities, smallest first. The largest covers
// a 64 KB AN1 jumbo frame plus link/IP/TCP headers and headroom slack.
var classSizes = [...]int{256, 2048, 16384, 66560}

type freeLists struct {
	mu   sync.Mutex
	data [len(classSizes)][][]byte
	bufs []*Buf

	// Lifetime counters for the stats layer, guarded by mu. Process-wide
	// (the pool is shared by every world in a process); consumers that
	// want per-scenario numbers snapshot a baseline and subtract.
	gets       int64
	puts       int64
	recycled   int64 // gets served from a free list
	heapAllocs int64 // gets that had to allocate storage
}

var pool freeLists

// PoolCounters is a snapshot of the allocator's lifetime activity.
type PoolCounters struct {
	Gets       int64 // buffers handed out
	Puts       int64 // buffers released
	Recycled   int64 // gets served by recycling free-list storage
	HeapAllocs int64 // gets that allocated fresh storage
}

// Counters returns the allocator's lifetime counters.
func Counters() PoolCounters {
	pool.mu.Lock()
	defer pool.mu.Unlock()
	return PoolCounters{Gets: pool.gets, Puts: pool.puts, Recycled: pool.recycled, HeapAllocs: pool.heapAllocs}
}

// classFor returns the smallest class index fitting n bytes, or -1 when n
// exceeds every class (the buffer is then heap-allocated and not recycled).
func classFor(n int) int8 {
	for i, c := range classSizes {
		if n <= c {
			return int8(i)
		}
	}
	return -1
}

// getBuf produces a Buf whose storage holds at least size bytes, recycled
// when possible. data is sized to exactly size bytes and is NOT zeroed;
// callers overwrite or zero it.
func getBuf(size int) *Buf {
	cls := classFor(size)
	var b *Buf
	var data []byte
	pool.mu.Lock()
	pool.gets++
	if n := len(pool.bufs); n > 0 {
		b = pool.bufs[n-1]
		pool.bufs[n-1] = nil
		pool.bufs = pool.bufs[:n-1]
	}
	if cls >= 0 {
		if lst := pool.data[cls]; len(lst) > 0 {
			data = lst[len(lst)-1]
			lst[len(lst)-1] = nil
			pool.data[cls] = lst[:len(lst)-1]
		}
	}
	if data != nil {
		pool.recycled++
	} else {
		pool.heapAllocs++
	}
	pool.mu.Unlock()
	if data == nil {
		if cls >= 0 {
			data = make([]byte, classSizes[cls])
		} else {
			data = make([]byte, size)
		}
	}
	if b == nil {
		b = &Buf{}
	}
	*b = Buf{data: data[:size], cls: cls}
	leakTrackGet(b)
	return b
}

// putData returns a storage slice of class cls to its free list.
func putData(data []byte, cls int8) {
	if cls < 0 {
		return
	}
	data = data[:cap(data)]
	pool.mu.Lock()
	pool.data[cls] = append(pool.data[cls], data)
	pool.mu.Unlock()
}

// Release drops one reference. While extra references exist (Retain), it
// only decrements; the final Release returns the storage to the allocator,
// after which the caller must not touch the buffer (or any slice obtained
// from it). Releasing past the final reference panics: it would hand the
// same storage to two owners.
func (b *Buf) Release() {
	if b.released {
		panic("pkt: buffer released twice" + leakSiteOf(b))
	}
	if b.refs > 0 {
		b.refs--
		return
	}
	b.released = true
	data, cls := b.data, b.cls
	b.data = nil
	leakTrackPut(b)
	pool.mu.Lock()
	pool.puts++
	if cls >= 0 {
		pool.data[cls] = append(pool.data[cls], data[:cap(data)])
	}
	pool.bufs = append(pool.bufs, b)
	pool.mu.Unlock()
}

// zero clears p (the compiler lowers this loop to memclr).
func zero(p []byte) {
	for i := range p {
		p[i] = 0
	}
}
