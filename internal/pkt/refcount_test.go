package pkt

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
)

// TestRetainKeepsStorageAlive verifies the refcount contract: with an extra
// reference held, one Release only decrements, the storage stays out of the
// free lists, and the final Release recycles it.
func TestRetainKeepsStorageAlive(t *testing.T) {
	drain()
	b := New(0, 100)
	stored := &b.data[0]
	for i := range b.Bytes() {
		b.Bytes()[i] = 0x7E
	}
	b.Retain()
	if !b.Shared() || b.refs != 1 {
		t.Fatalf("after Retain: Shared=%v Refs=%d, want true/1", b.Shared(), b.refs)
	}

	b.Release() // consumer's reference
	if b.Shared() {
		t.Fatal("still shared after dropping one of two references")
	}
	// Storage must not have been recycled: an allocation of the same class
	// must not alias the retained buffer.
	other := New(0, 100)
	if &other.data[0] == stored {
		t.Fatal("retained buffer's storage was recycled early")
	}
	for _, v := range b.Bytes() {
		if v != 0x7E {
			t.Fatal("retained buffer's bytes damaged while a reference was live")
		}
	}
	other.Release()

	b.Release() // final reference frees
	c := New(0, 100)
	if &c.data[0] != stored {
		t.Fatal("final Release did not return storage to the free list")
	}
	c.Release()
}

// TestDoubleReleasePanicsWithSite verifies the over-release panic names the
// buffer's acquisition site when leak tracking is on — the graveyard keeps
// the site after the final Release exactly for this message.
func TestDoubleReleasePanicsWithSite(t *testing.T) {
	SetLeakTracking(true)
	defer SetLeakTracking(false)
	b := New(0, 16)
	b.Release()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("double Release did not panic")
		}
		msg, ok := r.(string)
		if !ok || !strings.Contains(msg, "released twice") {
			t.Fatalf("unexpected panic: %v", r)
		}
		if !strings.Contains(msg, "refcount_test.go") {
			t.Fatalf("panic does not name the acquisition site:\n%s", msg)
		}
	}()
	b.Release()
}

// TestRetainAfterReleasePanicsWithSite verifies resurrection is rejected —
// a released buffer's storage may already belong to someone else — and the
// panic names where the buffer came from.
func TestRetainAfterReleasePanicsWithSite(t *testing.T) {
	SetLeakTracking(true)
	defer SetLeakTracking(false)
	b := New(0, 16)
	b.Release()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("Retain after Release did not panic")
		}
		msg, ok := r.(string)
		if !ok || !strings.Contains(msg, "Retain after Release") {
			t.Fatalf("unexpected panic: %v", r)
		}
		if !strings.Contains(msg, "refcount_test.go") {
			t.Fatalf("panic does not name the acquisition site:\n%s", msg)
		}
	}()
	b.Retain()
}

// TestPoisonScrubs verifies revocation scrubbing: the bytes go to zero in
// place (every live reference sees the scrub), and poisoning an
// already-released buffer is a tolerated no-op.
func TestPoisonScrubs(t *testing.T) {
	b := FromBytes(4, []byte{1, 2, 3, 4})
	b.Retain()
	view := b.Bytes()
	b.Poison()
	if !bytes.Equal(view, []byte{0, 0, 0, 0}) {
		t.Fatalf("poisoned bytes = %v, want zeros", view)
	}
	b.Release()
	b.Release()
	b.Poison() // released: must not touch recycled storage, must not panic
}

// TestRefcountInterleavingSeeded is the fuzz-style lifecycle test riding
// the determinism suite's seeds: a seeded schedule retains and releases a
// buffer population in random interleavings, and whatever the order, the
// leak tracker must read zero outstanding at the end and the pool's
// get/put books must balance.
func TestRefcountInterleavingSeeded(t *testing.T) {
	for _, seed := range []int64{7, 42, 17} {
		rng := rand.New(rand.NewSource(seed))
		SetLeakTracking(true)
		base := Counters()

		// pending holds one entry per obligation to Release: buffers enter
		// with one (ownership) and gain one per Retain.
		var pending []*Buf
		gets := 0
		for step := 0; step < 2000; step++ {
			switch op := rng.Intn(4); {
			case op == 0 || len(pending) == 0:
				b := New(rng.Intn(40), rng.Intn(1400))
				gets++
				pending = append(pending, b)
			case op == 1:
				i := rng.Intn(len(pending))
				pending[i].Retain()
				pending = append(pending, pending[i])
			default:
				// Release a random obligation; swap-remove keeps the
				// schedule order-free.
				i := rng.Intn(len(pending))
				b := pending[i]
				pending[i] = pending[len(pending)-1]
				pending = pending[:len(pending)-1]
				b.Release()
			}
		}
		for _, b := range pending {
			b.Release()
		}

		if n := OutstandingCount(); n != 0 {
			t.Fatalf("seed %d: %d buffers outstanding:\n%s", seed, n, FormatLeakReport())
		}
		c := Counters()
		if got := c.Gets - base.Gets; got != int64(gets) {
			t.Fatalf("seed %d: pool gets %d, want %d", seed, got, gets)
		}
		if c.Puts-base.Puts != int64(gets) {
			t.Fatalf("seed %d: pool puts %d, want %d (refcounted releases must balance)", seed, c.Puts-base.Puts, gets)
		}
		SetLeakTracking(false)
	}
}
