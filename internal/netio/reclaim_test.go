package netio

import (
	"testing"

	"ulp/internal/kern"
	"ulp/internal/link"
	"ulp/internal/pkt"
)

// RevokeOwner reclaims everything issued to one domain — capabilities,
// demux bindings, pinned regions — and leaves other owners untouched.
func TestRevokeOwner(t *testing.T) {
	w := newWorld(t, false)
	spec, tmpl := chanSpecAndTemplate(w, link.EthHeaderLen)
	cap1, _, err := w.m2.CreateChannel(w.krn2, spec, tmpl, 8)
	if err != nil {
		t.Fatal(err)
	}
	spec2 := spec
	spec2.LocalPort = 81
	tmpl2 := tmpl
	tmpl2.LocalPort = 81
	cap2, _, err := w.m2.CreateChannel(w.krn2, spec2, tmpl2, 8)
	if err != nil {
		t.Fatal(err)
	}

	other := w.h2.NewDomain("other", false)
	if err := w.m2.AssignOwner(w.app2, cap1, w.app2); err == nil {
		t.Fatal("unprivileged owner assignment allowed")
	}
	if err := w.m2.AssignOwner(w.krn2, cap1, w.app2); err != nil {
		t.Fatal(err)
	}
	if err := w.m2.AssignOwner(w.krn2, cap2, other); err != nil {
		t.Fatal(err)
	}
	if got := w.m2.LiveCapabilities(w.app2); got != 1 {
		t.Fatalf("app2 capabilities = %d, want 1", got)
	}
	pinnedBefore := w.m2.PinnedRegions()

	n, err := w.m2.RevokeOwner(w.krn2, w.app2)
	if err != nil || n != 1 {
		t.Fatalf("RevokeOwner = %d, %v; want 1, nil", n, err)
	}
	if got := w.m2.LiveCapabilities(w.app2); got != 0 {
		t.Fatalf("app2 capabilities after revoke = %d, want 0", got)
	}
	if got := w.m2.LiveCapabilities(other); got != 1 {
		t.Fatalf("other's capabilities = %d, want 1 (must survive)", got)
	}
	if got := w.m2.PinnedRegions(); got != pinnedBefore-1 {
		t.Fatalf("pinned regions = %d, want %d", got, pinnedBefore-1)
	}
	if got := w.m2.SoftwareBindings(); got != 1 {
		t.Fatalf("software bindings = %d, want 1", got)
	}
	// The revoked capability can no longer send.
	var sendErr error
	w.app2.Spawn("s", func(th *kern.Thread) {
		sendErr = w.m2.Send(th, cap1, buildTCPFrame(w, link.EthHeaderLen, 80, 1025, nil))
	})
	w.s.Run(0)
	if sendErr != ErrBadCapability {
		t.Fatalf("revoked capability send err = %v, want ErrBadCapability", sendErr)
	}
}

// A full ring is accounted as an overflow episode and prods the consumer
// with an extra notification instead of dropping silently.
func TestOverflowAccounting(t *testing.T) {
	w := newWorld(t, false)
	spec, tmpl := chanSpecAndTemplate(w, link.EthHeaderLen)
	_, ch, err := w.m2.CreateChannel(w.krn2, spec, tmpl, 2)
	if err != nil {
		t.Fatal(err)
	}
	w.app1.Spawn("sender", func(th *kern.Thread) {
		for i := 0; i < 6; i++ {
			w.m1.SendKernel(th, buildTCPFrame(w, link.EthHeaderLen, 1025, 80, []byte("pkt")))
		}
	})
	w.s.Run(0)
	if ch.Dropped != 4 {
		t.Fatalf("dropped = %d, want 4", ch.Dropped)
	}
	if ch.Overflows != 1 {
		t.Fatalf("overflow episodes = %d, want 1 (a burst is one episode)", ch.Overflows)
	}
	if w.m2.RxDropped != 4 {
		t.Fatalf("module RxDropped = %d, want 4", w.m2.RxDropped)
	}
	if ch.HighWater != 2 {
		t.Fatalf("high-water = %d, want 2", ch.HighWater)
	}
	// The ring-full prod: one notification for the enqueue transition plus
	// one for the overflow episode.
	if ch.Notifications != 2 {
		t.Fatalf("notifications = %d, want 2", ch.Notifications)
	}

	// Draining and refilling starts a new episode.
	var batch []*pkt.Buf
	w.app2.Spawn("reader", func(th *kern.Thread) { batch = ch.TryRecv() })
	w.app1.Spawn("sender2", func(th *kern.Thread) {
		for i := 0; i < 3; i++ {
			w.m1.SendKernel(th, buildTCPFrame(w, link.EthHeaderLen, 1025, 80, []byte("pkt")))
		}
	})
	w.s.Run(0)
	if len(batch) != 2 {
		t.Fatalf("drained %d, want 2", len(batch))
	}
	if ch.Overflows != 2 {
		t.Fatalf("overflow episodes = %d, want 2 after refill", ch.Overflows)
	}
}

// PinnedRegions follows the wired population through every way a region
// comes and goes: create, orderly destroy (a second destroy of the same
// capability changes nothing), a set-up that fails for want of a BQI after
// the region was wired, and the crash sweep. The backing store is the
// descriptor ring alone, whatever size the region models.
func TestPinnedRegionsAccounting(t *testing.T) {
	w := newWorld(t, true)
	spec, tmpl := chanSpecAndTemplate(w, link.AN1HeaderLen)
	create := func(port uint16) (*Capability, *Channel) {
		t.Helper()
		spec.LocalPort, tmpl.LocalPort = port, port
		cap, ch, err := w.m2.CreateChannel(w.krn2, spec, tmpl, 8)
		if err != nil {
			t.Fatal(err)
		}
		return cap, ch
	}
	pinned := func(want int, when string) {
		t.Helper()
		if got := w.m2.PinnedRegions(); got != want {
			t.Fatalf("pinned regions %s = %d, want %d", when, got, want)
		}
	}

	cap1, ch1 := create(80)
	cap2, _ := create(81)
	cap3, _ := create(82)
	pinned(3, "after three creates")
	if got, want := len(ch1.Region.Buf), 8*8; got != want {
		t.Fatalf("region backing = %d bytes, want the %d-byte descriptor ring", got, want)
	}

	if err := w.m2.DestroyChannel(w.krn2, cap1); err != nil {
		t.Fatal(err)
	}
	pinned(2, "after a destroy")
	if ch1.Region.Pinned() {
		t.Fatal("destroyed channel's region still pinned")
	}
	if err := w.m2.DestroyChannel(w.krn2, cap1); err != ErrBadCapability {
		t.Fatalf("second destroy err = %v, want ErrBadCapability", err)
	}
	pinned(2, "after a repeated destroy")

	// Exhaust the ring-index space: the next create wires its region, fails
	// to get a BQI, and must leave nothing pinned behind.
	w.m2.freeBQI, w.m2.nextBQI = nil, 0xFFFF
	spec.LocalPort, tmpl.LocalPort = 83, 83
	if _, _, err := w.m2.CreateChannel(w.krn2, spec, tmpl, 8); err != ErrBQIExhausted {
		t.Fatalf("create with no BQI left: err = %v, want ErrBQIExhausted", err)
	}
	pinned(2, "after a failed create")

	for _, c := range []*Capability{cap2, cap3} {
		if err := w.m2.AssignOwner(w.krn2, c, w.app2); err != nil {
			t.Fatal(err)
		}
	}
	if n, err := w.m2.RevokeOwner(w.krn2, w.app2); n != 2 || err != nil {
		t.Fatalf("RevokeOwner = %d, %v; want 2, nil", n, err)
	}
	pinned(0, "after the crash sweep")
}
