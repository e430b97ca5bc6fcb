package netio

import (
	"testing"
	"time"

	"ulp/internal/kern"
	"ulp/internal/link"
	"ulp/internal/netdev"
	"ulp/internal/pkt"
)

// statusOf reads the AN1 hardware ring status for slot-accounting asserts.
func statusOf(w *world, bqi uint16) (netdev.RingStatus, bool) {
	return w.m2.Device().(*netdev.AN1).RingStatus(bqi)
}

// TestZeroCopyDeliversByReference verifies the tentpole property: with
// ZeroCopyRx on, a matched frame reaches the library without the modeled
// kernel→region copy — zero copied bytes, the full frame accounted by
// reference, and only the fixed-size descriptor written into the shared
// region.
func TestZeroCopyDeliversByReference(t *testing.T) {
	w := newWorld(t, false)
	w.m2.ZeroCopyRx = true
	spec, tmpl := chanSpecAndTemplate(w, link.EthHeaderLen)
	_, ch, err := w.m2.CreateChannel(w.krn2, spec, tmpl, 8)
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("zero-copy payload")
	var got []*pkt.Buf
	w.app2.Spawn("reader", func(th *kern.Thread) { got = ch.Wait(th) })
	w.app1.Spawn("sender", func(th *kern.Thread) {
		w.m1.SendKernel(th, buildTCPFrame(w, link.EthHeaderLen, 1025, 80, payload))
	})
	w.s.Run(0)

	if len(got) != 1 {
		t.Fatalf("channel got %d packets, want 1", len(got))
	}
	frameLen := got[0].Len()
	if w.m2.copiedBytes != 0 {
		t.Fatalf("copied bytes = %d, want 0 on the zero-copy path", w.m2.copiedBytes)
	}
	if w.m2.referencedBytes != int64(frameLen) || w.m2.deliveredByRef != 1 {
		t.Fatalf("referenced=%d by_ref=%d, want %d/1", w.m2.referencedBytes, w.m2.deliveredByRef, frameLen)
	}
	if ch.ReferencedBytes != int64(frameLen) || ch.DeliveredByRef != 1 || ch.CopiedBytes != 0 {
		t.Fatalf("per-channel: referenced=%d by_ref=%d copied=%d", ch.ReferencedBytes, ch.DeliveredByRef, ch.CopiedBytes)
	}
	// The descriptor ring in the shared region holds (seq=1, len=frame).
	d := ch.Region.Buf[8:16] // posted=1 → slot 1
	seq := uint32(d[0])<<24 | uint32(d[1])<<16 | uint32(d[2])<<8 | uint32(d[3])
	dlen := uint32(d[4])<<24 | uint32(d[5])<<16 | uint32(d[6])<<8 | uint32(d[7])
	if seq != 1 || dlen != uint32(frameLen) {
		t.Fatalf("descriptor = (seq %d, len %d), want (1, %d)", seq, dlen, frameLen)
	}
	// The frame was handed over with the channel's lien still attached.
	if !got[0].Shared() {
		t.Fatal("delivered frame carries no channel lien")
	}
	got[0].Release()
}

// TestZeroCopyLienSettlesAtNextDrain verifies the lien protocol: the
// channel retains each handed-out frame until the next Wait/TryRecv, and a
// consumer that released its own reference leaves nothing outstanding once
// the next drain settles.
func TestZeroCopyLienSettlesAtNextDrain(t *testing.T) {
	pkt.SetLeakTracking(true)
	t.Cleanup(func() { pkt.SetLeakTracking(false) })
	w := newWorld(t, false)
	w.m2.ZeroCopyRx = true
	spec, tmpl := chanSpecAndTemplate(w, link.EthHeaderLen)
	_, ch, err := w.m2.CreateChannel(w.krn2, spec, tmpl, 8)
	if err != nil {
		t.Fatal(err)
	}
	w.app1.Spawn("sender", func(th *kern.Thread) {
		for i := 0; i < 3; i++ {
			w.m1.SendKernel(th, buildTCPFrame(w, link.EthHeaderLen, 1025, 80, []byte("pkt")))
		}
	})
	w.app2.SpawnAfter(50_000_000, "reader", func(th *kern.Thread) {
		batch := ch.Wait(th)
		for _, b := range batch {
			b.Release() // consumer's reference; the lien remains
		}
		if n := pkt.OutstandingCount(); n != len(batch) {
			t.Errorf("outstanding = %d, want %d (liens hold storage)", n, len(batch))
		}
		if got := ch.TryRecv(); len(got) != 0 {
			t.Errorf("unexpected second batch of %d", len(got))
		}
	})
	w.s.Run(0)
	if n := pkt.OutstandingCount(); n != 0 {
		t.Fatalf("%d buffers outstanding after settle:\n%s", n, pkt.FormatLeakReport())
	}
}

// TestZeroCopyDoorbellBudget verifies batched doorbells: a burst landing on
// a sleeping reader rings once on the empty→nonempty transition and then at
// most once per doorbellBudget descriptors, while DisableBatching still
// degrades to one ring per packet.
func TestZeroCopyDoorbellBudget(t *testing.T) {
	const burst = 2*doorbellBudget + 4
	run := func(noBatch bool) (*world, int) {
		w := newWorld(t, false)
		w.m2.ZeroCopyRx = true
		w.m2.DisableBatching = noBatch
		spec, tmpl := chanSpecAndTemplate(w, link.EthHeaderLen)
		_, ch, err := w.m2.CreateChannel(w.krn2, spec, tmpl, 32)
		if err != nil {
			t.Fatal(err)
		}
		w.app1.Spawn("sender", func(th *kern.Thread) {
			for i := 0; i < burst; i++ {
				w.m1.SendKernel(th, buildTCPFrame(w, link.EthHeaderLen, 1025, 80, []byte("pkt")))
			}
		})
		var batch []*pkt.Buf
		w.app2.SpawnAfter(50_000_000, "reader", func(th *kern.Thread) {
			batch = ch.Wait(th)
			for _, b := range batch {
				b.Release()
			}
		})
		w.s.Run(0)
		if len(batch) != burst {
			t.Fatalf("batch = %d packets, want %d", len(batch), burst)
		}
		return w, ch.Notifications
	}

	// Budget 8 over a 20-packet burst: doorbells at packets 1, 9, 17.
	if _, n := run(false); n != 3 {
		t.Fatalf("batched doorbells = %d, want 3 (budget %d, burst %d)", n, doorbellBudget, burst)
	}
	if _, n := run(true); n != burst {
		t.Fatalf("DisableBatching doorbells = %d, want %d", n, burst)
	}
}

// TestQuarantineMidBurstReleasesSlotsAndBufs is the AN1 release-accounting
// regression: frames queued before quarantine onset hold hardware ring
// slots that the drain must return one per frame, and frames suppressed
// after onset must return slot and buffer at the drop point. Before the
// per-frame Meta.BQI accounting, the drop path leaked its slot forever —
// a quarantined endpoint permanently shrank its hardware ring.
func TestQuarantineMidBurstReleasesSlotsAndBufs(t *testing.T) {
	pkt.SetLeakTracking(true)
	t.Cleanup(func() { pkt.SetLeakTracking(false) })
	w := newWorld(t, true)
	w.m2.EnableLeases(10 * time.Millisecond)
	spec, tmpl := chanSpecAndTemplate(w, link.AN1HeaderLen)
	_, ch, err := w.m2.CreateChannel(w.krn2, spec, tmpl, 8)
	if err != nil {
		t.Fatal(err)
	}
	send := func(th *kern.Thread) {
		b := buildTCPFrame(w, link.AN1HeaderLen, 1025, 80, []byte("burst"))
		raw := b.Bytes()
		raw[12] = byte(ch.BQI() >> 8)
		raw[13] = byte(ch.BQI())
		w.m1.SendKernel(th, b)
	}
	// Three frames land before the lease expires and sit in the ring.
	w.app1.Spawn("early", func(th *kern.Thread) {
		for i := 0; i < 3; i++ {
			send(th)
		}
	})
	// Three more arrive after expiry (no renewal): quarantine-dropped.
	w.app1.SpawnAfter(50_000_000, "late", func(th *kern.Thread) {
		for i := 0; i < 3; i++ {
			send(th)
		}
	})
	w.s.Run(0)

	if ch.Quarantined != 3 {
		t.Fatalf("quarantined = %d, want 3", ch.Quarantined)
	}
	// The three queued frames still occupy their slots; the three dropped
	// ones must not.
	if st, ok := statusOf(w, ch.BQI()); !ok || st.InUse != 3 {
		t.Fatalf("ring InUse = %d before drain, want 3 (drops leaked slots?)", st.InUse)
	}
	// Drain across quarantine onset: per-frame slot release.
	batch := ch.TryRecv()
	if len(batch) != 3 {
		t.Fatalf("drained %d frames, want 3", len(batch))
	}
	if st, ok := statusOf(w, ch.BQI()); !ok || st.InUse != 0 {
		t.Fatalf("ring InUse = %d after drain, want 0", st.InUse)
	}
	for _, b := range batch {
		b.Release()
	}
	if n := pkt.OutstandingCount(); n != 0 {
		t.Fatalf("%d pkt.Buf leaked across quarantine onset:\n%s", n, pkt.FormatLeakReport())
	}
}

// TestZeroCopyQuarantineSweepsAndPoisons verifies revocation safety for a
// live but distrusting tenant: at quarantine onset the channel's liens on
// frames the application still holds are reclaimed and the bytes scrubbed,
// so an expired endpoint can keep no data it no longer has a right to.
func TestZeroCopyQuarantineSweepsAndPoisons(t *testing.T) {
	pkt.SetLeakTracking(true)
	t.Cleanup(func() { pkt.SetLeakTracking(false) })
	w := newWorld(t, false)
	w.m2.ZeroCopyRx = true
	w.m2.EnableLeases(10 * time.Millisecond)
	spec, tmpl := chanSpecAndTemplate(w, link.EthHeaderLen)
	_, ch, err := w.m2.CreateChannel(w.krn2, spec, tmpl, 8)
	if err != nil {
		t.Fatal(err)
	}
	var held []*pkt.Buf
	w.app1.Spawn("early", func(th *kern.Thread) {
		w.m1.SendKernel(th, buildTCPFrame(w, link.EthHeaderLen, 1025, 80, []byte("secret")))
	})
	w.app2.SpawnAfter(2_000_000, "reader", func(th *kern.Thread) {
		held = ch.Wait(th) // tenant keeps the references past its lease
	})
	// A frame arriving after expiry triggers the quarantine sweep.
	w.app1.SpawnAfter(50_000_000, "late", func(th *kern.Thread) {
		w.m1.SendKernel(th, buildTCPFrame(w, link.EthHeaderLen, 1025, 80, []byte("post-lease")))
	})
	w.s.Run(0)

	if len(held) != 1 {
		t.Fatalf("tenant holds %d frames, want 1", len(held))
	}
	for _, v := range held[0].Bytes() {
		if v != 0 {
			t.Fatal("quarantine sweep did not scrub the tenant's frame")
		}
	}
	if held[0].Shared() {
		t.Fatal("channel lien survived the quarantine sweep")
	}
	held[0].Release() // tenant's own reference still releases cleanly
	if n := pkt.OutstandingCount(); n != 0 {
		t.Fatalf("%d buffers outstanding after sweep:\n%s", n, pkt.FormatLeakReport())
	}
}

// TestZeroCopyDestroySweepsInflight verifies teardown reclamation: a
// channel destroyed while its last batch is still out (crashed application)
// releases both the queued frames and its liens, leaving the pool clean and
// the region unpinned.
func TestZeroCopyDestroySweepsInflight(t *testing.T) {
	pkt.SetLeakTracking(true)
	t.Cleanup(func() { pkt.SetLeakTracking(false) })
	w := newWorld(t, false)
	w.m2.ZeroCopyRx = true
	spec, tmpl := chanSpecAndTemplate(w, link.EthHeaderLen)
	cap, ch, err := w.m2.CreateChannel(w.krn2, spec, tmpl, 8)
	if err != nil {
		t.Fatal(err)
	}
	var held []*pkt.Buf
	w.app1.Spawn("sender", func(th *kern.Thread) {
		for i := 0; i < 4; i++ {
			w.m1.SendKernel(th, buildTCPFrame(w, link.EthHeaderLen, 1025, 80, []byte("pkt")))
		}
	})
	w.app2.SpawnAfter(10_000_000, "reader", func(th *kern.Thread) {
		held = ch.Wait(th)
		// The app "crashes" here: its own references go through the usual
		// kill-path deferred release, but it never drains again — so the
		// channel's liens on this batch can only be reclaimed by the
		// destroy sweep.
		for _, b := range held {
			b.Release()
		}
	})
	w.s.Run(0)
	if len(held) != 4 {
		t.Fatalf("reader got %d frames, want 4", len(held))
	}
	if err := w.m2.DestroyChannel(w.krn2, cap); err != nil {
		t.Fatal(err)
	}
	if n := pkt.OutstandingCount(); n != 0 {
		t.Fatalf("%d buffers outstanding after destroy sweep:\n%s", n, pkt.FormatLeakReport())
	}
	if w.m2.PinnedRegions() != 0 {
		t.Fatalf("pinned regions = %d after destroy", w.m2.PinnedRegions())
	}
}
