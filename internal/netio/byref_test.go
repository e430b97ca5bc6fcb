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

// TestZeroCopyDeliversByReference verifies the one receive path and the
// device rule on it: on either device a matched frame reaches the library
// as the pool buffer itself, with the channel's lien attached and its
// descriptor posted in the shared region's ring. The copy into the region
// is the device's to charge — the LANCE's software demux path copies the
// frame, the AN1 has DMAed it there and copies nothing.
func TestZeroCopyDeliversByReference(t *testing.T) {
	for _, an1 := range []bool{false, true} {
		w := newWorld(t, an1)
		hdrLen := link.EthHeaderLen
		if an1 {
			hdrLen = link.AN1HeaderLen
		}
		spec, tmpl := chanSpecAndTemplate(w, hdrLen)
		_, ch, err := w.m2.CreateChannel(w.krn2, spec, tmpl, 8)
		if err != nil {
			t.Fatal(err)
		}
		var got []*pkt.Buf
		w.app2.Spawn("reader", func(th *kern.Thread) { got = wait(th, ch) })
		w.app1.Spawn("sender", func(th *kern.Thread) {
			b := buildTCPFrame(w, hdrLen, 1025, 80, []byte("by-reference payload"))
			if an1 {
				raw := b.Bytes()
				raw[12], raw[13] = byte(ch.BQI()>>8), byte(ch.BQI())
			}
			w.m1.SendKernel(th, b)
		})
		w.s.Run(0)

		if len(got) != 1 {
			t.Fatalf("an1 %v: channel got %d packets, want 1", an1, len(got))
		}
		frameLen := got[0].Len()
		if !got[0].Shared() {
			t.Fatalf("an1 %v: delivered frame carries no channel lien", an1)
		}
		// The descriptor ring in the shared region holds (seq=1, len=frame).
		d := ch.Region.Buf[8:16] // posted=1 → slot 1
		seq := uint32(d[0])<<24 | uint32(d[1])<<16 | uint32(d[2])<<8 | uint32(d[3])
		dlen := uint32(d[4])<<24 | uint32(d[5])<<16 | uint32(d[6])<<8 | uint32(d[7])
		if seq != 1 || dlen != uint32(frameLen) {
			t.Fatalf("an1 %v: descriptor = (seq %d, len %d), want (1, %d)", an1, seq, dlen, frameLen)
		}
		want := int64(frameLen)
		if an1 {
			want = 0
		}
		if w.m2.copiedBytes != want || ch.CopiedBytes != want {
			t.Fatalf("an1 %v: copied %d bytes (channel %d), want %d", an1, w.m2.copiedBytes, ch.CopiedBytes, want)
		}
		got[0].Release()
	}
}

// TestZeroCopyLienSettlesAtNextDrain verifies the lien protocol: the
// channel retains each handed-out frame until the next Wait/TryRecv, and a
// consumer that released its own reference leaves nothing outstanding once
// the next drain settles.
func TestZeroCopyLienSettlesAtNextDrain(t *testing.T) {
	pkt.SetLeakTracking(true)
	t.Cleanup(func() { pkt.SetLeakTracking(false) })
	w := newWorld(t, false)
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
		batch := wait(th, ch)
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

// TestQuarantineMidBurstReleasesSlotsAndBufs is the AN1 release-accounting
// rule for quarantine: at onset the channel gives back everything it holds
// for the tenant — its liens on the batch the tenant drained (the bytes
// scrubbed), and the frames queued but not drained, each with its hardware
// ring slot — and every frame suppressed after onset returns slot and
// buffer at the drop point. A slot missed anywhere would shrink the
// endpoint's hardware ring for good; a buffer missed would leak.
func TestQuarantineMidBurstReleasesSlotsAndBufs(t *testing.T) {
	pkt.SetLeakTracking(true)
	t.Cleanup(func() { pkt.SetLeakTracking(false) })
	w := newWorld(t, true)
	issuer := w.h2.NewDomain("registry", true)
	spec, tmpl := chanSpecAndTemplate(w, link.AN1HeaderLen)
	_, ch, err := w.m2.CreateChannel(issuer, spec, tmpl, 8)
	if err != nil {
		t.Fatal(err)
	}
	const killAt = 10 * time.Millisecond
	w.s.After(killAt, issuer.Kill)
	burst := func(at time.Duration, n int) {
		w.app1.SpawnAfter(at, "burst", func(th *kern.Thread) {
			for i := 0; i < n; i++ {
				b := buildTCPFrame(w, link.AN1HeaderLen, 1025, 80, []byte("burst"))
				raw := b.Bytes()
				raw[12], raw[13] = byte(ch.BQI()>>8), byte(ch.BQI())
				w.m1.SendKernel(th, b)
			}
		})
	}
	// Two frames are drained and kept, three more sit in the ring, and
	// three arrive once the issuer has been dead for IssuerGrace.
	var held []*pkt.Buf
	burst(0, 2)
	w.app2.SpawnAfter(2*time.Millisecond, "reader", func(th *kern.Thread) { held = wait(th, ch) })
	burst(5*time.Millisecond, 3)
	w.s.Run(9 * time.Millisecond)
	if len(held) != 2 || ch.Pending() != 3 {
		t.Fatalf("before onset: %d frames drained, %d queued, want 2 and 3", len(held), ch.Pending())
	}
	if st, ok := statusOf(w, ch.BQI()); !ok || st.InUse != 3 {
		t.Fatalf("ring InUse = %d before onset, want 3 (one per queued frame)", st.InUse)
	}
	burst(killAt+IssuerGrace, 3)
	w.s.Run(0)

	if ch.Quarantined != 3 {
		t.Fatalf("quarantined = %d, want 3", ch.Quarantined)
	}
	if ch.Pending() != 0 {
		t.Fatalf("%d frames still queued after quarantine onset", ch.Pending())
	}
	if st, ok := statusOf(w, ch.BQI()); !ok || st.InUse != 0 {
		t.Fatalf("ring InUse = %d after quarantine, want 0 (slots leaked)", st.InUse)
	}
	for _, b := range held {
		if b.Shared() {
			t.Fatal("channel lien survived quarantine onset")
		}
		for _, v := range b.Bytes() {
			if v != 0 {
				t.Fatal("quarantine onset did not scrub a drained frame")
			}
		}
		b.Release() // the tenant's own reference
	}
	if n := pkt.OutstandingCount(); n != 0 {
		t.Fatalf("%d pkt.Buf leaked across quarantine onset:\n%s", n, pkt.FormatLeakReport())
	}
}

// TestZeroCopyQuarantineSweepsAndPoisons verifies revocation safety for a
// live but distrusting tenant: at quarantine onset the channel's liens on
// frames the application still holds are reclaimed and the bytes scrubbed,
// so a quarantined endpoint can keep no data it no longer has a right to.
func TestZeroCopyQuarantineSweepsAndPoisons(t *testing.T) {
	pkt.SetLeakTracking(true)
	t.Cleanup(func() { pkt.SetLeakTracking(false) })
	w := newWorld(t, false)
	issuer := w.h2.NewDomain("registry", true)
	spec, tmpl := chanSpecAndTemplate(w, link.EthHeaderLen)
	_, ch, err := w.m2.CreateChannel(issuer, spec, tmpl, 8)
	if err != nil {
		t.Fatal(err)
	}
	const killAt = 10 * time.Millisecond
	w.s.After(killAt, issuer.Kill)
	var held []*pkt.Buf
	w.app1.Spawn("early", func(th *kern.Thread) {
		w.m1.SendKernel(th, buildTCPFrame(w, link.EthHeaderLen, 1025, 80, []byte("secret")))
	})
	w.app2.SpawnAfter(2_000_000, "reader", func(th *kern.Thread) {
		held = wait(th, ch) // tenant keeps the references past quarantine onset
	})
	// A frame arriving after onset triggers the quarantine sweep.
	w.app1.SpawnAfter(killAt+IssuerGrace, "late", func(th *kern.Thread) {
		w.m1.SendKernel(th, buildTCPFrame(w, link.EthHeaderLen, 1025, 80, []byte("post-quarantine")))
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
		held = wait(th, ch)
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
