package netio

import (
	"testing"

	"ulp/internal/kern"
	"ulp/internal/link"
)

// A destroyed channel's record goes to the next endpoint only when the
// module provably holds the last reference to it: the consumer disowned the
// channel, nobody sleeps on its semaphore and no wakeup is on its way. The
// capability is never reused, so a stale one stays fenced however often its
// channel's record has been.
func TestChannelRecordsAreReused(t *testing.T) {
	for _, an1 := range []bool{false, true} {
		w := newWorld(t, an1)
		hdrLen := link.EthHeaderLen
		if an1 {
			hdrLen = link.AN1HeaderLen
		}
		spec, tmpl := chanSpecAndTemplate(w, hdrLen)
		create := func(port uint16) (*Capability, *Channel) {
			t.Helper()
			spec.LocalPort, tmpl.LocalPort = port, port
			cap, ch, err := w.m2.CreateChannel(w.krn2, spec, tmpl, 8)
			if err != nil {
				t.Fatal(err)
			}
			return cap, ch
		}
		destroy := func(cap *Capability) {
			t.Helper()
			if err := w.m2.DestroyChannel(w.krn2, cap); err != nil {
				t.Fatal(err)
			}
		}

		// Never disowned: the record is the collector's, intact for whoever
		// still looks at it.
		cap1, ch1 := create(80)
		destroy(cap1)
		if w.m2.free.Len() != 0 || ch1.Region == nil || cap1.Chan() != nil {
			t.Fatalf("an1=%v: a channel nobody disowned was put up for reuse", an1)
		}

		// Disowned, but its consumer is asleep on the semaphore (a thread
		// that was killed would look the same): not reused either.
		cap2, ch2 := create(81)
		w.app2.Spawn("sleeper", func(th *kern.Thread) { ch2.Wait(th) })
		w.s.Run(0)
		ch2.Disown()
		destroy(cap2)
		if w.m2.free.Len() != 0 {
			t.Fatalf("an1=%v: a channel with a sleeping consumer was put up for reuse", an1)
		}

		// Disowned and quiet: the next endpoint is made from the record.
		cap3, ch3 := create(82)
		ch3.Disown()
		destroy(cap3)
		if w.m2.free.Len() != 1 {
			t.Fatalf("an1=%v: %d records free after a disowned channel was destroyed, want 1", an1, w.m2.free.Len())
		}
		if ch3.Region != nil || ch3.sem != nil || ch3.mod != nil || ch3.rec != nil {
			t.Fatalf("an1=%v: free record not scrubbed: %+v", an1, ch3)
		}
		cap4, ch4 := create(83)
		if ch4 != ch3 || w.m2.free.Len() != 0 {
			t.Fatalf("an1=%v: the next channel was not made from the free record", an1)
		}
		if ch4.disowned || !ch4.Region.Pinned() || len(ch4.Region.Buf) != 8*descBytes || ch4.id != cap4.id {
			t.Fatalf("an1=%v: reused channel not initialised: %+v", an1, ch4)
		}
		for _, b := range ch4.Region.Buf {
			if b != 0 {
				t.Fatalf("an1=%v: reused region not zeroed", an1)
			}
		}
		// The stale capability of the record's previous life is still dead.
		if w.m2.Installed(cap3) || w.m2.DestroyChannel(w.krn2, cap3) != ErrBadCapability {
			t.Fatalf("an1=%v: a revoked capability came back to life with its channel's record", an1)
		}
		if !w.m2.Installed(cap4) || w.m2.PinnedRegions() != 1 {
			t.Fatalf("an1=%v: live channel disturbed: installed %v, %d pinned",
				an1, w.m2.Installed(cap4), w.m2.PinnedRegions())
		}
	}
}
