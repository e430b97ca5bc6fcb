package netio

import (
	"testing"
	"time"

	"ulp/internal/kern"
	"ulp/internal/link"
	"ulp/internal/pkt"
)

// Leases gate both directions of an endpoint: once the control plane stops
// renewing, delivery is quarantined (counted, not silently lost) and sends
// are rejected with ErrLeaseExpired; a renewal lifts the quarantine without
// recreating anything.
func TestLeaseExpiryQuarantinesAndRenewalLifts(t *testing.T) {
	w := newWorld(t, false)
	ttl := 100 * time.Millisecond
	w.m2.EnableLeases(ttl)
	spec, tmpl := chanSpecAndTemplate(w, link.EthHeaderLen)
	cap, ch, err := w.m2.CreateChannel(w.krn2, spec, tmpl, 8)
	if err != nil {
		t.Fatal(err)
	}

	mkFrame := func() *pkt.Buf { return pkt.FromBytes(link.EthHeaderLen, []byte{1, 2, 3}) }

	// Within the TTL the channel behaves normally.
	ch.Inject(mkFrame())
	if ch.Pending() != 1 {
		t.Fatalf("pending = %d before expiry, want 1", ch.Pending())
	}
	for _, b := range ch.TryRecv() {
		b.Release()
	}

	// Run the clock past the TTL with no renewal: the lease lapses lazily —
	// no event fires, the next delivery attempt observes the expiry. (The
	// no-op event just carries the virtual clock forward.)
	w.s.After(2*ttl, func() {})
	w.s.Run(2 * ttl)
	if !w.m2.leases.Expired(cap.id) {
		t.Fatal("lease not expired after 2*ttl without renewal")
	}
	ch.Inject(mkFrame())
	if ch.Pending() != 0 {
		t.Fatal("quarantined channel delivered a frame")
	}
	if ch.Quarantined != 1 || w.m2.QuarantineDrops != 1 {
		t.Fatalf("quarantine counters = %d/%d, want 1/1", ch.Quarantined, w.m2.QuarantineDrops)
	}

	// RenewLeasesIssued (the reborn registry's first act, once it has
	// reissued what it adopts) lifts the quarantine.
	if n, err := w.m2.RenewLeasesIssued(w.krn2); err != nil || n != 1 {
		t.Fatalf("RenewLeasesIssued = %d, %v", n, err)
	}
	ch.Inject(mkFrame())
	if ch.Pending() != 1 {
		t.Fatal("renewed channel did not deliver")
	}
	for _, b := range ch.TryRecv() {
		b.Release()
	}
}

// Send rejects a quarantined capability with ErrLeaseExpired — the signal
// the library's reconnect path keys on.
func TestSendRejectedWhileLeaseExpired(t *testing.T) {
	w := newWorld(t, false)
	ttl := 100 * time.Millisecond
	w.m2.EnableLeases(ttl)
	spec, tmpl := chanSpecAndTemplate(w, link.EthHeaderLen)
	cap, _, err := w.m2.CreateChannel(w.krn2, spec, tmpl, 8)
	if err != nil {
		t.Fatal(err)
	}
	w.s.After(2*ttl, func() {})
	w.s.Run(2 * ttl)

	var got error
	done := false
	w.krn2.Spawn("tx", func(th *kern.Thread) {
		b := pkt.FromBytes(link.EthHeaderLen, nil)
		got = w.m2.Send(th, cap, b)
		if got != nil {
			b.Release()
		}
		done = true
	})
	w.s.RunUntil(time.Second, func() bool { return done })
	if got != ErrLeaseExpired {
		t.Fatalf("Send on expired lease = %v, want ErrLeaseExpired", got)
	}
	if w.m2.SendRejected != 1 {
		t.Fatalf("SendRejected = %d, want 1", w.m2.SendRejected)
	}
}

// InstalledEndpoints is the reborn registry's rebuild source: it must list
// every live endpoint with its template, deterministically ordered, and
// must track destruction.
func TestInstalledEndpointsEnumeration(t *testing.T) {
	w := newWorld(t, false)
	spec1, tmpl1 := chanSpecAndTemplate(w, link.EthHeaderLen)
	cap1, ch1, err := w.m2.CreateChannel(w.krn2, spec1, tmpl1, 8)
	if err != nil {
		t.Fatal(err)
	}
	spec2, tmpl2 := chanSpecAndTemplate(w, link.EthHeaderLen)
	spec2.LocalPort, tmpl2.LocalPort = 81, 81
	cap2, _, err := w.m2.CreateChannel(w.krn2, spec2, tmpl2, 8)
	if err != nil {
		t.Fatal(err)
	}

	eps, err := w.m2.InstalledEndpoints(w.krn2)
	if err != nil {
		t.Fatal(err)
	}
	if len(eps) != 2 {
		t.Fatalf("%d endpoints, want 2", len(eps))
	}
	// Ordered by capability id: rebuild iterates deterministically.
	if eps[0].Cap.id > eps[1].Cap.id {
		t.Fatal("endpoints not ordered by capability id")
	}
	if eps[0].Cap != cap1 || eps[0].Channel != ch1 || eps[0].Template.LocalPort != 80 {
		t.Fatal("first endpoint does not describe the first channel")
	}
	if eps[1].Template.LocalPort != 81 {
		t.Fatalf("second endpoint template port = %d", eps[1].Template.LocalPort)
	}

	// Enumeration is privileged — an application cannot map the host.
	if _, err := w.m2.InstalledEndpoints(w.app2); err == nil {
		t.Fatal("unprivileged domain enumerated endpoints")
	}

	if err := w.m2.DestroyChannel(w.krn2, cap1); err != nil {
		t.Fatal(err)
	}
	eps, _ = w.m2.InstalledEndpoints(w.krn2)
	if len(eps) != 1 || eps[0].Cap != cap2 {
		t.Fatal("destroyed endpoint still enumerated")
	}
}
