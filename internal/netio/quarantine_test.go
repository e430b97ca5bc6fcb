package netio

import (
	"testing"
	"time"

	"ulp/internal/kern"
	"ulp/internal/link"
	"ulp/internal/pkt"
)

// issuedChannel creates a channel on host 2 issued by a privileged domain of
// its own, which the test kills to end the channel's vouching control plane.
func issuedChannel(t *testing.T, w *world) (*kern.Domain, *Capability, *Channel) {
	t.Helper()
	issuer := w.h2.NewDomain("registry", true)
	spec, tmpl := chanSpecAndTemplate(w, link.EthHeaderLen)
	cap, ch, err := w.m2.CreateChannel(issuer, spec, tmpl, 8)
	if err != nil {
		t.Fatal(err)
	}
	return issuer, cap, ch
}

// advance carries the virtual clock forward by d (a no-op event marks it).
func advance(w *world, d time.Duration) {
	w.s.After(d, func() {})
	w.s.Run(d)
}

func frame() *pkt.Buf { return pkt.FromBytes(link.EthHeaderLen, []byte{1, 2, 3}) }

// drain releases whatever the channel holds for its consumer.
func drain(ch *Channel) {
	for _, b := range ch.TryRecv() {
		b.Release()
	}
}

// The issuer's death gates both directions of an endpoint once IssuerGrace
// has passed: delivery is quarantined (counted, not silently lost) and sends
// are rejected; a Reissue to a live domain lifts the quarantine with the
// channel's state intact, recreating nothing.
func TestIssuerDeathQuarantinesAndReissueLifts(t *testing.T) {
	w := newWorld(t, false)
	issuer, cap, ch := issuedChannel(t, w)

	ch.Inject(frame())
	if ch.Pending() != 1 {
		t.Fatalf("pending = %d while the issuer lives, want 1", ch.Pending())
	}
	drain(ch)

	issuer.Kill()
	advance(w, 2*IssuerGrace)
	if !w.m2.quarantined(ch) {
		t.Fatal("channel not quarantined 2*IssuerGrace after its issuer died")
	}
	ch.Inject(frame())
	if ch.Pending() != 0 {
		t.Fatal("quarantined channel delivered a frame")
	}
	if ch.Quarantined != 1 || w.m2.quarantineDrops != 1 {
		t.Fatalf("quarantine counters = %d/%d, want 1/1", ch.Quarantined, w.m2.quarantineDrops)
	}

	// A live registry adopting the endpoint (its rebuild or a
	// re-registration) lifts the quarantine on the same channel.
	if err := w.m2.Reissue(w.h2.NewDomain("registry", true), cap); err != nil {
		t.Fatal(err)
	}
	ch.Inject(frame())
	if cap.Chan() != ch || ch.Pending() != 1 || ch.Delivered != 2 || ch.Quarantined != 1 {
		t.Fatalf("after reissue: same channel %v, pending %d, delivered %d, quarantined %d; want true, 1, 2, 1",
			cap.Chan() == ch, ch.Pending(), ch.Delivered, ch.Quarantined)
	}
	drain(ch)
}

// Send rejects a quarantined capability with ErrQuarantined — the signal
// the library's reconnect path keys on.
func TestSendRejectedWhileQuarantined(t *testing.T) {
	w := newWorld(t, false)
	issuer, cap, _ := issuedChannel(t, w)
	issuer.Kill()
	advance(w, IssuerGrace)

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
	if got != ErrQuarantined {
		t.Fatalf("Send on a quarantined capability = %v, want ErrQuarantined", got)
	}
	if w.m2.sendRejected != 1 {
		t.Fatalf("SendRejected = %d, want 1", w.m2.sendRejected)
	}
}

// Quarantine starts exactly IssuerGrace after the issuer's Kill: a frame
// 1 ns earlier is delivered, one at that instant is dropped and counted.
func TestQuarantineStartsExactlyAtGrace(t *testing.T) {
	w := newWorld(t, false)
	issuer, _, ch := issuedChannel(t, w)
	const killAt = 5 * time.Millisecond
	w.s.After(killAt, issuer.Kill)
	pending := map[time.Duration]int{}
	for _, at := range []time.Duration{killAt + IssuerGrace - 1, killAt + IssuerGrace} {
		w.s.After(at, func() {
			ch.Inject(frame())
			pending[at] = ch.Pending()
		})
	}
	w.s.Run(0)
	early, onset := pending[killAt+IssuerGrace-1], pending[killAt+IssuerGrace]
	if early != 1 || onset != 0 || ch.Delivered != 1 || ch.Quarantined != 1 {
		t.Fatalf("pending %d at grace-1ns, %d at grace; delivered %d, quarantined %d; want 1, 0, 1, 1",
			early, onset, ch.Delivered, ch.Quarantined)
	}
}

// A channel whose issuer never dies never quarantines, however long it lives.
func TestLiveIssuerNeverQuarantines(t *testing.T) {
	w := newWorld(t, false)
	_, _, ch := issuedChannel(t, w)
	advance(w, 10*IssuerGrace)
	ch.Inject(frame())
	if ch.Pending() != 1 || ch.Quarantined != 0 {
		t.Fatalf("live issuer: pending %d, quarantined %d; want 1, 0", ch.Pending(), ch.Quarantined)
	}
	drain(ch)
}

// Reissuing a destroyed capability fails: nobody can vouch for it again.
func TestReissueDestroyedCapabilityFails(t *testing.T) {
	w := newWorld(t, false)
	issuer, cap, _ := issuedChannel(t, w)
	if err := w.m2.DestroyChannel(issuer, cap); err != nil {
		t.Fatal(err)
	}
	if err := w.m2.Reissue(w.krn2, cap); err != ErrBadCapability {
		t.Fatalf("Reissue of a destroyed capability = %v, want ErrBadCapability", err)
	}
}

// InstalledEndpoints is the reborn registry's rebuild source: it must list
// every live capability, with its channel, template and owner,
// deterministically ordered, and must track destruction.
func TestInstalledEndpointsEnumeration(t *testing.T) {
	w := newWorld(t, false)
	spec1, tmpl1 := chanSpecAndTemplate(w, link.EthHeaderLen)
	cap1, ch1, err := w.m2.CreateChannelBQI(w.krn2, w.app2, spec1, tmpl1, 8, 0)
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
	if eps[0].id > eps[1].id {
		t.Fatal("endpoints not ordered by capability id")
	}
	if eps[0] != cap1 || eps[0].Chan() != ch1 || eps[0].Template().LocalPort != 80 || eps[0].Owner() != w.app2 {
		t.Fatal("first endpoint does not describe the first channel")
	}
	if eps[1].Template().LocalPort != 81 || eps[1].Owner() != nil {
		t.Fatalf("second endpoint: template port %d, owner %v", eps[1].Template().LocalPort, eps[1].Owner())
	}

	// Enumeration is privileged — an application cannot map the host.
	if _, err := w.m2.InstalledEndpoints(w.app2); err == nil {
		t.Fatal("unprivileged domain enumerated endpoints")
	}

	if err := w.m2.DestroyChannel(w.krn2, cap1); err != nil {
		t.Fatal(err)
	}
	eps, _ = w.m2.InstalledEndpoints(w.krn2)
	if len(eps) != 1 || eps[0] != cap2 {
		t.Fatal("destroyed endpoint still enumerated")
	}
}
