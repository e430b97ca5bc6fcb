package netio

import (
	"fmt"
	"testing"

	"ulp/internal/filter"
	"ulp/internal/ipv4"
	"ulp/internal/link"
	"ulp/internal/pkt"
)

// tcpSpec builds an endpoint spec with the given ports (remote zero =
// listener wildcard).
func tcpSpec(localPort, remotePort uint16) filter.Spec {
	s := filter.Spec{
		LinkHdrLen: link.EthHeaderLen, Proto: ipv4.ProtoTCP,
		LocalIP: ip2, LocalPort: localPort,
	}
	if remotePort != 0 {
		s.RemoteIP = ip1
		s.RemotePort = remotePort
	}
	return s
}

func TestSteeringExactAndWildcard(t *testing.T) {
	w := newWorld(t, false)
	specExact := tcpSpec(80, 1025)
	specWild := tcpSpec(81, 0)
	_, chExact, err := w.m2.CreateChannel(w.krn2, specExact, Template{}, 8)
	if err != nil {
		t.Fatal(err)
	}
	_, chWild, err := w.m2.CreateChannel(w.krn2, specWild, Template{}, 8)
	if err != nil {
		t.Fatal(err)
	}
	if got := w.m2.SoftwareBindings(); got != 2 {
		t.Fatalf("bindings = %d, want 2", got)
	}
	defaulted := 0
	w.m2.SetDefaultHandler(func(b *pkt.Buf) { defaulted++; b.Release() })

	w.m2.rxSoftware(buildTCPFrame(w, link.EthHeaderLen, 1025, 80, []byte("x")))
	if chExact.Pending() != 1 {
		t.Fatalf("exact endpoint got %d packets, want 1", chExact.Pending())
	}
	// Any source hits the wildcard endpoint.
	w.m2.rxSoftware(buildTCPFrame(w, link.EthHeaderLen, 4000, 81, []byte("y")))
	w.m2.rxSoftware(buildTCPFrame(w, link.EthHeaderLen, 4001, 81, []byte("z")))
	if chWild.Pending() != 2 {
		t.Fatalf("wildcard endpoint got %d packets, want 2", chWild.Pending())
	}
	// Wrong source port for the exact endpoint: no listener on 80 → default.
	w.m2.rxSoftware(buildTCPFrame(w, link.EthHeaderLen, 9999, 80, []byte("w")))
	if defaulted != 1 {
		t.Fatalf("defaulted=%d, want 1 (exact key must not match other sources)", defaulted)
	}
}

// TestSteeringMatchesLinearScan is the equivalence property: for a mixed
// binding population and a batch of frames, the steering tables must route
// every frame to the same channel Spec.Match scanning would.
func TestSteeringMatchesLinearScan(t *testing.T) {
	w := newWorld(t, false)
	specs := []filter.Spec{
		tcpSpec(80, 1025),
		tcpSpec(80, 0),  // listener shadowed by the exact entry above for 1025
		tcpSpec(443, 0), // pure listener
		tcpSpec(90, 2000),
	}
	chans := make([]*Channel, len(specs))
	for i, sp := range specs {
		_, ch, err := w.m2.CreateChannel(w.krn2, sp, Template{}, 8)
		if err != nil {
			t.Fatal(err)
		}
		chans[i] = ch
	}
	defaulted := 0
	w.m2.SetDefaultHandler(func(b *pkt.Buf) { defaulted++; b.Release() })

	cases := []struct {
		srcPort, dstPort uint16
		want             int // index into chans, -1 = default path
	}{
		{1025, 80, 0},  // exact beats the port-80 listener
		{3000, 80, 1},  // other sources fall to the listener
		{5000, 443, 2}, // pure listener
		{2000, 90, 3},  // exact with no listener behind it
		{2001, 90, -1}, // wrong remote, no listener
		{1025, 81, -1}, // no endpoint at all
	}
	for _, tc := range cases {
		before := make([]int, len(chans))
		for i, ch := range chans {
			before[i] = ch.Pending()
		}
		defBefore := defaulted
		w.m2.rxSoftware(buildTCPFrame(w, link.EthHeaderLen, tc.srcPort, tc.dstPort, []byte("p")))
		for i, ch := range chans {
			wantDelta := 0
			if i == tc.want {
				wantDelta = 1
			}
			if got := ch.Pending() - before[i]; got != wantDelta {
				t.Errorf("frame %d->%d: channel %d delta=%d, want %d",
					tc.srcPort, tc.dstPort, i, got, wantDelta)
			}
		}
		wantDef := 0
		if tc.want == -1 {
			wantDef = 1
		}
		if defaulted-defBefore != wantDef {
			t.Errorf("frame %d->%d: default delta=%d, want %d",
				tc.srcPort, tc.dstPort, defaulted-defBefore, wantDef)
		}
	}
}

// TestSteeringRefusesTakenOrUnsteerableKeys: a second channel for a
// five-tuple, listener or EtherType that already has one is refused, as is a
// spec the table cannot key (a half-wildcarded remote); the refusals leave
// the first channel receiving, allocate nothing, and the key is free again
// once its channel is destroyed.
func TestSteeringRefusesTakenOrUnsteerableKeys(t *testing.T) {
	w := newWorld(t, false)
	exact, listener := tcpSpec(80, 1025), tcpSpec(81, 0)
	cap1, ch1, err := w.m2.CreateChannel(w.krn2, exact, Template{}, 8)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := w.m2.CreateChannel(w.krn2, listener, Template{}, 8); err != nil {
		t.Fatal(err)
	}
	if _, _, err := w.m2.CreateRawChannel(w.krn2, link.EtherType(0x88b5), Template{}, 8); err != nil {
		t.Fatal(err)
	}
	halfWild := tcpSpec(82, 0)
	halfWild.RemoteIP = ip1
	pinned := w.m2.PinnedRegions()
	for name, create := range map[string]func() error{
		"exact":    func() error { _, _, err := w.m2.CreateChannel(w.krn2, exact, Template{}, 8); return err },
		"listener": func() error { _, _, err := w.m2.CreateChannel(w.krn2, listener, Template{}, 8); return err },
		"raw": func() error {
			_, _, err := w.m2.CreateRawChannel(w.krn2, link.EtherType(0x88b5), Template{}, 8)
			return err
		},
		"half-wild": func() error { _, _, err := w.m2.CreateChannel(w.krn2, halfWild, Template{}, 8); return err },
	} {
		if create() == nil {
			t.Errorf("%s: second channel accepted, want refusal", name)
		}
	}
	if w.m2.SoftwareBindings() != 3 || w.m2.PinnedRegions() != pinned {
		t.Fatalf("after refusals: bindings=%d pinned=%d, want 3/%d", w.m2.SoftwareBindings(), w.m2.PinnedRegions(), pinned)
	}
	w.m2.rxSoftware(buildTCPFrame(w, link.EthHeaderLen, 1025, 80, []byte("a")))
	if ch1.Pending() != 1 {
		t.Fatalf("first channel got %d packets, want 1", ch1.Pending())
	}
	if err := w.m2.DestroyChannel(w.krn2, cap1); err != nil {
		t.Fatal(err)
	}
	_, ch2, err := w.m2.CreateChannel(w.krn2, exact, Template{}, 8)
	if err != nil {
		t.Fatalf("key still taken after its channel was destroyed: %v", err)
	}
	w.m2.rxSoftware(buildTCPFrame(w, link.EthHeaderLen, 1025, 80, []byte("b")))
	if ch2.Pending() != 1 {
		t.Fatalf("new channel got %d packets, want 1", ch2.Pending())
	}
}

// TestSteeringFragmentFallsThrough: a non-first fragment has no transport
// header, so it must bypass the steering tables and miss every endpoint
// spec, exactly as Spec.Match rejects it.
func TestSteeringFragmentFallsThrough(t *testing.T) {
	w := newWorld(t, false)
	_, ch, err := w.m2.CreateChannel(w.krn2, tcpSpec(80, 0), Template{}, 8)
	if err != nil {
		t.Fatal(err)
	}
	defaulted := 0
	w.m2.SetDefaultHandler(func(b *pkt.Buf) { defaulted++; b.Release() })
	b := buildTCPFrame(w, link.EthHeaderLen, 1025, 80, []byte("frag"))
	// Set a nonzero fragment offset in the IP header (bytes 6-7 past link).
	raw := b.Bytes()
	raw[link.EthHeaderLen+6] = 0x00
	raw[link.EthHeaderLen+7] = 0x10
	w.m2.rxSoftware(b)
	if ch.Pending() != 0 || defaulted != 1 {
		t.Fatalf("fragment: pending=%d defaulted=%d, want 0/1", ch.Pending(), defaulted)
	}
}

// TestDestroyChannelRemovesSteered verifies indexed removal of exact,
// listener and raw entries.
func TestDestroyChannelRemovesSteered(t *testing.T) {
	w := newWorld(t, false)
	caps := make([]*Capability, 0, 3)
	for _, sp := range []filter.Spec{tcpSpec(80, 1025), tcpSpec(81, 0)} {
		cap, _, err := w.m2.CreateChannel(w.krn2, sp, Template{}, 8)
		if err != nil {
			t.Fatal(err)
		}
		caps = append(caps, cap)
	}
	rawCap, _, err := w.m2.CreateRawChannel(w.krn2, link.EtherType(0x88b5), Template{}, 8)
	if err != nil {
		t.Fatal(err)
	}
	caps = append(caps, rawCap)
	if w.m2.SoftwareBindings() != 3 {
		t.Fatalf("bindings = %d, want 3", w.m2.SoftwareBindings())
	}
	for _, cap := range caps {
		if err := w.m2.DestroyChannel(w.krn2, cap); err != nil {
			t.Fatal(err)
		}
	}
	if w.m2.SoftwareBindings() != 0 {
		t.Fatalf("bindings = %d after destroying all, want 0", w.m2.SoftwareBindings())
	}
}

// TestBQIRecycling: destroyed channels return their hardware ring index,
// so endpoint churn reuses a small dense set instead of marching the
// 16-bit space to exhaustion.
func TestBQIRecycling(t *testing.T) {
	w := newWorld(t, true)
	seen := map[uint16]bool{}
	for round := 0; round < 100; round++ {
		spec, tmpl := chanSpecAndTemplate(w, link.AN1HeaderLen)
		cap, ch, err := w.m2.CreateChannel(w.krn2, spec, tmpl, 8)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		seen[ch.BQI()] = true
		if err := w.m2.DestroyChannel(w.krn2, cap); err != nil {
			t.Fatal(err)
		}
	}
	if len(seen) != 1 {
		t.Fatalf("churn used %d distinct BQIs, want 1 (LIFO recycling)", len(seen))
	}
	// A reserved-then-released index is also recycled.
	bqi, err := w.m2.ReserveBQI(w.krn2)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.m2.ReleaseBQI(w.krn2, bqi); err != nil {
		t.Fatal(err)
	}
	bqi2, err := w.m2.ReserveBQI(w.krn2)
	if err != nil {
		t.Fatal(err)
	}
	if bqi2 != bqi {
		t.Fatalf("released BQI %d not reused (got %d)", bqi, bqi2)
	}
}

// TestManySteeredEndpoints scales the binding population and checks every
// endpoint still receives its own traffic (the O(1) demux tentpole at
// table sizes where a linear scan would be quadratic across the batch).
func TestManySteeredEndpoints(t *testing.T) {
	w := newWorld(t, false)
	const n = 2000
	chans := make([]*Channel, n)
	for i := 0; i < n; i++ {
		sp := filter.Spec{
			LinkHdrLen: link.EthHeaderLen, Proto: ipv4.ProtoTCP,
			LocalIP: ip2, LocalPort: uint16(10000 + i),
			RemoteIP: ip1, RemotePort: uint16(20000 + i),
		}
		_, ch, err := w.m2.CreateChannel(w.krn2, sp, Template{}, 4)
		if err != nil {
			t.Fatal(err)
		}
		chans[i] = ch
	}
	if got := w.m2.SoftwareBindings(); got != n {
		t.Fatalf("bindings = %d, want %d", got, n)
	}
	for _, i := range []int{0, 1, n / 2, n - 2, n - 1} {
		w.m2.rxSoftware(buildTCPFrame(w, link.EthHeaderLen,
			uint16(20000+i), uint16(10000+i), []byte(fmt.Sprintf("p%d", i))))
		if chans[i].Pending() != 1 {
			t.Fatalf("endpoint %d got %d packets, want 1", i, chans[i].Pending())
		}
	}
}

// FuzzSteeringMatchesCompile holds the steering table to its reference: for
// any frame bytes, the channel the module's lookup picks is the one a
// first-match scan of the bound specs' Spec.Compile predicates picks, exact
// five-tuples ahead of listeners, and none when no predicate accepts.
func FuzzSteeringMatchesCompile(f *testing.F) {
	w := newWorld(f, false)
	udpListener := filter.Spec{LinkHdrLen: link.EthHeaderLen, Proto: ipv4.ProtoUDP, LocalIP: ip2, LocalPort: 53}
	specs := []filter.Spec{tcpSpec(80, 1025), tcpSpec(90, 2000), tcpSpec(80, 0), tcpSpec(443, 0), udpListener}
	type bound struct {
		match func([]byte) bool
		ch    *Channel
	}
	var exact, listeners []bound
	for _, sp := range specs {
		_, ch, err := w.m2.CreateChannel(w.krn2, sp, Template{}, 8)
		if err != nil {
			f.Fatal(err)
		}
		if sp.RemotePort != 0 {
			exact = append(exact, bound{sp.Compile(), ch})
		} else {
			listeners = append(listeners, bound{sp.Compile(), ch})
		}
	}
	scan := append(exact, listeners...)
	frame := func(srcPort, dstPort uint16, edit func([]byte)) []byte {
		b := buildTCPFrame(w, link.EthHeaderLen, srcPort, dstPort, []byte("payload"))
		raw := append([]byte(nil), b.Bytes()...)
		b.Release()
		if edit != nil {
			edit(raw[link.EthHeaderLen:])
		}
		return raw
	}
	f.Add(frame(1025, 80, nil))
	f.Add(frame(3000, 80, nil))
	f.Add(frame(2000, 90, nil))
	f.Add(frame(2001, 90, nil))
	f.Add(frame(5000, 443, nil))
	f.Add(frame(1025, 53, func(ip []byte) { ip[9] = ipv4.ProtoUDP }))
	f.Add(frame(1025, 80, func(ip []byte) { ip[7] = 0x10 }))         // later fragment
	f.Add(frame(1025, 80, func(ip []byte) { ip[6] = 0x20 }))         // first fragment
	f.Add(frame(1025, 80, func(ip []byte) { ip[0] = 0x46 }))         // options: ports move
	f.Add(frame(1025, 80, func(ip []byte) { ip[0] = 0x44 }))         // header too short
	f.Add(frame(1025, 80, func(ip []byte) { ip[0] = 0x65 }))         // not version 4
	f.Add(frame(1025, 80, func(ip []byte) { ip[2], ip[3] = 0, 0 }))  // total length ignored
	f.Add(frame(1025, 80, nil)[:link.EthHeaderLen+ipv4.HeaderLen+3]) // ports cut short
	f.Add(frame(1025, 80, nil)[:link.EthHeaderLen-1])                // link header cut short
	f.Fuzz(func(t *testing.T, raw []byte) {
		var want *Channel
		for _, b := range scan {
			if b.match(raw) {
				want = b.ch
				break
			}
		}
		var got *Channel
		if bd := w.m2.steerLookup(raw); bd != nil {
			got = bd.ch
		}
		if got != want {
			t.Fatalf("frame % x: steering picked %p, the predicates %p", raw, got, want)
		}
	})
}
