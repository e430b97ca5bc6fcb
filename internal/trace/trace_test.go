package trace

import (
	"bytes"
	"testing"
	"time"
)

func TestNilBusSafe(t *testing.T) {
	var b *Bus
	if b.Enabled() {
		t.Fatal("nil bus must not report enabled")
	}
	b.Emit(Event{Kind: FrameTx}) // must not panic
}

func TestDisabledEmitAllocFree(t *testing.T) {
	b := NewBus(func() time.Duration { return 0 })
	if b.Enabled() {
		t.Fatal("bus with no subscribers must not report enabled")
	}
	e := Event{Kind: FrameTx, A: 64}
	if n := testing.AllocsPerRun(100, func() { b.Emit(e) }); n != 0 {
		t.Fatalf("disabled Emit allocates %v times per op", n)
	}
	var nilBus *Bus
	if n := testing.AllocsPerRun(100, func() { nilBus.Emit(e) }); n != 0 {
		t.Fatalf("nil-bus Emit allocates %v times per op", n)
	}
}

func TestEmitStampsAndFansOut(t *testing.T) {
	now := 5 * time.Millisecond
	b := NewBus(func() time.Duration { return now })
	var got []Event
	b.Subscribe(func(e Event) { got = append(got, e) })
	b.Subscribe(func(e Event) { got = append(got, e) })
	if !b.Enabled() {
		t.Fatal("subscribed bus must report enabled")
	}
	b.Emit(Event{Kind: DemuxHit, A: 3})
	now = 7 * time.Millisecond
	b.Emit(Event{Kind: DemuxMiss})
	if len(got) != 4 {
		t.Fatalf("want 4 deliveries (2 events × 2 subs), got %d", len(got))
	}
	if got[0].At != 5*time.Millisecond || got[0].Kind != DemuxHit || got[0].A != 3 {
		t.Fatalf("first event wrong: %+v", got[0])
	}
	if got[2].At != 7*time.Millisecond || got[2].Kind != DemuxMiss {
		t.Fatalf("third event wrong: %+v", got[2])
	}
}

func TestKindStrings(t *testing.T) {
	for k := KindInvalid; int(k) < len(kindNames); k++ {
		if k.String() == "" || k.String() == "unknown" {
			t.Fatalf("kind %d has no name", k)
		}
	}
	if Kind(200).String() != "unknown" {
		t.Fatal("out-of-range kind must stringify as unknown")
	}
}

func TestPcapRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	pw, err := NewPcapWriter(&buf, LinkTypeEthernet)
	if err != nil {
		t.Fatal(err)
	}
	pkts := []Packet{
		{At: 1500 * time.Nanosecond, Data: []byte{0xde, 0xad, 0xbe, 0xef}},
		{At: 2*time.Second + 42*time.Nanosecond, Data: bytes.Repeat([]byte{0x55}, 60)},
	}
	for _, p := range pkts {
		if err := pw.WritePacket(p.At, p.Data); err != nil {
			t.Fatal(err)
		}
	}
	lt, got, err := ReadPcap(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if lt != LinkTypeEthernet {
		t.Fatalf("link type = %d, want %d", lt, LinkTypeEthernet)
	}
	if len(got) != len(pkts) {
		t.Fatalf("read %d packets, want %d", len(got), len(pkts))
	}
	for i := range pkts {
		if got[i].At != pkts[i].At {
			t.Errorf("packet %d: timestamp %v, want %v (nanosecond resolution lost?)", i, got[i].At, pkts[i].At)
		}
		if !bytes.Equal(got[i].Data, pkts[i].Data) {
			t.Errorf("packet %d: data mismatch", i)
		}
	}
}

func TestPcapReadRejectsGarbage(t *testing.T) {
	if _, _, err := ReadPcap(bytes.NewReader([]byte("not a pcap file, not even close"))); err == nil {
		t.Fatal("want error on bad magic")
	}
}
