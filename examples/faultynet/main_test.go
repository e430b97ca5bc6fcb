package main

import (
	"strings"
	"testing"
)

// TestOutput pins the fault counts, the recovery counters and the verdict of the lossy transfer.
func TestOutput(t *testing.T) {
	var out strings.Builder
	if code := run(&out); code != 0 {
		t.Fatalf("exit %d:\n%s", code, out.String())
	}
	if out.String() != want {
		t.Errorf("output drifted:\n%s\nwant:\n%s", out.String(), want)
	}
}

const want = `wire faults: 5% loss, 2% duplication, 2% corruption, 5% reordering

transferred 204800/204800 bytes in 9.011s of virtual time
integrity: byte-for-byte intact

wire:   303 frames sent, 21 dropped, 6 corrupted, 11 duplicated, 12 reordered
sender: 164 segments, 4 timeout retransmissions, 5 tail loss probes, 11 fast retransmissions, 45 dup-acks seen
receiver: 153 segments received, 45 out-of-order arrivals queued for reassembly
`
