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

transferred 204800/204800 bytes in 42.203s of virtual time
integrity: byte-for-byte intact

wire:   282 frames sent, 19 dropped, 6 corrupted, 11 duplicated, 11 reordered
sender: 162 segments, 14 timeout retransmissions, 3 fast retransmissions, 24 dup-acks seen
receiver: 153 segments received, 27 out-of-order arrivals queued for reassembly
`
