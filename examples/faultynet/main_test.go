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

transferred 204800/204800 bytes in 5.604s of virtual time
integrity: byte-for-byte intact

wire:   287 frames sent, 19 dropped, 6 corrupted, 11 duplicated, 11 reordered
sender: 156 segments, 2 timeout retransmissions, 2 tail loss probes, 10 fast retransmissions, 35 dup-acks seen
receiver: 149 segments received, 40 out-of-order arrivals queued for reassembly
`
