package main

import (
	"io"
	"strings"
	"testing"

	"ulp/internal/tcp"
)

// TestConformGate runs the traced echo scenario under the RFC 793 checker,
// loss-free and at 10% loss: both must exit 0 with no violation, and an
// engine that skips TIME_WAIT must fail the gate.
func TestConformGate(t *testing.T) {
	for _, loss := range []string{"0", "0.1"} {
		var out strings.Builder
		if code := run([]string{"-loss", loss, "-conform"}, &out); code != 0 {
			t.Fatalf("-loss %s: exit %d, want 0:\n%s", loss, code, out.String())
		}
		if !strings.Contains(out.String(), "conformance: 0 violations,") {
			t.Fatalf("-loss %s: no clean conformance summary:\n%s", loss, out.String())
		}
	}

	tcp.TestHookSkipTimeWait = true
	defer func() { tcp.TestHookSkipTimeWait = false }()
	if code := run([]string{"-conform"}, io.Discard); code != 1 {
		t.Fatalf("skip-TIME_WAIT engine: exit %d, want 1", code)
	}
}
