package main

import (
	"strings"
	"testing"

	"ulp/internal/tcp"
)

// TestExploreCoverageFloor runs the exploration smoke campaign: a fixed
// seed and budget must walk every legal RFC 793 edge with no violation, and
// the same campaign over an engine that skips TIME_WAIT must fail.
func TestExploreCoverageFloor(t *testing.T) {
	args := []string{"-seed", "7", "-budget", "100", "-min-coverage", "0.9"}
	var out strings.Builder
	if code := run(args, &out); code != 0 {
		t.Fatalf("exit %d, want 0:\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "42/42 legal edges (100%), 0 reproducers") {
		t.Fatalf("want 42/42 edges and 0 reproducers, got:\n%s", out.String())
	}

	tcp.TestHookSkipTimeWait = true
	defer func() { tcp.TestHookSkipTimeWait = false }()
	out.Reset()
	if code := run(args, &out); code != 1 {
		t.Fatalf("skip-TIME_WAIT engine: exit %d, want 1:\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "VIOLATION") {
		t.Fatalf("skip-TIME_WAIT engine: no violation reported:\n%s", out.String())
	}
}
