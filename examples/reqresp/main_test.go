package main

import (
	"strings"
	"testing"
)

// TestOutput pins the per-operation latency of all three transports, among them the only end-to-end run of the monolithic stack's UDP input.
func TestOutput(t *testing.T) {
	var out strings.Builder
	if code := run(&out); code != 0 {
		t.Fatalf("exit %d:\n%s", code, out.String())
	}
	if out.String() != want {
		t.Errorf("output drifted:\n%s\nwant:\n%s", out.String(), want)
	}
}

const want = `request-response workload: 25 RPCs of 16-byte requests/replies over the Ethernet

  TCP, stock protocol (user-level library)     199.806288ms/op
  TCP, application-specific variant (NoDelay)   3.41798ms/op
  UDP request-response (in-kernel)              999.008µs/op

The two-write requests collide with Nagle under the stock protocol;
the specialized variant recovers request-response latency, the §5 idea.
`
