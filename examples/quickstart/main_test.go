package main

import (
	"strings"
	"testing"
)

// TestOutput pins the walkthrough: the handshake, both echoes and the module counters, to the virtual nanosecond.
func TestOutput(t *testing.T) {
	var out strings.Builder
	if code := run(&out); code != 0 {
		t.Fatalf("exit %d:\n%s", code, out.String())
	}
	if out.String() != want {
		t.Errorf("output drifted:\n%s\nwant:\n%s", out.String(), want)
	}
}

const want = `[13.859844ms] client: connected in 12.859844ms (registry handshake + channel setup + state transfer)
[14.495849ms] server: accepted connection, state ESTABLISHED
[14.756757ms] server: echoing "hello, user-level TCP"
[16.030703ms] client: echo "hello, user-level TCP"
[17.312321ms] server: echoing "the registry is bypassed now"
[18.593939ms] client: echo "the registry is bypassed now"
[18.593939ms] client: closing; 2 segments sent, 2 received, 4 timer ops

network I/O module counters:
  host 0: 2 sends verified against templates, 0 rejected; demux: 2 to channels, 3 to kernel default
  host 1: 3 sends verified against templates, 0 rejected; demux: 2 to channels, 2 to kernel default
`
