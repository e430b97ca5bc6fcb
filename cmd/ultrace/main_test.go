package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ulp/internal/tcp"
	"ulp/internal/trace"
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

// TestEchoFailureExits1: with every frame lost the echo cannot finish, and
// under every organization the command says so and exits 1.
func TestEchoFailureExits1(t *testing.T) {
	for _, org := range []string{"userlib", "inkernel", "singleserver"} {
		var out strings.Builder
		if code := run([]string{"-org", org, "-loss", "1"}, &out); code != 1 {
			t.Errorf("%s -loss 1: exit %d, want 1:\n%s", org, code, out.String())
		}
		if !strings.Contains(out.String(), "echo failed:") {
			t.Errorf("%s -loss 1: no failure message:\n%s", org, out.String())
		}
	}
}

// pcapHashes pins the SHA-256 of the capture file each organization writes
// for the echo scenario on each network.
var pcapHashes = map[string]string{
	"userlib/ethernet":      "2bff40f2efaaba82b5302bf778c044d9da198f48938483d0ac275ce2380459bd",
	"userlib/an1":           "552832d4d70f36104cc33d1297bf2d0bdd6cccfce1545466d85aeb374d265b1b",
	"inkernel/ethernet":     "e8e5cc98344d43fe40bd2c1e5651504309dfeb60f26c7538dc2ae235dd095a9b",
	"inkernel/an1":          "da0e3af4cb00d4ea22297a637fe2db765f832791a6848dba2c508a48b21703d2",
	"singleserver/ethernet": "ec8d9ced5d1a501c00ddc76792c736293a810b408117234b4b85a277fc2752bb",
	"singleserver/an1":      "8098112aaf8e770b6c35773566d52a63c976e16d57f2d956e875fae747fe5dc5",
}

// TestPcapExport writes the echo scenario's capture for every organization
// on Ethernet and on the AN1, reads each file back with trace.ReadPcap, and
// compares its hash with the pinned one: every frame byte and timestamp of
// the scenario is held still.
func TestPcapExport(t *testing.T) {
	dir := t.TempDir()
	for _, org := range []string{"userlib", "inkernel", "singleserver"} {
		for _, net := range []string{"ethernet", "an1"} {
			name := org + "/" + net
			path := filepath.Join(dir, org+"-"+net+".pcap")
			if code := run([]string{"-org", org, "-net", net, "-pcap", path}, io.Discard); code != 0 {
				t.Fatalf("%s: exit %d", name, code)
			}
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			linkType, packets, err := trace.ReadPcap(bytes.NewReader(data))
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			wantLink := trace.LinkTypeEthernet
			if net == "an1" {
				wantLink = trace.LinkTypeUser0
			}
			if linkType != wantLink || len(packets) == 0 {
				t.Fatalf("%s: link type %d with %d packets, want %d with some", name, linkType, len(packets), wantLink)
			}
			if sum := fmt.Sprintf("%x", sha256.Sum256(data)); sum != pcapHashes[name] {
				t.Errorf("%s: capture hash %s, pinned %s", name, sum, pcapHashes[name])
			}
		}
	}
}
