package main

import (
	"bytes"
	"flag"
	"os"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/tables.golden from the current output")

// TestTablesGolden holds the default ulbench output — Tables 1–5 and the
// setup breakdown — byte for byte: a change that is meant to leave the
// paper's numbers alone proves it here, and one that is meant to move them
// shows the move as a reviewed diff of the golden file (go test
// ./cmd/ulbench -update).
func TestTablesGolden(t *testing.T) {
	var got bytes.Buffer
	renderTables(&got, 0)
	const golden = "testdata/tables.golden"
	if *update {
		if err := os.WriteFile(golden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		gl, wl := bytes.Split(got.Bytes(), []byte("\n")), bytes.Split(want, []byte("\n"))
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if !bytes.Equal(gl[i], wl[i]) {
				t.Fatalf("tables drifted from %s at line %d:\n golden: %s\n now:    %s", golden, i+1, wl[i], gl[i])
			}
		}
		t.Fatalf("tables drifted from %s: %d lines, golden has %d", golden, len(gl), len(wl))
	}
}
