package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the testdata/*.golden files from the current output")

// TestTablesGolden holds the default ulbench output — Tables 1–5 and the
// setup breakdown — byte for byte: a change that is meant to leave the
// paper's numbers alone proves it here, and one that is meant to move them
// shows the move as a reviewed diff of the golden file (go test
// ./cmd/ulbench -update).
func TestTablesGolden(t *testing.T) {
	var got bytes.Buffer
	renderTables(&got, 0)
	checkGolden(t, "testdata/tables.golden", got.Bytes())
}

// wallColumns matches a churn header or result row; what follows its first
// 69 bytes is the wall-clock pair (wall, events/wsec), which no run repeats.
var wallColumns = regexp.MustCompile(`^(Config|fast|sharded\d+) `)

// TestChurnGolden pins the sharded churn smoke (-churn -churn-conns 200
// -shards 4) on the virtual clock; the wall-clock columns are cut.
func TestChurnGolden(t *testing.T) {
	var out bytes.Buffer
	runChurn(&out, 200, 4, 8, 4, false)
	lines := strings.SplitAfter(out.String(), "\n")
	for i, line := range lines {
		if wallColumns.MatchString(line) {
			lines[i] = strings.TrimRight(line[:69], " ") + "\n"
		}
	}
	checkGolden(t, "testdata/churn.golden", []byte(strings.Join(lines, "")))
}

// TestDegradeGolden pins the degradation smoke (-degrade -degrade-bytes
// 65536). Its give-up rows run to 18 virtual minutes, past the 10-minute ARP
// entry lifetime.
func TestDegradeGolden(t *testing.T) {
	var out bytes.Buffer
	runDegrade(&out, 65536)
	checkGolden(t, "testdata/degrade.golden", out.Bytes())
}

// checkGolden compares got with the golden file, or rewrites the file under
// -update.
func checkGolden(t *testing.T, golden string, got []byte) {
	t.Helper()
	if *update {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if !bytes.Equal(gl[i], wl[i]) {
				t.Fatalf("output drifted from %s at line %d:\n golden: %s\n now:    %s", golden, i+1, wl[i], gl[i])
			}
		}
		t.Fatalf("output drifted from %s: %d lines, golden has %d", golden, len(gl), len(wl))
	}
}

// TestExperimentsMatchGolden holds the simulated cells EXPERIMENTS.md copies
// by hand — the Table 2–4 rows and the set-up breakdown — to
// testdata/tables.golden, so the prose cannot drift from the program.
func TestExperimentsMatchGolden(t *testing.T) {
	golden, err := os.ReadFile("testdata/tables.golden")
	if err != nil {
		t.Fatal(err)
	}
	doc, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	want, got := goldenCells(string(golden)), docCells(string(doc))
	if len(want) != 21 {
		t.Fatalf("parsed %d simulated rows from the golden file, want 21 (15 table rows, 5 breakdown components and the total)", len(want))
	}
	keys := make([]string, 0, len(want))
	for key := range want {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	for _, key := range keys {
		w := want[key]
		if g, ok := got[key]; !ok {
			t.Errorf("EXPERIMENTS.md has no row for %s (golden: %s)", key, w)
		} else if g != w {
			t.Errorf("EXPERIMENTS.md %s reads %s, the program prints %s", key, g, w)
		}
	}
	for key := range got {
		if _, ok := want[key]; !ok {
			t.Errorf("EXPERIMENTS.md row %s is not in the golden output", key)
		}
	}
}

// docSystems maps the golden file's system and network labels to
// EXPERIMENTS.md's.
var docSystems = map[string]string{
	"Ultrix 4.2A":               "Ultrix",
	"Mach 3.0/UX (mapped)":      "Mach/UX",
	"Our (Mach) Implementation": "ours",
	"Ethernet":                  "Ethernet",
	"DEC SRC AN1":               "AN1",
}

var breakdownLine = regexp.MustCompile(`^  \S.*?\s{2,}([\d.]+) ms\s+\(paper [\d.]+ ms\)$`)

// goldenCells extracts "Table N system/network" → simulated values, and
// "breakdown i" → the i-th component's simulated ms, from ulbench output.
func goldenCells(out string) map[string]string {
	cells := map[string]string{}
	simCols := map[string]int{"Table 2": 4, "Table 3": 3, "Table 4": 1}
	table, component := "", 0
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "Table ") {
			table = line[:len("Table 2")]
			continue
		}
		if m := breakdownLine.FindStringSubmatch(line); m != nil {
			component++
			cells[fmt.Sprintf("breakdown %d", component)] = m[1]
			continue
		}
		n := simCols[table]
		if n == 0 {
			continue
		}
		for sys, label := range docSystems {
			rest, ok := strings.CutPrefix(line, sys)
			if !ok || label == "Ethernet" || label == "AN1" {
				continue
			}
			rest = strings.TrimSpace(rest)
			net := "Ethernet"
			if strings.HasPrefix(rest, "DEC SRC AN1") {
				net = "DEC SRC AN1"
			}
			nums := strings.Fields(strings.TrimPrefix(rest, net))
			cells[table+" "+label+"/"+docSystems[net]] = strings.Join(nums[:n], " ")
		}
	}
	return cells
}

// docCells extracts the same keys from EXPERIMENTS.md's markdown tables.
func docCells(doc string) map[string]string {
	cells := map[string]string{}
	section, component := "", 0
	for _, line := range strings.Split(doc, "\n") {
		if strings.HasPrefix(line, "## ") {
			section = ""
			for _, tb := range []string{"Table 2", "Table 3", "Table 4"} {
				if strings.HasPrefix(line, "## "+tb+" ") {
					section = tb
				}
			}
			continue
		}
		if section == "" || !strings.HasPrefix(line, "|") {
			continue
		}
		cols := strings.Split(strings.Trim(line, "|"), "|")
		for i := range cols {
			cols[i] = strings.Trim(strings.TrimSpace(cols[i]), "*")
		}
		switch {
		case len(cols) == 4 && (cols[0] == "Ultrix" || cols[0] == "Mach/UX" || cols[0] == "ours"):
			cells[section+" "+cols[0]+"/"+cols[1]] = strings.Join(strings.Fields(strings.ReplaceAll(cols[2], "/", " ")), " ")
		case section == "Table 4" && len(cols) == 3 && cols[0] != "component" && !strings.HasPrefix(cols[0], "---"):
			component++
			cells[fmt.Sprintf("breakdown %d", component)] = cols[1]
		}
	}
	return cells
}
