package ulp

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestLineCountsCommitted holds the module to the sizes committed in
// testdata/size.golden: the lines of non-test Go outside bench/, and those
// of DESIGN.md and EXPERIMENTS.md together. A change that moves either
// count rewrites the file (go test . -run TestLineCountsCommitted -update)
// and says why in CHANGES.md, as a change that moves any golden does, so
// growth shows in the diff that causes it.
func TestLineCountsCommitted(t *testing.T) {
	lines := func(path string) int {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return bytes.Count(src, []byte("\n"))
	}
	code := 0
	err := filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == "bench" || path != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go") {
			code += lines(path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	got := fmt.Sprintf("non-test Go outside bench/   %d\nDESIGN.md + EXPERIMENTS.md   %d\n",
		code, lines("DESIGN.md")+lines("EXPERIMENTS.md"))
	const golden = "testdata/size.golden"
	if *update {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("line counts moved from %s (rewrite it with -update and say why in CHANGES.md):\n%swant:\n%s",
			golden, got, want)
	}
}
