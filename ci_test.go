package ulp

import (
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

var (
	// fuzzTarget is a fuzz target's declaration in a test file.
	fuzzTarget = regexp.MustCompile(`(?m)^func (Fuzz\w+)\(\w+ \*testing\.F\)`)
	// ciFuzzRun is one run of CI's fuzz smoke step: the target and its
	// package directory.
	ciFuzzRun = regexp.MustCompile(`go test -run='\^\$' -fuzz='\^(Fuzz\w+)\$' -fuzztime=\S+ (\./\S+)`)
)

// TestCIFuzzesEveryTarget fails unless CI's fuzz smoke step runs exactly the
// module's fuzz targets, each in its own package, once: a new target cannot
// be left out of CI, nor can CI name one that is gone.
func TestCIFuzzesEveryTarget(t *testing.T) {
	var targets []string
	err := filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range fuzzTarget.FindAllStringSubmatch(string(src), -1) {
			targets = append(targets, m[1]+" ./"+filepath.ToSlash(filepath.Dir(path)))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	ci, err := os.ReadFile(".github/workflows/ci.yml")
	if err != nil {
		t.Fatal(err)
	}
	var runs []string
	for _, m := range ciFuzzRun.FindAllStringSubmatch(string(ci), -1) {
		runs = append(runs, m[1]+" "+m[2])
	}
	slices.Sort(targets)
	slices.Sort(runs)
	if len(targets) == 0 || !slices.Equal(targets, runs) {
		t.Fatalf("CI's fuzz step runs %q; the module's fuzz targets are %q", runs, targets)
	}
}
