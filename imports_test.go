package ulp_test

import (
	"go/types"
	"strings"
	"testing"
)

// TestLibraryDoesNotImportRegistry: the protocol library is untrusted code
// linked into each application, which reaches the trusted registry only
// through the kernel's ports. So internal/core's non-test imports reach
// internal/ctl, the control vocabulary both sides share, but never the
// registry's implementation, directly or through another package.
func TestLibraryDoesNotImportRegistry(t *testing.T) {
	l := loadModule(t)
	const lib, reg = modPath + "/internal/core", modPath + "/internal/registry"
	seen := map[string]bool{}
	var walk func(p *types.Package, via []string)
	walk = func(p *types.Package, via []string) {
		via = append(via[:len(via):len(via)], p.Path())
		if p.Path() == reg {
			t.Errorf("%s reaches the registry: %s", lib, strings.Join(via, " -> "))
			return
		}
		for _, imp := range p.Imports() {
			if path := imp.Path(); strings.HasPrefix(path, modPath+"/") && !seen[path] {
				seen[path] = true
				walk(imp, via)
			}
		}
	}
	core, ok := l.pkgs[lib]
	if !ok {
		t.Fatalf("module has no package %s", lib)
	}
	walk(core.pkg, nil)
	if !seen[modPath+"/internal/ctl"] {
		t.Errorf("%s does not import internal/ctl: the test checks nothing", lib)
	}
}
