package ulp_test

import (
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// testOnlyAllowed lists the functions declared in non-test files that no
// non-test file references, each with the test that uses it. An entry
// belongs here only when that test checks some *other* behaviour with the
// function as its oracle — a leak audit, a reference implementation, a
// trace reader. A function whose only test is its own unit test is dead
// code: delete it with that test instead of listing it.
//
// Keys are "<package path relative to the module>.<Func>" or
// "<package>.<Type>.<Method>"; the root package is "ulp".
var testOnlyAllowed = map[string]string{
	// Leak and audit counters: every crash, churn and recycling test ends
	// by asserting that nothing stayed outstanding.
	"internal/freelist.List.Len":               "TestConnRecordsAreReused",
	"internal/kern.Domain.Dead":                "TestChaosCrashMidTransferResetsPeer",
	"internal/kern.Region.Pinned":              "TestPinnedRegionsAccounting",
	"internal/netio.Module.LiveCapabilities":   "TestRevokeOwner",
	"internal/netio.Module.PinnedRegions":      "TestPinnedRegionsAccounting",
	"internal/pkt.FormatLeakReport":            "TestZeroCopyDestroySweepsInflight",
	"internal/pkt.OutstandingCount":            "TestZeroCopyDestroySweepsInflight",
	"internal/pkt.SetLeakTracking":             "TestZeroCopyDestroySweepsInflight",
	"internal/registry.Federation.Outstanding": "TestFederationAdmissionQuota",
	"internal/netdev.AN1.RingStatus":           "TestQuarantineMidBurstReleasesSlotsAndBufs",
	"internal/netio.Module.SoftwareBindings":   "TestDestroyChannelRemovesSteered",
	"internal/netio.Module.SteeredBindings":    "TestSteeringExactAndWildcard",
	"internal/stacks.TCPWheel.Armed":           "TestWheelDropIsFinal",
	"internal/sim.Timer.Pending":               "TestCancelRemovesEagerly",
	"internal/conform.Checker.Truncated":       "TestConformanceEchoAllOrganizations",
	"internal/wire.Segment.SwitchStats":        "TestManyHostSwitchedReplayDeterministic",
	"internal/pkt.Buf.Headroom":                "TestFragmentSingleWhenFits",
	"internal/tcp.Conn.Callbacks":              "TestConnectionRecordsAreReused",
	"internal/core.Conn.Channel":               "TestUserLibBQIExchangeOnAN1",

	// Drivers of behaviour production reaches another way: an application
	// exiting (the registry inherits its connections; crashes reach the
	// same path through Domain.Kill), and the steps of the recorded
	// event-order scenario, which cannot be re-recorded without them.
	"internal/core.Library.Exit": "TestUserLibNormalExitInheritsConnection",
	"internal/sim.Proc.Yield":    "TestOrderMatchesRecordedEngine",
	"internal/sim.Sim.Stop":      "TestOrderMatchesRecordedEngine",

	// Reference implementations and readers that check production output.
	"internal/checksum.sumReference": "TestFastSumEquivalence",
	"internal/trace.ReadPcap":        "TestPcapExportParses",
}

// TestNoTestOnlyCode fails when a function or method declared in a non-test
// file is referenced only from tests (or not at all). Every non-test file in
// the module counts as a referencer, including bench/, cmd/ and examples/.
// main, init and methods that make their type satisfy an interface are
// exempt; everything else needs an entry in testOnlyAllowed, and the test
// also fails on an entry that is stale (its function is gone or is now
// referenced) or names a test that does not exist.
func TestNoTestOnlyCode(t *testing.T) {
	root, err := filepath.Abs(".")
	if err != nil {
		t.Fatal(err)
	}
	l := newModLoader(t, root)
	l.loadAll()

	type decl struct {
		key      string
		pos      token.Position
		from, to token.Pos
		lines    int
	}
	decls := map[*types.Func]decl{}
	var methods []*types.Func
	for _, p := range l.pkgs {
		rel := strings.TrimPrefix(strings.TrimPrefix(p.pkg.Path(), modPath), "/")
		if rel == "" {
			rel = modPath
		}
		for _, f := range p.files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok {
					continue
				}
				fn := p.info.Defs[fd.Name].(*types.Func)
				name := fn.Name()
				if fd.Recv == nil && (name == "init" || name == "main" && p.pkg.Name() == "main") {
					continue
				}
				key := rel + "." + name
				if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
					key = rel + "." + recvNamed(recv.Type()).Obj().Name() + "." + name
					methods = append(methods, fn)
				}
				start, end := l.fset.Position(fd.Pos()), l.fset.Position(fd.End())
				decls[fn] = decl{key, start, fd.Pos(), fd.End(), end.Line - start.Line + 1}
			}
		}
	}

	// A reference from inside a function's own body (recursion) does not
	// keep it alive.
	referenced := map[*types.Func]bool{}
	for _, p := range l.pkgs {
		for id, obj := range p.info.Uses {
			fn, ok := obj.(*types.Func)
			if !ok {
				continue
			}
			fn = fn.Origin()
			if d, ok := decls[fn]; ok && id.Pos() >= d.from && id.Pos() < d.to {
				continue
			}
			referenced[fn] = true
		}
	}
	ifaces := l.interfaces()
	for _, m := range methods {
		if !referenced[m] && satisfiesInterface(m, ifaces) {
			referenced[m] = true
		}
	}

	tests := l.testFuncs()
	seen := map[string]bool{}
	var unlisted []decl
	for fn, d := range decls {
		seen[d.key] = true
		_, allowed := testOnlyAllowed[d.key]
		switch {
		case !referenced[fn] && !allowed:
			unlisted = append(unlisted, d)
		case referenced[fn] && allowed:
			t.Errorf("stale allow-list entry %s: a non-test file references it now (or it satisfies an interface); delete the entry", d.key)
		}
	}
	for key, test := range testOnlyAllowed {
		if !seen[key] {
			t.Errorf("stale allow-list entry %s: no such function; delete the entry", key)
		}
		if !tests[test] {
			t.Errorf("allow-list entry %s names %s, which is not a test in the module", key, test)
		}
	}
	sort.Slice(unlisted, func(i, j int) bool { return unlisted[i].key < unlisted[j].key })
	total := 0
	for _, d := range unlisted {
		total += d.lines
		t.Errorf("%s (%s:%d, %d lines) has no reference from a non-test file: delete it, or list it in testOnlyAllowed with the test that uses it",
			d.key, relPath(root, d.pos.Filename), d.pos.Line, d.lines)
	}
	if len(unlisted) > 0 {
		t.Logf("%d unreferenced functions, %d lines", len(unlisted), total)
	}
}

const modPath = "ulp"

// modLoader type-checks the module's non-test files, resolving module
// imports itself and the standard library from source.
type modLoader struct {
	t    *testing.T
	root string
	fset *token.FileSet
	std  types.Importer
	pkgs map[string]*modPkg
}

type modPkg struct {
	pkg   *types.Package
	files []*ast.File
	info  *types.Info
}

func newModLoader(t *testing.T, root string) *modLoader {
	fset := token.NewFileSet()
	return &modLoader{t: t, root: root, fset: fset,
		std:  importer.ForCompiler(fset, "source", nil),
		pkgs: map[string]*modPkg{}}
}

func (l *modLoader) Import(path string) (*types.Package, error) {
	if path != modPath && !strings.HasPrefix(path, modPath+"/") {
		return l.std.Import(path)
	}
	return l.load(path).pkg, nil
}

// loadAll type-checks every package directory under the module root.
func (l *modLoader) loadAll() {
	err := filepath.WalkDir(l.root, func(path string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if name := d.Name(); path != l.root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
			return filepath.SkipDir
		}
		if len(l.sources(path)) > 0 {
			l.load(filepath.ToSlash(filepath.Join(modPath, relPath(l.root, path))))
		}
		return nil
	})
	if err != nil {
		l.t.Fatal(err)
	}
}

// sources lists the non-test Go files of dir that the default build
// context selects.
func (l *modLoader) sources(dir string) []string {
	ents, err := os.ReadDir(dir)
	if err != nil {
		l.t.Fatal(err)
	}
	var out []string
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		if ok, err := build.Default.MatchFile(dir, name); err != nil {
			l.t.Fatal(err)
		} else if ok {
			out = append(out, filepath.Join(dir, name))
		}
	}
	return out
}

func (l *modLoader) load(path string) *modPkg {
	if p, ok := l.pkgs[path]; ok {
		return p
	}
	dir := filepath.Join(l.root, filepath.FromSlash(strings.TrimPrefix(path, modPath)))
	p := &modPkg{info: &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
	}}
	for _, name := range l.sources(dir) {
		f, err := parser.ParseFile(l.fset, name, nil, parser.SkipObjectResolution)
		if err != nil {
			l.t.Fatal(err)
		}
		p.files = append(p.files, f)
	}
	conf := types.Config{Importer: l}
	pkg, err := conf.Check(path, l.fset, p.files, p.info)
	if err != nil {
		l.t.Fatalf("type-checking %s: %v", path, err)
	}
	p.pkg = pkg
	l.pkgs[path] = p
	return p
}

// interfaces collects every interface a method could be satisfying: the
// named interfaces of the module and of every package it imports, the
// predeclared error, and interface literals (constraints included) written
// anywhere in the module. Each is reduced to its method set.
func (l *modLoader) interfaces() []*types.Interface {
	var out []*types.Interface
	add := func(typ types.Type) {
		it, ok := typ.Underlying().(*types.Interface)
		if !ok || it.NumMethods() == 0 {
			return
		}
		if !it.IsMethodSet() {
			var ms []*types.Func
			for i := 0; i < it.NumMethods(); i++ {
				m := it.Method(i)
				sig := m.Type().(*types.Signature)
				ms = append(ms, types.NewFunc(m.Pos(), m.Pkg(), m.Name(),
					types.NewSignatureType(nil, nil, nil, sig.Params(), sig.Results(), sig.Variadic())))
			}
			it = types.NewInterfaceType(ms, nil).Complete()
		}
		out = append(out, it)
	}
	addScope := func(pkg *types.Package) {
		for _, name := range pkg.Scope().Names() {
			if tn, ok := pkg.Scope().Lookup(name).(*types.TypeName); ok {
				if n, ok := tn.Type().(*types.Named); !ok || n.TypeParams().Len() == 0 {
					add(tn.Type())
				}
			}
		}
	}
	add(types.Universe.Lookup("error").Type())
	done := map[*types.Package]bool{}
	for _, p := range l.pkgs {
		for _, pkg := range append(p.pkg.Imports(), p.pkg) {
			if !done[pkg] {
				done[pkg] = true
				addScope(pkg)
			}
		}
		for _, tv := range p.info.Types {
			if tv.IsType() {
				add(tv.Type)
			}
		}
	}
	return out
}

// satisfiesInterface reports whether m is one of the methods by which its
// receiver type (or a pointer to it) implements some interface in ifaces.
func satisfiesInterface(m *types.Func, ifaces []*types.Interface) bool {
	recv := m.Type().(*types.Signature).Recv().Type()
	if ptr, ok := recv.(*types.Pointer); ok {
		recv = ptr.Elem()
	}
	for _, it := range ifaces {
		declares := false
		for i := 0; i < it.NumMethods(); i++ {
			if it.Method(i).Name() == m.Name() {
				declares = true
				break
			}
		}
		if declares && (types.Implements(recv, it) || types.Implements(types.NewPointer(recv), it)) {
			return true
		}
	}
	return false
}

// testFuncs returns the names of the Test, Benchmark, Fuzz and Example
// functions declared in the module's test files.
func (l *modLoader) testFuncs() map[string]bool {
	out := map[string]bool{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(l.root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != l.root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv == nil {
				out[fd.Name.Name] = true
			}
		}
		return nil
	})
	if err != nil {
		l.t.Fatal(err)
	}
	return out
}

func recvNamed(t types.Type) *types.Named {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	return t.(*types.Named)
}

func relPath(root, path string) string {
	if r, err := filepath.Rel(root, path); err == nil {
		return filepath.ToSlash(r)
	}
	return path
}
