package ulp_test

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strings"
	"sync"
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
	"internal/freelist.List.Len":             "TestConnRecordsAreReused",
	"internal/kern.Domain.Threads":           "TestOneInputThreadServesSequentialConnections",
	"internal/kern.Region.Pinned":            "TestPinnedRegionsAccounting",
	"internal/netio.Module.LiveCapabilities": "TestRevokeOwner",
	"internal/netio.Module.PinnedRegions":    "TestPinnedRegionsAccounting",
	"internal/pkt.FormatLeakReport":          "TestZeroCopyDestroySweepsInflight",
	"internal/pkt.OutstandingCount":          "TestZeroCopyDestroySweepsInflight",
	"internal/pkt.SetLeakTracking":           "TestZeroCopyDestroySweepsInflight",
	"internal/netdev.AN1.RingStatus":         "TestQuarantineMidBurstReleasesSlotsAndBufs",
	"internal/netio.Module.SoftwareBindings": "TestDestroyChannelRemovesSteered",
	"internal/stacks.TCPWheel.Armed":         "TestWheelDropIsFinal",
	"internal/sim.Timer.Pending":             "TestCancelRemovesEagerly",
	"internal/wire.Segment.SwitchStats":      "TestReplayMatrix",
	"internal/pkt.Buf.Headroom":              "TestFragmentSingleWhenFits",
	"internal/tcp.Conn.Callbacks":            "TestConnectionRecordsAreReused",
	"internal/core.Conn.Channel":             "TestUserLibBQIExchangeOnAN1",

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
	l := loadModule(t)

	type decl struct {
		key      string
		pos      token.Position
		from, to token.Pos
		lines    int
	}
	decls := map[*types.Func]decl{}
	var methods []*types.Func
	for _, p := range l.pkgs {
		rel := relPkg(p.pkg)
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

	tests := l.tests
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
			d.key, relPath(l.root, d.pos.Filename), d.pos.Line, d.lines)
	}
	if len(unlisted) > 0 {
		t.Logf("%d unreferenced functions, %d lines", len(unlisted), total)
	}
}

// settingAllowed lists the fields of settings structs that no non-test file
// outside the declaring package writes, each with the test that sets it. An
// entry belongs here only when that test needs a value production never
// picks; a field nothing sets is a constant and is deleted instead.
var settingAllowed = map[string]string{
	// The aging and refresh tests (TestSwitchMacRefresh too) set a TTL of
	// their own and place frames on either side of it.
	"internal/wire.SwitchConfig.MacTTL": "TestSwitchMacAging",
	// Control-plane faults and crashes are what the chaos suites test; no
	// program injects them.
	"ulp.Config.Chaos": "TestChaosCrashMidTransferResetsPeer",
}

// settingPlans lists settings structs checked although their names do not
// end in Config, together with every module struct their fields reach.
var settingPlans = map[string]bool{
	"internal/wire.LinkConditions": true, // the segment's impairment plan
}

// settingExempt lists settings structs whose fields are filled by presets in
// their own package rather than chosen field by field.
var settingExempt = map[string]bool{
	"internal/wire.Config": true, // EthernetConfig and AN1Config
}

// TestEverySettingIsChosen fails when an exported field of an exported struct
// named Config, Options or …Config, or of a settingPlans struct or a struct
// its fields reach, is written by no non-test file outside its declaring
// package: a setting no caller chooses is a constant. A write
// is a composite-literal key, or an assignment or ++/-- through a selector.
// Every non-test file counts as a writer, including bench/, cmd/ and
// examples/. A field only tests set needs an entry in settingAllowed, and
// the test also fails on a stale entry or one naming a test that does not
// exist.
func TestEverySettingIsChosen(t *testing.T) {
	l := loadModule(t)

	fields := map[*types.Var]string{}
	var add func(tn *types.TypeName, reach bool)
	add = func(tn *types.TypeName, reach bool) {
		st, ok := tn.Type().Underlying().(*types.Struct)
		key := relPkg(tn.Pkg()) + "." + tn.Name()
		if !ok || settingExempt[key] {
			return
		}
		for i := 0; i < st.NumFields(); i++ {
			f := st.Field(i)
			if _, done := fields[f]; done || !f.Exported() {
				continue
			}
			fields[f] = key + "." + f.Name()
			if !reach {
				continue
			}
			if n, ok := elemType(f.Type()).(*types.Named); ok && n.Obj().Pkg() != nil && l.pkgs[n.Obj().Pkg().Path()] != nil {
				add(n.Obj(), true)
			}
		}
	}
	for _, p := range l.pkgs {
		for _, name := range p.pkg.Scope().Names() {
			tn, ok := p.pkg.Scope().Lookup(name).(*types.TypeName)
			if !ok || !tn.Exported() {
				continue
			}
			if plan := settingPlans[relPkg(p.pkg)+"."+name]; plan || name == "Options" || strings.HasSuffix(name, "Config") {
				add(tn, plan)
			}
		}
	}

	written := map[*types.Var]bool{}
	for _, p := range l.pkgs {
		write := func(id *ast.Ident) {
			if f, ok := p.info.Uses[id].(*types.Var); ok && f.Pkg() != p.pkg {
				written[f] = true
			}
		}
		through := func(x ast.Expr) {
			if sel, ok := x.(*ast.SelectorExpr); ok {
				write(sel.Sel)
			}
		}
		for _, f := range p.files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CompositeLit:
					for _, e := range n.Elts {
						if kv, ok := e.(*ast.KeyValueExpr); ok {
							if id, ok := kv.Key.(*ast.Ident); ok {
								write(id)
							}
						}
					}
				case *ast.AssignStmt:
					for _, x := range n.Lhs {
						through(x)
					}
				case *ast.IncDecStmt:
					through(n.X)
				}
				return true
			})
		}
	}

	tests := l.tests
	seen := map[string]bool{}
	var unchosen []string
	for f, key := range fields {
		seen[key] = true
		_, allowed := settingAllowed[key]
		switch {
		case !written[f] && !allowed:
			unchosen = append(unchosen, key)
		case written[f] && allowed:
			t.Errorf("stale allow-list entry %s: a non-test file outside its package sets it now; delete the entry", key)
		}
	}
	for key, test := range settingAllowed {
		if !seen[key] {
			t.Errorf("stale allow-list entry %s: no such setting; delete the entry", key)
		}
		if !tests[test] {
			t.Errorf("allow-list entry %s names %s, which is not a test in the module", key, test)
		}
	}
	sort.Strings(unchosen)
	for _, key := range unchosen {
		t.Errorf("%s is set by no non-test file outside its package: make it the constant it always is, or list it in settingAllowed with the test that sets it", key)
	}
}

// TestEveryCostIsCharged fails when a field of costs.Model is read by no
// non-test file outside internal/costs, either directly or through a Model
// method such a file calls. Writes do not count — Default setting the
// field, an ablation overriding it — since a cost nothing reads is charged
// to no CPU and moves no cell of any table.
func TestEveryCostIsCharged(t *testing.T) {
	l := loadModule(t)
	costs := l.pkgs[modPath+"/internal/costs"]
	model := costs.pkg.Scope().Lookup("Model").(*types.TypeName)
	st := model.Type().Underlying().(*types.Struct)
	isField := map[*types.Var]bool{}
	for i := 0; i < st.NumFields(); i++ {
		isField[st.Field(i)] = true
	}

	// The fields each Model method reads.
	methodReads := map[*types.Func][]*types.Var{}
	for _, f := range costs.files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Recv == nil {
				continue
			}
			fn := costs.info.Defs[fd.Name].(*types.Func)
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if sel, ok := n.(*ast.SelectorExpr); ok {
					if v, ok := costs.info.Uses[sel.Sel].(*types.Var); ok && isField[v] {
						methodReads[fn] = append(methodReads[fn], v)
					}
				}
				return true
			})
		}
	}

	read := map[*types.Var]bool{}
	for _, p := range l.pkgs {
		if p == costs {
			continue
		}
		written := map[*ast.Ident]bool{}
		for _, f := range p.files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.KeyValueExpr:
					if id, ok := n.Key.(*ast.Ident); ok {
						written[id] = true
					}
				case *ast.AssignStmt:
					if n.Tok == token.ASSIGN {
						for _, x := range n.Lhs {
							if sel, ok := x.(*ast.SelectorExpr); ok {
								written[sel.Sel] = true
							}
						}
					}
				}
				return true
			})
		}
		for id, obj := range p.info.Uses {
			switch obj := obj.(type) {
			case *types.Var:
				if isField[obj] && !written[id] {
					read[obj] = true
				}
			case *types.Func:
				for _, v := range methodReads[obj] {
					read[v] = true
				}
			}
		}
	}
	for i := 0; i < st.NumFields(); i++ {
		if f := st.Field(i); !read[f] {
			t.Errorf("costs.Model.%s is charged nowhere: no non-test file outside internal/costs reads it, directly or through a Model method; delete it", f.Name())
		}
	}
}

// docsAllowed lists the Go-shaped names the docs mention that name no live
// code, each with the reason it stays.
var docsAllowed = map[string]string{
	"Config.TimerWheel": "EXPERIMENTS.md records that the timer-backend knob is gone",
}

// docFiles are the documents TestDocsNameLiveCode reads.
var docFiles = []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"}

var (
	backticked = regexp.MustCompile("`([^`\n]+)`")
	goShaped   = regexp.MustCompile(`^[A-Za-z_]\w*(\.[A-Za-z_]\w*){1,2}(\(\))?$`)
	// keyPart marks a stats or benchmark key, which has a Go name's shape:
	// a snake_case part, or a per-host, per-channel or per-shard one.
	keyPart = regexp.MustCompile(`_|^(h|ch|shard)[0-9NK]$`)
	// fileExt marks a file name.
	fileExt = map[string]bool{"go": true, "md": true, "json": true, "golden": true, "mod": true}
	// repoPath is a path into the repository; one holding "..." is a
	// pattern, not a path.
	repoPath = regexp.MustCompile(`^(internal|cmd|examples|testdata)/[\w./-]*$`)
	// roadmapItem cites a ROADMAP item by number, which the next renumbering
	// of the roadmap points at another item.
	roadmapItem = regexp.MustCompile(`ROADMAP (items? )?[0-9]+`)
)

// TestDocsNameLiveCode fails when README.md, DESIGN.md or EXPERIMENTS.md
// name, in backticks, Go code the module does not have, or a repository
// path (internal/..., cmd/..., examples/..., testdata/...) that does not
// exist, or cite a ROADMAP item by number instead of naming its mechanism. A name of Go shape — pkg.Name, Type.Member or pkg.Type.Member —
// whose first part is a module package or a module type must resolve in the
// type-checked module, where Name may also be a test function or a member of
// one of the package's types; names that start anywhere else (sync.Pool,
// t.Fatal) are not the module's to check. Deliberate history goes on
// docsAllowed, and the test also fails on an entry no doc needs any more.
func TestDocsNameLiveCode(t *testing.T) {
	l := loadModule(t)
	pkgs := map[string]*types.Package{}
	named := map[string][]types.Type{}
	for _, p := range l.pkgs {
		if p.pkg.Name() != "main" {
			pkgs[p.pkg.Name()] = p.pkg
		}
		for _, name := range p.pkg.Scope().Names() {
			if tn, ok := p.pkg.Scope().Lookup(name).(*types.TypeName); ok {
				named[name] = append(named[name], tn.Type())
			}
		}
	}
	tests := l.tests

	// chain reports whether the selectors sels lead from typ through fields
	// to a field or method.
	var chain func(typ types.Type, sels []string) bool
	chain = func(typ types.Type, sels []string) bool {
		var pkg *types.Package
		if n, ok := elemType(typ).(*types.Named); ok {
			pkg = n.Obj().Pkg()
		}
		obj, _, _ := types.LookupFieldOrMethod(typ, true, pkg, sels[0])
		if obj == nil || len(sels) == 1 {
			return obj != nil
		}
		v, ok := obj.(*types.Var)
		return ok && chain(elemType(v.Type()), sels[1:])
	}
	// resolves reports whether name is the module's to check, and if so
	// whether it names live code.
	resolves := func(parts []string) (checked, live bool) {
		if pkg, ok := pkgs[parts[0]]; ok {
			obj := pkg.Scope().Lookup(parts[1])
			if len(parts) == 3 {
				return true, obj != nil && chain(obj.Type(), parts[2:])
			}
			if obj != nil || tests[parts[1]] {
				return true, true
			}
			for _, name := range pkg.Scope().Names() {
				if tn, ok := pkg.Scope().Lookup(name).(*types.TypeName); ok && chain(tn.Type(), parts[1:]) {
					return true, true
				}
			}
			return true, false
		}
		cands, ok := named[parts[0]]
		if !ok {
			return false, false
		}
		for _, typ := range cands {
			if chain(typ, parts[1:]) {
				return true, true
			}
		}
		return true, false
	}

	mentioned := map[string]bool{}
	for _, doc := range docFiles {
		src, err := os.ReadFile(filepath.Join(l.root, doc))
		if err != nil {
			t.Fatal(err)
		}
		for _, cite := range roadmapItem.FindAllString(string(src), -1) {
			t.Errorf("%s cites %q: name the mechanism, for item numbers change whenever the roadmap is renumbered", doc, cite)
		}
		for _, m := range backticked.FindAllStringSubmatch(string(src), -1) {
			if repoPath.MatchString(m[1]) && !strings.Contains(m[1], "...") {
				if _, err := os.Stat(filepath.Join(l.root, m[1])); err != nil {
					t.Errorf("%s names `%s`, which the repository does not have: mend the text", doc, m[1])
				}
				continue
			}
			if !goShaped.MatchString(m[1]) {
				continue
			}
			name := strings.TrimSuffix(m[1], "()")
			parts := strings.Split(name, ".")
			if fileExt[parts[len(parts)-1]] || slices.ContainsFunc(parts[1:], keyPart.MatchString) {
				continue
			}
			checked, live := resolves(parts)
			if !checked {
				continue
			}
			mentioned[name] = true
			if _, allowed := docsAllowed[name]; live && allowed {
				t.Errorf("stale allow-list entry %s: it names live code now; delete the entry", name)
			} else if !live && !allowed {
				t.Errorf("%s names `%s`, which the module does not have: mend the text, or list it in docsAllowed with the reason it stays", doc, m[1])
			}
		}
	}
	for name := range docsAllowed {
		if !mentioned[name] {
			t.Errorf("stale allow-list entry %s: no doc names it; delete the entry", name)
		}
	}
}

// elemType strips pointers and slices: the struct a plan field reaches.
func elemType(t types.Type) types.Type {
	for {
		switch u := t.(type) {
		case *types.Pointer:
			t = u.Elem()
		case *types.Slice:
			t = u.Elem()
		default:
			return t
		}
	}
}

const modPath = "ulp"

// relPkg names a module package by its path relative to the module root;
// the root package is "ulp".
func relPkg(pkg *types.Package) string {
	if rel := strings.TrimPrefix(strings.TrimPrefix(pkg.Path(), modPath), "/"); rel != "" {
		return rel
	}
	return modPath
}

// modLoader type-checks the module's non-test files, resolving module
// imports itself and the standard library from source.
type modLoader struct {
	root string
	fset *token.FileSet
	std  types.Importer
	pkgs map[string]*modPkg
	// tests names the Test, Benchmark, Fuzz and Example functions declared
	// in the module's test files.
	tests map[string]bool
}

type modPkg struct {
	pkg   *types.Package
	files []*ast.File
	info  *types.Info
}

var (
	modOnce sync.Once
	mod     *modLoader
	modErr  error
)

// loadModule type-checks the module once for every guard that reads it (the
// guards never change what it holds) and fails t with the error the load
// met, if it met one.
func loadModule(t *testing.T) *modLoader {
	t.Helper()
	modOnce.Do(func() {
		root, err := filepath.Abs(".")
		if err != nil {
			modErr = err
			return
		}
		fset := token.NewFileSet()
		mod = &modLoader{root: root, fset: fset,
			std:  importer.ForCompiler(fset, "source", nil),
			pkgs: map[string]*modPkg{}}
		if modErr = mod.loadAll(); modErr == nil {
			mod.tests, modErr = mod.testFuncs()
		}
	})
	if modErr != nil {
		t.Fatal(modErr)
	}
	return mod
}

func (l *modLoader) Import(path string) (*types.Package, error) {
	if path != modPath && !strings.HasPrefix(path, modPath+"/") {
		return l.std.Import(path)
	}
	p, err := l.load(path)
	if err != nil {
		return nil, err
	}
	return p.pkg, nil
}

// loadAll type-checks every package directory under the module root.
func (l *modLoader) loadAll() error {
	return filepath.WalkDir(l.root, func(path string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if name := d.Name(); path != l.root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
			return filepath.SkipDir
		}
		if srcs, err := l.sources(path); err != nil || len(srcs) == 0 {
			return err
		}
		_, err = l.load(filepath.ToSlash(filepath.Join(modPath, relPath(l.root, path))))
		return err
	})
}

// sources lists the non-test Go files of dir that the default build
// context selects.
func (l *modLoader) sources(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var out []string
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		if ok, err := build.Default.MatchFile(dir, name); err != nil {
			return nil, err
		} else if ok {
			out = append(out, filepath.Join(dir, name))
		}
	}
	return out, nil
}

func (l *modLoader) load(path string) (*modPkg, error) {
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	dir := filepath.Join(l.root, filepath.FromSlash(strings.TrimPrefix(path, modPath)))
	p := &modPkg{info: &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
	}}
	srcs, err := l.sources(dir)
	if err != nil {
		return nil, err
	}
	for _, name := range srcs {
		f, err := parser.ParseFile(l.fset, name, nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		p.files = append(p.files, f)
	}
	conf := types.Config{Importer: l}
	pkg, err := conf.Check(path, l.fset, p.files, p.info)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %w", path, err)
	}
	p.pkg = pkg
	l.pkgs[path] = p
	return p, nil
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
func (l *modLoader) testFuncs() (map[string]bool, error) {
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
	return out, err
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
