package nakika

import (
	"bufio"
	"fmt"
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

// TestNoTestOnlySurface fails when production code carries surface that only
// tests reach: an exported identifier declared in a non-test file under
// internal/ that no non-test code refers to outside its own declaration, or a
// core.Config field that no non-test code sets. staticcheck's U1000 sees only
// unexported names; this covers the exported ones.
//
// Referrers are the non-test files of this module (internal/cluster aside:
// it is test support, exempt as declarer and as referrer) and of benchmark/,
// whose nakika imports resolve here. A method that completes an interface its
// receiver satisfies counts as referenced. testonly_allowlist.txt names the
// deliberate seams, one identifier and its reason per line; a line that
// matches no finding fails, so the list only shrinks honestly.
//
// To resolve a finding: delete the identifier (the default) and move any test
// that used it onto the production path it stood in for; or give it a
// production caller and a test that reaches it from a request; or, for a
// deliberate seam, add an allowlist line saying why.
func TestNoTestOnlySurface(t *testing.T) {
	problems, err := checkTestOnlySurface(surfaceSpec{
		root:      ".",
		declarers: "internal",
		exempt:    []string{"internal/cluster"},
		extra:     []string{"benchmark"},
		config:    "internal/core.Config",
		allowlist: "testonly_allowlist.txt",
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range problems {
		t.Error(p)
	}
}

// TestTestOnlySurfaceFixture runs the check over testdata/testonly, a module
// with one case for each rule, and pins every report to its file:line.
func TestTestOnlySurfaceFixture(t *testing.T) {
	root := filepath.Join("testdata", "testonly")
	problems, err := checkTestOnlySurface(surfaceSpec{
		root:      root,
		declarers: "internal",
		exempt:    []string{"internal/harness"},
		extra:     []string{"benchmark"},
		config:    "internal/core.Config",
		allowlist: "allowlist.txt",
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"allowlist.txt:3: stale allowlist line: internal/lib.Removed matches no finding",
		"allowlist.txt:4: package-level line for internal/core, which non-test code imports",
		"internal/core/core.go:7: core.Config.TestOnly is set by no non-test code",
		"internal/lib/lib.go:10: func lib.Unused has no non-test reference outside its declaration",
		"internal/lib/lib.go:28: type lib.HarnessOnly has no non-test reference outside its declaration",
	}
	if strings.Join(problems, "\n") != strings.Join(want, "\n") {
		t.Fatalf("fixture reports:\n%s\nwant:\n%s", strings.Join(problems, "\n"), strings.Join(want, "\n"))
	}
}

// TestOneClock fails when non-test code under internal/ reads the wall clock
// on its own: a call of, or a reference to, time.Now, Since, Until,
// NewTicker, NewTimer, AfterFunc, After or Tick. A node reads time through
// its one clock, core.Config.Clock, so that the cluster harness can run it in
// virtual time. The files in wallClockFiles read the wall clock on purpose,
// each for the reason given; one that reads it no longer fails the check too,
// so the list only shrinks.
func TestOneClock(t *testing.T) {
	problems, err := checkOneClock(".", "internal", wallClockFiles)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range problems {
		t.Error(p)
	}
}

// wallClockFiles are the non-test files under internal/ that may read the
// wall clock, and why.
var wallClockFiles = []struct{ file, reason string }{
	{"internal/core/node.go", "NewNode: a nil Config.Clock means time.Now"},
	{"internal/cache/cache.go", "cache.Config: a nil Clock means time.Now"},
	{"internal/cache/disk.go", "OpenDisk: a nil clock means time.Now (benchmark/ opens a disk tier alone)"},
	{"internal/overlay/overlay.go", "an overlay node without a clock (SetCopies) judges its index by time.Now"},
	{"internal/vocab/host.go", "NopHost, the host of stand-alone pipelines and the benchmark's stub, has no node clock"},
	{"internal/transport/tcp.go", "socket deadlines and dial backoff"},
	{"internal/transport/mux_conn.go", "socket deadlines of mux calls"},
	{"internal/core/upstream.go", "the upstream pool's idle timers"},
	{"internal/httpmsg/http1.go", "the Date header the client codec writes"},
	{"internal/admin/admin.go", "the process uptime statusz reports"},
	{"internal/bench/micro.go", "the paper's wall-clock figures"},
	{"internal/apps/largefile/largefile.go", "the origin's pacing of a rate-limited body"},
	{"internal/integrity/integrity.go", "not wired into the node yet (ROADMAP item 10)"},
}

// wallClockReads are the time package's functions that read the wall clock
// or start a timer on it.
var wallClockReads = map[string]bool{
	"Now": true, "Since": true, "Until": true, "NewTicker": true,
	"NewTimer": true, "AfterFunc": true, "After": true, "Tick": true,
}

// checkOneClock returns every wall-clock read in the non-test files under
// dir outside the allowed files, and every allowed file that has none, as
// "file:line: message", sorted.
func checkOneClock(root, dir string, allowed []struct{ file, reason string }) ([]string, error) {
	l, all, err := loadModule(root, nil)
	if err != nil {
		return nil, err
	}
	allow := map[string]bool{}
	for _, a := range allowed {
		allow[a.file] = true
	}
	reads := map[string]bool{}
	var problems []string
	for _, p := range all {
		if p.dir != dir && !strings.HasPrefix(p.dir, dir+"/") {
			continue
		}
		for id, obj := range p.info.Uses {
			fn, ok := obj.(*types.Func)
			if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "time" || !wallClockReads[fn.Name()] ||
				fn.Type().(*types.Signature).Recv() != nil {
				continue
			}
			pos := relPos(l.fset, root, id.Pos())
			file, _, _ := strings.Cut(pos, ":")
			reads[file] = true
			if !allow[file] {
				problems = append(problems, pos+": time."+fn.Name()+" reads the wall clock; read the node's clock (core.Config.Clock)")
			}
		}
	}
	for _, a := range allowed {
		if !reads[a.file] {
			problems = append(problems, a.file+": listed in wallClockFiles but reads no wall clock")
		}
	}
	sort.Slice(problems, func(i, j int) bool { return lessPos(problems[i], problems[j]) })
	return problems, nil
}

// surfaceSpec describes one module for checkTestOnlySurface. Directories are
// slash-separated and relative to root.
type surfaceSpec struct {
	root      string   // module root; its go.mod names the module
	declarers string   // directory whose exported names must be referenced
	exempt    []string // directories that neither declare nor refer
	extra     []string // nested modules whose non-test files also refer
	config    string   // "dir.Type": the struct whose fields must be set
	allowlist string   // allowlist file, relative to root
}

// surfacePkg is one type-checked package of non-test files.
type surfacePkg struct {
	dir   string // relative to the module root, slash-separated; "." for the root
	files []*ast.File
	pkg   *types.Package
	info  *types.Info
}

// surfaceLoader type-checks the module's packages from source, each once, so
// an object referred to from another package is the object its declaration
// defines. The standard library comes from the source importer.
type surfaceLoader struct {
	fset   *token.FileSet
	root   string
	module string
	std    types.ImporterFrom
	byPath map[string]string // import path → dir
	pkgs   map[string]*surfacePkg
	busy   map[string]bool
}

func (l *surfaceLoader) Import(path string) (*types.Package, error) {
	return l.ImportFrom(path, "", 0)
}

func (l *surfaceLoader) ImportFrom(path, srcDir string, mode types.ImportMode) (*types.Package, error) {
	dir, ok := l.byPath[path]
	if !ok {
		return l.std.ImportFrom(path, srcDir, mode)
	}
	p, err := l.load(path, dir)
	if err != nil {
		return nil, err
	}
	return p.pkg, nil
}

func (l *surfaceLoader) load(path, dir string) (*surfacePkg, error) {
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	if l.busy[path] {
		return nil, fmt.Errorf("import cycle through %s", path)
	}
	l.busy[path] = true
	defer delete(l.busy, path)
	abs := filepath.Join(l.root, filepath.FromSlash(dir))
	entries, err := os.ReadDir(abs)
	if err != nil {
		return nil, err
	}
	p := &surfacePkg{dir: dir, info: &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		if ok, err := build.Default.MatchFile(abs, name); err != nil || !ok {
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(abs, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		p.files = append(p.files, f)
	}
	conf := types.Config{Importer: l}
	p.pkg, err = conf.Check(path, l.fset, p.files, p.info)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %w", dir, err)
	}
	l.pkgs[path] = p
	return p, nil
}

// surfaceDecl is one declared name the check requires a reference to.
type surfaceDecl struct {
	key    string // allowlist key: "dir.Name" or "dir.Type.Method"
	what   string // "func lib.Unused", for reports
	obj    types.Object
	within []ast.Node // its declaration: references from inside do not count
	used   bool
}

// loadModule type-checks the non-test files of every package of the module
// at root, and of the nested modules in extra.
func loadModule(root string, extra []string) (*surfaceLoader, []*surfacePkg, error) {
	module, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, nil, err
	}
	fset := token.NewFileSet()
	std, ok := importer.ForCompiler(fset, "source", nil).(types.ImporterFrom)
	if !ok {
		return nil, nil, fmt.Errorf("source importer does not implement types.ImporterFrom")
	}
	l := &surfaceLoader{fset: fset, root: root, module: module, std: std,
		byPath: map[string]string{}, pkgs: map[string]*surfacePkg{}, busy: map[string]bool{}}
	dirs, err := goDirs(root)
	if err != nil {
		return nil, nil, err
	}
	for _, d := range dirs {
		l.byPath[importPath(module, d)] = d
	}
	var all []*surfacePkg
	for _, d := range append(dirs, extra...) {
		p, err := l.load(importPath(module, d), d)
		if err != nil {
			return nil, nil, err
		}
		all = append(all, p)
	}
	return l, all, nil
}

// checkTestOnlySurface returns every finding and allowlist problem as
// "file:line: message", sorted.
func checkTestOnlySurface(spec surfaceSpec) ([]string, error) {
	l, all, err := loadModule(spec.root, spec.extra)
	if err != nil {
		return nil, err
	}
	fset, module := l.fset, l.module
	exempt := func(dir string) bool {
		for _, e := range spec.exempt {
			if dir == e || strings.HasPrefix(dir, e+"/") {
				return true
			}
		}
		return false
	}
	var referrers []*surfacePkg
	for _, p := range all {
		if !exempt(p.dir) {
			referrers = append(referrers, p)
		}
	}

	// What must be referenced: exported package-level names and exported
	// methods of package-level types, in the declaring directories.
	decls := map[types.Object]*surfaceDecl{}
	var order []*surfaceDecl
	imported := map[string]bool{} // dirs that some referrer imports
	for _, p := range referrers {
		for _, imp := range p.pkg.Imports() {
			if d, ok := l.byPath[imp.Path()]; ok && d != p.dir {
				imported[d] = true
			}
		}
		if p.dir != spec.declarers && !strings.HasPrefix(p.dir, spec.declarers+"/") {
			continue
		}
		add := func(id *ast.Ident, key, what string, within ast.Node) {
			obj := p.info.Defs[id]
			if obj == nil || !id.IsExported() {
				return
			}
			d := &surfaceDecl{key: p.dir + "." + key, what: what + " " + p.pkg.Name() + "." + key, obj: obj, within: []ast.Node{within}}
			decls[obj] = d
			order = append(order, d)
		}
		methods := map[string][]ast.Node{} // receiver type name → its method declarations
		for _, f := range p.files {
			for _, decl := range f.Decls {
				switch decl := decl.(type) {
				case *ast.FuncDecl:
					if decl.Recv == nil {
						add(decl.Name, decl.Name.Name, "func", decl)
						continue
					}
					recv := receiverName(decl.Recv.List[0].Type)
					methods[recv] = append(methods[recv], decl)
					add(decl.Name, recv+"."+decl.Name.Name, "method", decl)
				case *ast.GenDecl:
					for _, s := range decl.Specs {
						switch s := s.(type) {
						case *ast.TypeSpec:
							add(s.Name, s.Name.Name, "type", s)
						case *ast.ValueSpec:
							for _, n := range s.Names {
								add(n, n.Name, decl.Tok.String(), s)
							}
						}
					}
				}
			}
		}
		// A type's methods are part of its declaration.
		for obj, d := range decls {
			if tn, ok := obj.(*types.TypeName); ok && tn.Pkg() == p.pkg {
				d.within = append(d.within, methods[tn.Name()]...)
			}
		}
	}

	// References from every referrer, outside the referenced declaration.
	configDir, configType, _ := strings.Cut(spec.config, ".")
	var config *types.Struct
	if p, ok := l.pkgs[importPath(module, configDir)]; ok {
		if tn, ok := p.pkg.Scope().Lookup(configType).(*types.TypeName); ok {
			config, _ = tn.Type().Underlying().(*types.Struct)
		}
	}
	if config == nil {
		return nil, fmt.Errorf("no struct %s", spec.config)
	}
	set := map[*types.Var]bool{}
	for _, p := range referrers {
		for id, obj := range p.info.Uses {
			obj = origin(obj)
			if d, ok := decls[obj]; ok && !d.used && !inside(id.Pos(), d.within) {
				d.used = true
			}
		}
		for _, f := range p.files {
			markFieldSets(f, p.info, config, set)
		}
	}

	// A method that completes an interface its receiver satisfies.
	ifaces := interfacesByMethod(all)
	for _, d := range order {
		fn, ok := d.obj.(*types.Func)
		if !ok || d.used {
			continue
		}
		recv := fn.Type().(*types.Signature).Recv()
		if recv == nil {
			continue
		}
		t := recv.Type()
		if ptr, ok := t.(*types.Pointer); ok {
			t = ptr.Elem()
		}
		if named, ok := t.(*types.Named); !ok || named.TypeParams().Len() > 0 {
			continue
		}
		for _, iface := range ifaces[fn.Name()] {
			if types.Implements(t, iface) || types.Implements(types.NewPointer(t), iface) {
				d.used = true
				break
			}
		}
	}

	type finding struct{ key, pos, msg string }
	var findings []finding
	for _, d := range order {
		if !d.used {
			findings = append(findings, finding{d.key, relPos(fset, spec.root, d.obj.Pos()),
				d.what + " has no non-test reference outside its declaration"})
		}
	}
	for i := 0; i < config.NumFields(); i++ {
		f := config.Field(i)
		if f.Exported() && !set[f] {
			findings = append(findings, finding{spec.config + "." + f.Name(), relPos(fset, spec.root, f.Pos()),
				spec.config[strings.LastIndex(configDir, "/")+1:] + "." + f.Name() + " is set by no non-test code"})
		}
	}

	allow, err := readAllowlist(spec.root, spec.allowlist)
	if err != nil {
		return nil, err
	}
	problems := allow.problems
	for key, line := range allow.lines {
		if !strings.Contains(key, ".") && imported[key] {
			problems = append(problems, fmt.Sprintf("%s:%d: package-level line for %s, which non-test code imports", spec.allowlist, line, key))
			delete(allow.lines, key)
		}
	}
	matched := map[string]bool{}
	for _, f := range findings {
		dir, _, _ := strings.Cut(f.key, ".")
		switch {
		case allow.lines[f.key] != 0:
			matched[f.key] = true
		case allow.lines[dir] != 0:
			matched[dir] = true
		default:
			problems = append(problems, f.pos+": "+f.msg)
		}
	}
	for key, line := range allow.lines {
		if !matched[key] {
			problems = append(problems, fmt.Sprintf("%s:%d: stale allowlist line: %s matches no finding", spec.allowlist, line, key))
		}
	}
	sort.Slice(problems, func(i, j int) bool { return lessPos(problems[i], problems[j]) })
	return problems, nil
}

// markFieldSets records every field of config that f sets: a key in a
// composite literal, the left side of an assignment or ++/--, or an operand
// of & (a flag.XxxVar target).
func markFieldSets(f *ast.File, info *types.Info, config *types.Struct, set map[*types.Var]bool) {
	field := func(e ast.Expr) {
		if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
			if v, ok := info.Uses[sel.Sel].(*types.Var); ok && v.IsField() {
				set[v.Origin()] = true
			}
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CompositeLit:
			tv := info.Types[n]
			if tv.Type == nil || tv.Type.Underlying() != config {
				return true
			}
			for i, elt := range n.Elts {
				if kv, ok := elt.(*ast.KeyValueExpr); ok {
					if v, ok := info.Uses[kv.Key.(*ast.Ident)].(*types.Var); ok {
						set[v] = true
					}
				} else {
					set[config.Field(i)] = true
				}
			}
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				field(lhs)
			}
		case *ast.IncDecStmt:
			field(n.X)
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				field(n.X)
			}
		}
		return true
	})
}

// interfacesByMethod indexes by method name every interface a receiver may
// satisfy: error, those declared in the loaded packages and in the packages
// they import, transitively, and the anonymous ones their code spells out
// (x.(interface{ Len() int })).
func interfacesByMethod(pkgs []*surfacePkg) map[string][]*types.Interface {
	byName := map[string][]*types.Interface{}
	index := func(t types.Type) {
		if named, ok := t.(*types.Named); ok && named.TypeParams().Len() > 0 {
			return
		}
		iface, ok := t.Underlying().(*types.Interface)
		if !ok || !iface.IsMethodSet() {
			return
		}
		for i := 0; i < iface.NumMethods(); i++ {
			byName[iface.Method(i).Name()] = append(byName[iface.Method(i).Name()], iface)
		}
	}
	index(types.Universe.Lookup("error").Type())
	seen := map[*types.Package]bool{}
	var visit func(*types.Package)
	visit = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		scope := p.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok && !tn.IsAlias() {
				index(tn.Type())
			}
		}
		for _, imp := range p.Imports() {
			visit(imp)
		}
	}
	for _, p := range pkgs {
		visit(p.pkg)
		for _, tv := range p.info.Types {
			if _, ok := tv.Type.(*types.Interface); ok {
				index(tv.Type)
			}
		}
	}
	return byName
}

type allowlist struct {
	lines    map[string]int // key → line number
	problems []string
}

// readAllowlist parses root/name's "key reason…" lines; blank lines and #
// comments are skipped. A line without a reason, or a key listed twice, is a
// problem.
func readAllowlist(root, name string) (allowlist, error) {
	a := allowlist{lines: map[string]int{}}
	f, err := os.Open(filepath.Join(root, name))
	if err != nil {
		return a, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		key, reason, _ := strings.Cut(line, " ")
		where := fmt.Sprintf("%s:%d: ", name, n)
		switch {
		case strings.TrimSpace(reason) == "":
			a.problems = append(a.problems, where+key+" has no reason")
		case a.lines[key] != 0:
			a.problems = append(a.problems, where+key+" is listed twice")
		default:
			a.lines[key] = n
		}
	}
	return a, sc.Err()
}

// goDirs lists the directories under root holding non-test Go files, skipping
// testdata, hidden directories and nested modules.
func goDirs(root string) ([]string, error) {
	var dirs []string
	seen := map[string]bool{}
	err := filepath.WalkDir(root, func(path string, e os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if e.IsDir() {
			name := e.Name()
			if path != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			if path != root {
				if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
					return filepath.SkipDir
				}
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go") {
			rel, err := filepath.Rel(root, filepath.Dir(path))
			if err != nil {
				return err
			}
			if rel = filepath.ToSlash(rel); !seen[rel] {
				seen[rel] = true
				dirs = append(dirs, rel)
			}
		}
		return nil
	})
	return dirs, err
}

func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("%s: no module line", gomod)
}

func importPath(module, dir string) string {
	if dir == "." {
		return module
	}
	return module + "/" + dir
}

func receiverName(e ast.Expr) string {
	for {
		switch t := e.(type) {
		case *ast.StarExpr:
			e = t.X
		case *ast.IndexExpr:
			e = t.X
		case *ast.IndexListExpr:
			e = t.X
		case *ast.ParenExpr:
			e = t.X
		case *ast.Ident:
			return t.Name
		default:
			return ""
		}
	}
}

// origin maps an instantiated generic function or field to its declaration.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

func inside(pos token.Pos, nodes []ast.Node) bool {
	for _, n := range nodes {
		if n.Pos() <= pos && pos < n.End() {
			return true
		}
	}
	return false
}

func relPos(fset *token.FileSet, root string, pos token.Pos) string {
	p := fset.Position(pos)
	if rel, err := filepath.Rel(root, p.Filename); err == nil {
		p.Filename = filepath.ToSlash(rel)
	}
	return fmt.Sprintf("%s:%d", p.Filename, p.Line)
}

// lessPos orders "file:line: …" reports by file, then line number.
func lessPos(a, b string) bool {
	fa, la := splitPos(a)
	fb, lb := splitPos(b)
	if fa != fb {
		return fa < fb
	}
	return la < lb
}

func splitPos(s string) (string, int) {
	parts := strings.SplitN(s, ":", 3)
	if len(parts) < 2 {
		return s, 0
	}
	var n int
	fmt.Sscan(parts[1], &n)
	return parts[0], n
}
