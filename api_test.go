package armci_test

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"
)

// callerAllowlist holds what the module exports with no caller among its
// program files, keyed as the gate names an identifier (import path, then
// receiver type, then name). Each entry says why it stays. An entry that
// gains a program caller, or whose identifier is gone, fails the gate.
var callerAllowlist = map[string]string{
	// The root error vocabulary: a caller matches a run's error with
	// errors.As and switches on its kind.
	"armci.FaultError":          "callers match a run's error with errors.As",
	"armci.FaultKind":           "the type of FaultError.Kind, which callers switch on",
	"armci.FaultCrash":          "a FaultKind callers switch on",
	"armci.FaultRetryExhausted": "a FaultKind callers switch on",
	"armci.FaultOpTimeout":      "a FaultKind callers switch on",
	"armci.FaultPeerLost":       "a FaultKind callers switch on",
	"armci.AccFloat64":          "the float64 element type of Proc.Accumulate beside AccInt64, the public API's only name for it",

	// Recorder readouts that several packages' tests share. None is a
	// copy of the spine: Records and Timeline, its readers, have program
	// callers.
	"armci/internal/trace.Stats.Faults":        "the fault counters, not the spine; read by the root tests (faults, coalesce, leaselock, options) and pipeline's, trace's and transport's",
	"armci/internal/trace.FingerprintEvents":   "the determinism digest of a send view, Timeline whole or filtered; read by the root tests (fingerprint, faults, fuzz, options, hier_parity, procnet, workload_fingerprint) and trace's and transport's",
	"armci/internal/trace.Stats.KindHistogram": "one kind's latency histogram, fed apart from the spine; read by the root faults and options tests and pipeline's and trace's",
	"armci/internal/trace.Stats.Summary":       "the per-kind counter line ExampleRun prints, not the spine; read by the root example and options tests and trace's",
}

// TestEveryIdentifierHasACaller: every exported identifier, and every
// function or method of any name, in a program file is referenced by some
// program file outside its own declaration — a workload, a figure, a tool,
// the benchmark. Surface that only tests reach is surface no gate runs:
// delete it with its tests, or move a test-only helper into its test file.
//
// The check is type-checked (go/types), so objects are compared by
// identity: Proc.Swap is not used because Engine.Swap is called. See
// callerGate for the rule in full.
func TestEveryIdentifierHasACaller(t *testing.T) {
	mod, err := os.ReadFile("go.mod")
	if err != nil {
		t.Fatal(err)
	}
	var module string
	if _, err := fmt.Sscanf(string(mod), "module %s", &module); err != nil {
		t.Fatalf("go.mod: %v", err)
	}
	srcs := map[string]map[string]string{}
	err = filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if p != "." && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		b, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		pkg := path.Join(module, filepath.ToSlash(filepath.Dir(p)))
		if srcs[pkg] == nil {
			srcs[pkg] = map[string]string{}
		}
		srcs[pkg][p] = string(b)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	findings, err := callerGate(srcs, module+"/benchmark", callerAllowlist)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		t.Error(f)
	}
}

// TestCallerGateRule runs callerGate over small in-memory modules, one
// rule per case: no disk, no module scan, no standard library.
func TestCallerGateRule(t *testing.T) {
	const iface = "package a\ntype I interface{ M() }\ntype T struct{}\nfunc (T) M() {}\n"
	const engine = `package a
type Engine struct{}
func (*Engine) Swap() {}
type Proc struct{ e *Engine }
func (p *Proc) Swap() { p.e.Swap() }
`
	main := func(body string) map[string]string {
		return map[string]string{"cmd/main.go": "package main\nimport \"m/a\"\n" + body}
	}
	cases := []struct {
		name  string
		srcs  map[string]map[string]string
		allow map[string]string
		want  []string // each finding's text after its position
	}{
		{
			name: "a test-only caller fails",
			srcs: map[string]map[string]string{"m/a": {
				"a/a.go":      "package a\nfunc F() {}\n",
				"a/a_test.go": "package a\nfunc use() { F() }\n",
			}},
			want: []string{"m/a.F has no caller outside tests"},
		},
		{
			name: "a call from inside its own declaration fails",
			srcs: map[string]map[string]string{"m/a": {"a/a.go": "package a\nfunc F(n int) {\n\tif n > 0 {\n\t\tF(n - 1)\n\t}\n}\n"}},
			want: []string{"m/a.F has no caller outside tests"},
		},
		{
			name: "an implementation of an interface method nobody calls fails",
			srcs: map[string]map[string]string{"m/a": {"a/a.go": iface}, "m/cmd": main("func main() { var i a.I = a.T{}; _ = i }\n")},
			want: []string{"m/a.I.M has no caller outside tests", "m/a.T.M has no caller outside tests"},
		},
		{
			name: "an implementation of a called interface method passes",
			srcs: map[string]map[string]string{"m/a": {"a/a.go": iface}, "m/cmd": main("func main() { var i a.I = a.T{}; i.M() }\n")},
		},
		{
			name: "an implementation of error passes",
			srcs: map[string]map[string]string{
				"m/a":   {"a/a.go": "package a\ntype E struct{}\nfunc (E) Error() string { return \"\" }\n"},
				"m/cmd": main("func main() { var err error = a.E{}; _ = err }\n"),
			},
		},
		{
			name: "a benchmark caller counts and the benchmark is not checked",
			srcs: map[string]map[string]string{
				"m/a":         {"a/a.go": "package a\nfunc F() {}\n"},
				"m/benchmark": {"benchmark/main.go": "package main\nimport \"m/a\"\nfunc main() { a.F() }\nfunc unused() {}\n"},
			},
		},
		{
			name: "a called method of the same name elsewhere is not a caller",
			srcs: map[string]map[string]string{"m/a": {"a/a.go": engine}, "m/cmd": main("func main() { var p a.Proc; var e a.Engine; _ = p; e.Swap() }\n")},
			want: []string{"m/a.Proc.Swap has no caller outside tests"},
		},
		{
			name:  "an allowlisted identifier with a program caller fails",
			srcs:  map[string]map[string]string{"m/a": {"a/a.go": "package a\nfunc F() {}\n"}, "m/cmd": main("func main() { a.F() }\n")},
			allow: map[string]string{"m/a.F": "exported for callers outside the module"},
			want:  []string{"m/a.F has a program caller; drop it from the allowlist"},
		},
		{
			name:  "an allowlisted identifier that no longer exists fails",
			srcs:  map[string]map[string]string{"m/a": {"a/a.go": "package a\nfunc F() {}\n"}},
			allow: map[string]string{"m/a.F": "exported for callers outside the module", "m/a.G": "gone"},
			want:  []string{"m/a.G is on the allowlist and does not exist"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			findings, err := callerGate(tc.srcs, "m/benchmark", tc.allow)
			if err != nil {
				t.Fatal(err)
			}
			var got []string
			for _, f := range findings {
				if i := strings.Index(f, ": m/"); i >= 0 {
					f = f[i+2:]
				}
				got = append(got, f)
			}
			if !slices.Equal(got, tc.want) {
				t.Fatalf("findings %q, want %q", got, tc.want)
			}
		})
	}
}

// callerGate type-checks the program files of every package in srcs
// (import path → file name → source; files named *_test.go are skipped)
// and returns one finding per identifier that breaks the rule:
//
//   - an exported package-level identifier, a package-level function of
//     any name, or a method of any name (interface methods included) needs
//     a reference from a program file outside its own declaration;
//   - the package callers (the benchmark) is a caller only: its own
//     identifiers are not checked;
//   - a concrete method counts as used when an interface method it
//     implements is used, and when it implements an interface declared
//     outside srcs in a package the program imports (fmt.Stringer, error):
//     the standard library is its caller;
//   - struct fields are not checked: encoding/json and fmt read them by
//     reflection.
//
// Packages outside srcs are type-checked from source by one shared
// importer, so every object has one identity. An allow entry excuses one
// identifier; an entry whose identifier has a program caller, or does not
// exist, is a finding too.
func callerGate(srcs map[string]map[string]string, callers string, allow map[string]string) ([]string, error) {
	fset := token.NewFileSet()
	g := &gateImporter{fset: fset, srcs: srcs, std: importer.ForCompiler(fset, "source", nil), done: map[string]*gatePkg{}}
	paths := make([]string, 0, len(srcs))
	for p := range srcs {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		if _, err := g.Import(p); err != nil {
			return nil, err
		}
	}

	// The candidates, each with the extent of its declaration.
	type decl struct {
		obj      types.Object
		key      string
		from, to token.Pos
	}
	var decls []decl
	add := func(obj types.Object, n ast.Node) {
		if obj != nil && obj.Name() != "_" {
			decls = append(decls, decl{obj, gateKey(obj), n.Pos(), n.End()})
		}
	}
	for _, p := range paths {
		if p == callers {
			continue
		}
		gp := g.done[p]
		for _, f := range gp.files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					if d.Recv == nil && (d.Name.Name == "init" || d.Name.Name == "main") {
						continue
					}
					add(gp.info.Defs[d.Name], d)
				case *ast.GenDecl:
					for _, s := range d.Specs {
						switch s := s.(type) {
						case *ast.TypeSpec:
							if s.Name.IsExported() {
								add(gp.info.Defs[s.Name], s)
							}
							if it, ok := s.Type.(*ast.InterfaceType); ok {
								for _, m := range it.Methods.List {
									for _, n := range m.Names {
										add(gp.info.Defs[n], m)
									}
								}
							}
						case *ast.ValueSpec:
							for _, n := range s.Names {
								if n.IsExported() {
									add(gp.info.Defs[n], s)
								}
							}
						}
					}
				}
			}
		}
	}

	// Every reference from a program file, by the object it resolves to.
	uses := map[types.Object][]token.Pos{}
	for _, p := range paths {
		for id, obj := range g.done[p].info.Uses {
			uses[gateOrigin(obj)] = append(uses[gateOrigin(obj)], id.Pos())
		}
	}
	used := func(d decl) bool {
		for _, pos := range uses[d.obj] {
			if pos < d.from || pos >= d.to {
				return true
			}
		}
		return false
	}

	// The interfaces whose implementations count as called, by method
	// name: each interface method a program file references (its
	// declaration holds no reference to itself), and every method of
	// error and of the interfaces declared by the packages outside srcs
	// that the program imports, whose callers are outside srcs.
	called := map[string][]*types.Interface{}
	callable := func(it *types.Interface) {
		for i := 0; i < it.NumMethods(); i++ {
			called[it.Method(i).Name()] = append(called[it.Method(i).Name()], it)
		}
	}
	for obj := range uses {
		if m, ok := obj.(*types.Func); ok && gateIface(m) != nil {
			called[m.Name()] = append(called[m.Name()], gateIface(m))
		}
	}
	callable(types.Universe.Lookup("error").Type().Underlying().(*types.Interface))
	imported := map[*types.Package]bool{}
	for _, p := range paths {
		for _, imp := range g.done[p].pkg.Imports() {
			if _, ok := srcs[imp.Path()]; ok || imported[imp] {
				continue
			}
			imported[imp] = true
			for _, name := range imp.Scope().Names() {
				if tn, ok := imp.Scope().Lookup(name).(*types.TypeName); ok && tn.Exported() {
					if it, ok := tn.Type().Underlying().(*types.Interface); ok {
						callable(it)
					}
				}
			}
		}
	}
	implementsCalled := func(m *types.Func) bool {
		recv := m.Type().(*types.Signature).Recv()
		if recv == nil || gateIface(m) != nil {
			return false
		}
		t := recv.Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		for _, it := range called[m.Name()] {
			if types.Implements(t, it) || types.Implements(types.NewPointer(t), it) {
				return true
			}
		}
		return false
	}

	var findings []string
	seen := map[string]bool{}
	for _, d := range decls {
		seen[d.key] = true
		m, _ := d.obj.(*types.Func)
		ok := used(d) || m != nil && implementsCalled(m)
		_, allowed := allow[d.key]
		switch {
		case !ok && !allowed:
			findings = append(findings, fmt.Sprintf("%s: %s has no caller outside tests", fset.Position(d.from), d.key))
		case ok && allowed:
			findings = append(findings, fmt.Sprintf("%s: %s has a program caller; drop it from the allowlist", fset.Position(d.from), d.key))
		}
	}
	for key := range allow {
		if !seen[key] {
			findings = append(findings, key+" is on the allowlist and does not exist")
		}
	}
	sort.Strings(findings)
	return findings, nil
}

// gatePkg is one package of srcs, type-checked.
type gatePkg struct {
	pkg   *types.Package
	files []*ast.File
	info  *types.Info
}

// gateImporter type-checks the packages of srcs itself, once each, and
// hands every other import path to the shared source importer.
type gateImporter struct {
	fset *token.FileSet
	srcs map[string]map[string]string
	std  types.Importer
	done map[string]*gatePkg
}

func (g *gateImporter) Import(p string) (*types.Package, error) {
	files, ok := g.srcs[p]
	if !ok {
		return g.std.Import(p)
	}
	if gp := g.done[p]; gp != nil {
		return gp.pkg, nil
	}
	names := make([]string, 0, len(files))
	for name := range files {
		if !strings.HasSuffix(name, "_test.go") {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	gp := &gatePkg{info: &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}}}
	for _, name := range names {
		f, err := parser.ParseFile(g.fset, name, files[name], parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		gp.files = append(gp.files, f)
	}
	conf := types.Config{Importer: g}
	pkg, err := conf.Check(p, g.fset, gp.files, gp.info)
	if err != nil {
		return nil, err
	}
	gp.pkg = pkg
	g.done[p] = gp
	return pkg, nil
}

// gateOrigin maps an instantiated generic method or field to its
// declaration's object.
func gateOrigin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// gateIface returns the interface m is declared in, or nil for a
// concrete method or a function.
func gateIface(m *types.Func) *types.Interface {
	recv := m.Type().(*types.Signature).Recv()
	if recv == nil {
		return nil
	}
	it, _ := recv.Type().Underlying().(*types.Interface)
	return it
}

// gateKey names obj as the allowlist and the findings do: import path,
// receiver type for a method, name.
func gateKey(obj types.Object) string {
	if m, ok := obj.(*types.Func); ok {
		if recv := m.Type().(*types.Signature).Recv(); recv != nil {
			t := recv.Type()
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
			}
			if n, ok := t.(*types.Named); ok {
				return obj.Pkg().Path() + "." + n.Obj().Name() + "." + obj.Name()
			}
		}
	}
	return obj.Pkg().Path() + "." + obj.Name()
}
