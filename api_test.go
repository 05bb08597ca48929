package armci_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// TestEveryProcMethodHasACaller: every exported *Proc method is used by
// some program file — a workload, a figure, a tool, the benchmark — not
// only by tests. A method that only tests call is surface no gate runs;
// delete it with its tests.
//
// The check is syntactic (go/parser, no type information): a caller is a
// selector naming the method — a call, a method value or a method
// expression — in a non-test file, outside the method's own declaration.
// It cannot tell receivers apart, so an engine method of the same name
// called elsewhere (g.Swap in internal/core) counts for Proc.Swap too.
func TestEveryProcMethodHasACaller(t *testing.T) {
	fset := token.NewFileSet()
	var files []*ast.File
	decls := map[string]*ast.FuncDecl{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != "." && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files = append(files, f)
		if filepath.Dir(path) != "." {
			return nil
		}
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Name.IsExported() && recvIsProc(fd) {
				decls[fd.Name.Name] = fd
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(decls) == 0 {
		t.Fatal("found no exported *Proc methods")
	}

	called := map[string]bool{}
	for _, f := range files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && decls[fd.Name.Name] == fd {
				continue // a method's own body does not call it
			}
			ast.Inspect(d, func(n ast.Node) bool {
				if s, ok := n.(*ast.SelectorExpr); ok {
					called[s.Sel.Name] = true
				}
				return true
			})
		}
	}
	for name, fd := range decls {
		if !called[name] {
			t.Errorf("%s: (*Proc).%s is called by no program file, only by tests", fset.Position(fd.Pos()), name)
		}
	}
}

// recvIsProc reports whether fd is a method on *Proc.
func recvIsProc(fd *ast.FuncDecl) bool {
	if fd.Recv == nil || len(fd.Recv.List) != 1 {
		return false
	}
	s, ok := fd.Recv.List[0].Type.(*ast.StarExpr)
	if !ok {
		return false
	}
	id, ok := s.X.(*ast.Ident)
	return ok && id.Name == "Proc"
}
