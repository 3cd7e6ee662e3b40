//go:build ignore

// Command lint_exports rejects dead code one level below the package lint:
// it fails on any exported function or method declared in internal/ that no
// non-test file of the module (bench/ included) references. An export
// nothing outside a test reaches moves no figure, command or benchmark.
//
// References are matched by name, without type checking:
//
//   - a top-level function is referenced by pkg.Name from a file importing
//     its package, or by a bare Name inside its own package;
//   - a method is referenced by any x.Name selector that is not a package
//     qualifier, so a call through an interface keeps every implementation
//     alive.
//
// A function's references to itself do not count. _test.go files count only
// for the test-support packages named on the command line (the Makefile's
// LINT_TEST_SUPPORT), which exist to be imported by other packages' tests.
// Methods that only satisfy a standard-library interface are allow-listed
// below, each with its reason.
//
// Usage: go run scripts/lint_exports.go [test-support import path ...]
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

const module = "mira"

// allowed lists method names called only by the standard library, through
// an interface this module never names at a call site.
var allowed = map[string]string{
	"Error":       "error: called by fmt and errors",
	"String":      "fmt.Stringer: called by fmt verbs",
	"MarshalJSON": "json.Marshaler: called by encoding/json",
	"ServeHTTP":   "http.Handler: called by net/http",
	"Unwrap":      "errors.Unwrap target: called by errors.Is/As",
}

// decl is one exported function or method declared in internal/.
type decl struct {
	pkg, name string // import path; name is Recv.Method for methods
	method    string // method name, "" for a top-level function
	pos       token.Position
}

func main() {
	support := map[string]bool{}
	for _, p := range os.Args[1:] {
		support[p] = true
	}
	fset := token.NewFileSet()
	var decls []decl
	funcRefs := map[string]bool{}     // "pkg.Name" from non-test files
	methodRefs := map[string]bool{}   // "Name" from non-test files
	testFuncRefs := map[string]bool{} // the same, from _test.go files
	testMethodRefs := map[string]bool{}

	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); p != "." && (name == "testdata" || strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := module
		if dir := filepath.ToSlash(filepath.Dir(p)); dir != "." {
			pkg += "/" + dir
		}
		isTest := strings.HasSuffix(p, "_test.go")
		if !isTest && strings.HasPrefix(pkg, module+"/internal/") {
			decls = append(decls, exported(fset, f, pkg)...)
		}
		fr, mr := funcRefs, methodRefs
		if isTest {
			fr, mr = testFuncRefs, testMethodRefs
		}
		collectRefs(f, pkg, fr, mr)
		return nil
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "lint_exports:", err)
		os.Exit(2)
	}

	var dead []decl
	for _, d := range decls {
		key, refs, testRefs := d.pkg+"."+d.name, funcRefs, testFuncRefs
		if d.method != "" {
			if _, ok := allowed[d.method]; ok {
				continue
			}
			key, refs, testRefs = d.method, methodRefs, testMethodRefs
		}
		if refs[key] || support[d.pkg] && testRefs[key] {
			continue
		}
		dead = append(dead, d)
	}
	sort.Slice(dead, func(i, j int) bool {
		if dead[i].pos.Filename != dead[j].pos.Filename {
			return dead[i].pos.Filename < dead[j].pos.Filename
		}
		return dead[i].pos.Line < dead[j].pos.Line
	})
	for _, d := range dead {
		fmt.Fprintf(os.Stderr, "%s: %s.%s is referenced by no non-test file\n", d.pos, path.Base(d.pkg), d.name)
	}
	if len(dead) > 0 {
		fmt.Fprintf(os.Stderr, "lint_exports: %d unreferenced export(s)\n", len(dead))
		os.Exit(1)
	}
	fmt.Println("lint_exports: ok")
}

// exported returns the file's exported top-level functions and methods.
func exported(fset *token.FileSet, f *ast.File, pkg string) []decl {
	var out []decl
	for _, fd := range f.Decls {
		fn, ok := fd.(*ast.FuncDecl)
		if !ok || !fn.Name.IsExported() {
			continue
		}
		d := decl{pkg: pkg, name: fn.Name.Name, pos: fset.Position(fn.Pos())}
		if fn.Recv != nil {
			d.method = fn.Name.Name
			d.name = recvName(fn.Recv.List[0].Type) + "." + fn.Name.Name
		}
		out = append(out, d)
	}
	return out
}

// recvName strips pointers and type parameters from a receiver type.
func recvName(t ast.Expr) string {
	for {
		switch x := t.(type) {
		case *ast.StarExpr:
			t = x.X
		case *ast.IndexExpr:
			t = x.X
		case *ast.IndexListExpr:
			t = x.X
		case *ast.Ident:
			return x.Name
		default:
			return "?"
		}
	}
}

// refs records the function and method names one declaration references.
type refs struct {
	imports              map[string]string // local name -> import path
	pkg                  string
	self, selfMethod     string // the declaration's own name, not a reference
	funcRefs, methodRefs map[string]bool
}

// collectRefs records every function and method name the file references,
// skipping each function's references to itself.
func collectRefs(f *ast.File, pkg string, funcRefs, methodRefs map[string]bool) {
	imports := map[string]string{}
	for _, spec := range f.Imports {
		p, _ := strconv.Unquote(spec.Path.Value)
		name := path.Base(p)
		if spec.Name != nil {
			name = spec.Name.Name
		}
		imports[name] = p
	}
	for _, d := range f.Decls {
		r := &refs{imports: imports, pkg: pkg, funcRefs: funcRefs, methodRefs: methodRefs}
		fn, ok := d.(*ast.FuncDecl)
		if !ok {
			ast.Inspect(d, r.visit)
			continue
		}
		// The declared name is not a reference; walk the rest.
		if fn.Recv == nil {
			r.self = fn.Name.Name
		} else {
			r.selfMethod = fn.Name.Name
			ast.Inspect(fn.Recv, r.visit)
		}
		ast.Inspect(fn.Type, r.visit)
		if fn.Body != nil {
			ast.Inspect(fn.Body, r.visit)
		}
	}
}

func (r *refs) visit(n ast.Node) bool {
	switch x := n.(type) {
	case *ast.SelectorExpr:
		if id, ok := x.X.(*ast.Ident); ok {
			if p, ok := r.imports[id.Name]; ok {
				r.funcRefs[p+"."+x.Sel.Name] = true
				return false
			}
		}
		if x.Sel.Name != r.selfMethod {
			r.methodRefs[x.Sel.Name] = true
		}
		ast.Inspect(x.X, r.visit)
		return false
	case *ast.Ident:
		if x.Name != r.self {
			r.funcRefs[r.pkg+"."+x.Name] = true
		}
	}
	return true
}
