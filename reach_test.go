//go:build reach

package mba

// Reachability check (`make reach`, -tags reach): every function declared
// in a non-test file must be linked into one of the module's binaries.
// Each cmd/* and examples/* program, and the perfbench harness (a module
// of its own that imports this one), is built with inlining off, so a
// function the linker keeps shows up in `go tool nm` under its own name.
// A declared function that no binary contains is dead code: delete it, or
// move it into the _test.go file that uses it.
//
// The allowlist may only shrink:
//   - internal/faultinject, test support imported across packages;
//   - root façade functions that an Example in example_test.go or an
//     examples/ program calls, and the root helpers they call.

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os/exec"
	"path"
	"path/filepath"
	"strings"
	"testing"
)

// reachAllowedPackages are linked by tests only, by design.
var reachAllowedPackages = []string{"internal/faultinject"}

// reachDecl is one function or method declared in a non-test file.
type reachDecl struct {
	pos  string // file:line, relative to the module root
	pkg  string // import path of the declaring package
	name string // "F" or "T.M"
}

// symbolKey is how a declaration and a linked symbol meet: import path,
// then the function or Type.Method name.
func (d reachDecl) symbolKey() string { return d.pkg + "." + d.name }

// parseDecls lists the top-level functions and methods of one file.
// src is the file's content, or nil to read it from disk.  A package main
// file gets importPath of its own directory, matching indexSymbols.
func parseDecls(fset *token.FileSet, file, importPath string, src any) ([]reachDecl, error) {
	f, err := parser.ParseFile(fset, file, src, parser.SkipObjectResolution)
	if err != nil {
		return nil, err
	}
	var decls []reachDecl
	for _, d := range f.Decls {
		fn, ok := d.(*ast.FuncDecl)
		if !ok || fn.Name.Name == "init" || fn.Name.Name == "_" {
			continue
		}
		name := fn.Name.Name
		if fn.Recv != nil && len(fn.Recv.List) == 1 {
			name = receiverType(fn.Recv.List[0].Type) + "." + name
		}
		p := fset.Position(fn.Pos())
		decls = append(decls, reachDecl{pos: fmt.Sprintf("%s:%d", p.Filename, p.Line), pkg: importPath, name: name})
	}
	return decls, nil
}

// receiverType strips the pointer and any type parameters from a
// receiver: *Set[T] -> Set.
func receiverType(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return fmt.Sprintf("%T", e)
		}
	}
}

// indexSymbols adds the text symbols of one binary's `go tool nm` output
// to linked, normalised to symbolKey form:
//   - pkg.F and pkg.T.M stay as they are;
//   - pkg.(*T).M becomes pkg.T.M, so either receiver form matches;
//   - instantiations drop their type arguments: pkg.F[go.shape.int]
//     becomes pkg.F, pkg.(*T[go.shape.int]).M becomes pkg.T.M;
//   - main.F becomes mainPkg.F, so a main function is only vouched for
//     by its own binary.
func indexSymbols(nm, mainPkg string, linked map[string]bool) {
	sc := bufio.NewScanner(strings.NewReader(nm))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		// "addr type name" or, for undefined symbols, "type name".
		i := 0
		for i < len(fields) && fields[i] != "T" && fields[i] != "t" {
			i++
		}
		if i >= len(fields)-1 {
			continue
		}
		sym := stripTypeArgs(strings.Join(fields[i+1:], " "))
		sym = strings.NewReplacer("(*", "", ")", "").Replace(sym)
		if rest, ok := strings.CutPrefix(sym, "main."); ok {
			sym = mainPkg + "." + rest
		}
		linked[sym] = true
	}
}

// stripTypeArgs removes every bracketed type-argument list, nested ones
// included.
func stripTypeArgs(sym string) string {
	var b strings.Builder
	depth := 0
	for _, r := range sym {
		switch {
		case r == '[':
			depth++
		case r == ']' && depth > 0:
			depth--
		case depth == 0:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// unreached lists "file:line name" for each declaration that no binary
// links and allowed does not excuse, in declaration order.
func unreached(decls []reachDecl, linked map[string]bool, allowed func(reachDecl) bool) []string {
	var out []string
	for _, d := range decls {
		if !linked[d.symbolKey()] && !allowed(d) {
			out = append(out, d.pos+" "+d.name)
		}
	}
	return out
}

// facadeReach returns the root-package functions that the Example
// functions of example_test.go and the examples/ programs call, plus the
// unexported root helpers those reach in turn.
func facadeReach(t *testing.T, module string) map[string]bool {
	t.Helper()
	files, err := filepath.Glob("examples/*/*.go")
	if err != nil {
		t.Fatal(err)
	}
	files = append(files, "example_test.go")
	reached := map[string]bool{}
	var work []string
	visit := func(fn *ast.FuncDecl, local string) {
		ast.Inspect(fn, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			var name string
			switch f := call.Fun.(type) {
			case *ast.SelectorExpr:
				if id, ok := f.X.(*ast.Ident); ok && local != "" && id.Name == local {
					name = f.Sel.Name
				}
			case *ast.Ident:
				if local == "" {
					name = f.Name
				}
			}
			if name != "" && !reached[name] {
				reached[name] = true
				work = append(work, name)
			}
			return true
		})
	}
	fset := token.NewFileSet()
	for _, file := range files {
		f, err := parser.ParseFile(fset, file, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		local := "" // the name the file imports the module root under
		for _, imp := range f.Imports {
			if strings.Trim(imp.Path.Value, `"`) == module {
				local = path.Base(module)
				if imp.Name != nil {
					local = imp.Name.Name
				}
			}
		}
		for _, d := range f.Decls {
			if fn, ok := d.(*ast.FuncDecl); ok && local != "" &&
				(file != "example_test.go" || strings.HasPrefix(fn.Name.Name, "Example")) {
				visit(fn, local)
			}
		}
	}

	// Follow unqualified calls between the root package's own functions.
	roots, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	funcs := map[string]*ast.FuncDecl{}
	for _, file := range roots {
		if strings.HasSuffix(file, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, file, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			if fn, ok := d.(*ast.FuncDecl); ok && fn.Recv == nil {
				funcs[fn.Name.Name] = fn
			}
		}
	}
	for len(work) > 0 {
		name := work[len(work)-1]
		work = work[:len(work)-1]
		if fn := funcs[name]; fn != nil {
			visit(fn, "")
		}
	}
	return reached
}

func goTool(t *testing.T, dir string, args ...string) string {
	t.Helper()
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("go %s (in %s): %v\n%s", strings.Join(args, " "), dir, err, out)
	}
	return string(out)
}

func TestEveryFunctionReachesABinary(t *testing.T) {
	module := strings.TrimSpace(goTool(t, ".", "list", "-m"))
	binDir := t.TempDir()
	linked := map[string]bool{}

	mains, err := filepath.Glob("cmd/*/main.go")
	if err != nil {
		t.Fatal(err)
	}
	examples, err := filepath.Glob("examples/*/main.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range append(mains, examples...) {
		dir := filepath.ToSlash(filepath.Dir(m))
		bin := filepath.Join(binDir, strings.ReplaceAll(dir, "/", "_"))
		goTool(t, ".", "build", "-gcflags=all=-l", "-o", bin, "./"+dir)
		indexSymbols(goTool(t, ".", "tool", "nm", bin), module+"/"+dir, linked)
	}
	bin := filepath.Join(binDir, "perfbench")
	goTool(t, "perfbench", "build", "-gcflags=all=-l", "-o", bin, ".")
	indexSymbols(goTool(t, ".", "tool", "nm", bin), module+"/perfbench", linked)
	if len(mains) == 0 || len(examples) == 0 || len(linked) == 0 {
		t.Fatalf("found %d cmd and %d example binaries, %d symbols", len(mains), len(examples), len(linked))
	}

	var decls []reachDecl
	fset := token.NewFileSet()
	err = filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if p != "." && (name == "perfbench" || name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		importPath := module
		if dir := filepath.ToSlash(filepath.Dir(p)); dir != "." {
			importPath += "/" + dir
		}
		ds, err := parseDecls(fset, filepath.ToSlash(p), importPath, nil)
		decls = append(decls, ds...)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}

	facade := facadeReach(t, module)
	allowed := func(d reachDecl) bool {
		for _, p := range reachAllowedPackages {
			if d.pkg == module+"/"+p {
				return true
			}
		}
		return d.pkg == module && facade[d.name]
	}
	if dead := unreached(decls, linked, allowed); len(dead) > 0 {
		t.Errorf("%d of %d functions are linked into no binary; delete them or move them into the _test.go file that uses them:\n%s",
			len(dead), len(decls), strings.Join(dead, "\n"))
	}
}

// TestReachMatching pins the checker's symbol matching on synthetic
// declarations and nm output, without building anything.
func TestReachMatching(t *testing.T) {
	const mod = "example.com/m"
	type file struct{ path, src string }
	cases := []struct {
		name  string
		files []file
		nm    map[string]string // binary's main package -> its nm output
		want  []string
	}{
		{
			name:  "generic function matches its shape instantiation",
			files: []file{{"internal/core/grow.go", "package core\n\nfunc grow[T any](s []T) []T { return s }\n"}},
			nm:    map[string]string{mod + "/cmd/a": "  4a1f20 T example.com/m/internal/core.grow[go.shape.int]\n"},
		},
		{
			name: "generic method matches through its instantiated receiver",
			files: []file{{"internal/core/set.go", "package core\n\ntype Set[K comparable, V any] map[K]V\n\n" +
				"func (s *Set[K, V]) Add(k K, v V) { (*s)[k] = v }\n"}},
			nm: map[string]string{mod + "/cmd/a": "  4a1f20 T example.com/m/internal/core.(*Set[go.shape.string,go.shape.struct { X int }]).Add\n"},
		},
		{
			name: "value and pointer receivers",
			files: []file{{"internal/x/t.go", "package x\n\ntype T struct{}\n\nfunc (T) Val() {}\n\n" +
				"func (*T) Ptr() {}\n\nfunc (t *T) Gone() {}\n"}},
			nm: map[string]string{mod + "/cmd/a": "  401000 T example.com/m/internal/x.T.Val\n" +
				"  401100 T example.com/m/internal/x.(*T).Ptr\n"},
			want: []string{"internal/x/t.go:9 T.Gone"},
		},
		{
			name: "a main function only counts in its own binary",
			files: []file{
				{"cmd/a/main.go", "package main\n\nfunc main() {}\n\nfunc run() {}\n"},
				{"cmd/b/main.go", "package main\n\nfunc main() { run() }\n\nfunc run() {}\n"},
			},
			nm: map[string]string{
				mod + "/cmd/a": "  401000 T main.main\n",
				mod + "/cmd/b": "  401000 T main.main\n  401100 T main.run\n",
			},
			want: []string{"cmd/a/main.go:5 run"},
		},
		{
			name: "a planted unreached function is reported with its position",
			files: []file{{"internal/stats/stats.go", "package stats\n\nfunc Mean(xs []float64) float64 { return 0 }\n\n" +
				"// Planted is called by nothing.\nfunc Planted() int { return 1 }\n"}},
			nm: map[string]string{mod + "/cmd/a": "  401000 T example.com/m/internal/stats.Mean\n" +
				"                 U example.com/m/internal/stats.Planted\n"},
			want: []string{"internal/stats/stats.go:6 Planted"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			linked := map[string]bool{}
			for mainPkg, nm := range tc.nm {
				indexSymbols(nm, mainPkg, linked)
			}
			var decls []reachDecl
			fset := token.NewFileSet()
			for _, f := range tc.files {
				ds, err := parseDecls(fset, f.path, mod+"/"+path.Dir(f.path), f.src)
				if err != nil {
					t.Fatal(err)
				}
				decls = append(decls, ds...)
			}
			got := unreached(decls, linked, func(reachDecl) bool { return false })
			if strings.Join(got, "\n") != strings.Join(tc.want, "\n") {
				t.Errorf("unreached = %q, want %q", got, tc.want)
			}
		})
	}
}
