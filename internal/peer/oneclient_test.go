package peer

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestOneClient is the package's invariant as a test: outside
// internal/peer, no non-test Go file of the module (bench/ is its own
// module and a load generator, not a node) builds an http.Client or an
// http.Transport or stamps trace/deadline headers itself. A fifth
// hand-assembled peer client — or a hop that forgets the headers — fails
// here, not in review.
func TestOneClient(t *testing.T) {
	const root = "../.."
	banned := map[string][]string{ // import path -> selectors that must not be used
		"net/http":                {"Client{", "Transport{"},
		"javaflow/internal/obs":   {"Inject("},
		"javaflow/internal/admit": {"Inject("},
	}
	fset := token.NewFileSet()
	files := 0
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		if d.IsDir() {
			if rel == "bench" || rel == filepath.Join("internal", "peer") || (rel != "." && strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files++
		local := map[string]string{} // local package name -> import path
		for _, imp := range f.Imports {
			p, _ := strconv.Unquote(imp.Path.Value)
			if banned[p] == nil {
				continue
			}
			name := p[strings.LastIndex(p, "/")+1:]
			if imp.Name != nil {
				name = imp.Name.Name
			}
			local[name] = p
		}
		check := func(e ast.Expr, suffix string) {
			sel, ok := e.(*ast.SelectorExpr)
			if !ok {
				return
			}
			pkg, ok := sel.X.(*ast.Ident)
			if !ok {
				return
			}
			for _, b := range banned[local[pkg.Name]] {
				if b == sel.Sel.Name+suffix {
					t.Errorf("%s: %s.%s outside internal/peer — build peer requests with peer.Do/peer.NewClient",
						fset.Position(e.Pos()), pkg.Name, b)
				}
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.CompositeLit:
				check(x.Type, "{")
			case *ast.CallExpr:
				check(x.Fun, "(")
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if files < 50 {
		t.Fatalf("walked only %d files from %s; the module root moved?", files, root)
	}
}
