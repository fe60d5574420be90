package javaflow_test

import (
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// TestPackageDocs: every package under internal/ and cmd/ states its role
// in a doc comment that godoc renders. A library's starts "Package <name> ",
// a command's "Command <dir> ". The replication package's doc also names
// the two mechanisms it combines, anti-entropy and gossip.
func TestPackageDocs(t *testing.T) {
	pkgDocs := map[string]string{} // package directory -> its doc comments
	for _, root := range []string{"internal", "cmd"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || !d.IsDir() {
				return err
			}
			if d.Name() == "testdata" {
				return filepath.SkipDir
			}
			entries, err := os.ReadDir(path)
			if err != nil {
				return err
			}
			var name string
			var docs []string
			for _, e := range entries {
				fn := e.Name()
				if e.IsDir() || !strings.HasSuffix(fn, ".go") || strings.HasSuffix(fn, "_test.go") {
					continue
				}
				f, err := parser.ParseFile(token.NewFileSet(), filepath.Join(path, fn), nil,
					parser.PackageClauseOnly|parser.ParseComments)
				if err != nil {
					return err
				}
				name = f.Name.Name
				docs = append(docs, f.Doc.Text())
			}
			if len(docs) == 0 {
				return nil
			}
			want := "Package " + name + " "
			if name == "main" {
				want = "Command " + filepath.Base(path) + " "
			}
			if !slices.ContainsFunc(docs, func(d string) bool { return strings.HasPrefix(d, want) }) {
				t.Errorf("%s has no doc comment starting %q", path, want)
			}
			pkgDocs[filepath.ToSlash(path)] = strings.Join(docs, "")
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	rep := strings.ToLower(pkgDocs["internal/replicate"])
	for _, term := range []string{"anti-entropy", "gossip"} {
		if !strings.Contains(rep, term) {
			t.Errorf("internal/replicate's package doc does not mention %s", term)
		}
	}
}
