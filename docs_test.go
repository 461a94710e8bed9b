package repro_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// dottedIdent matches a backticked dotted Go identifier such as
// `core.runner` or `runner.monitorTick`.
var dottedIdent = regexp.MustCompile("`([A-Za-z_][A-Za-z0-9_]*(?:\\.[A-Za-z_][A-Za-z0-9_]*)+)`")

// TestPaperMapNamesDeclared checks that every dotted identifier the paper
// map cites ends in a name declared somewhere in this module's Go files,
// tests included, so a rename or a removal cannot leave the map pointing at
// code that is gone.
func TestPaperMapNamesDeclared(t *testing.T) {
	doc, err := os.ReadFile(filepath.Join("docs", "paper-map.md"))
	if err != nil {
		t.Fatal(err)
	}
	declared := moduleDecls(t)
	var cited []string
	for _, m := range dottedIdent.FindAllStringSubmatch(string(doc), -1) {
		cited = append(cited, m[1])
	}
	if len(cited) == 0 {
		t.Fatal("docs/paper-map.md cites no dotted identifier")
	}
	slices.Sort(cited)
	for _, ref := range slices.Compact(cited) {
		if !declared[ref[strings.LastIndexByte(ref, '.')+1:]] {
			t.Errorf("docs/paper-map.md cites `%s`, but nothing in the module declares its last name", ref)
		}
	}
}

// moduleDecls returns every name declared in the module's Go files: funcs
// and methods, types, vars, consts, struct fields and interface methods.
// Nested modules (a directory with its own go.mod) are skipped.
func moduleDecls(t *testing.T) map[string]bool {
	t.Helper()
	names := map[string]bool{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == "." {
				return nil
			}
			if d.Name()[0] == '.' || d.Name() == "testdata" {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir
			}
			return nil
		}
		if filepath.Ext(path) != ".go" {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				names[n.Name.Name] = true
			case *ast.TypeSpec:
				names[n.Name.Name] = true
			case *ast.ValueSpec:
				for _, id := range n.Names {
					names[id.Name] = true
				}
			case *ast.StructType:
				addFields(names, n.Fields)
			case *ast.InterfaceType:
				addFields(names, n.Methods)
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return names
}

// addFields adds the names of a struct's fields or an interface's methods.
func addFields(names map[string]bool, fields *ast.FieldList) {
	for _, f := range fields.List {
		for _, id := range f.Names {
			names[id.Name] = true
		}
	}
}
