package obs

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestMetricCatalog checks that every exported Metric* name constant is a
// family NewMetrics registers and a row of README's Observability table,
// so a metric cannot ship unregistered or undocumented.
func TestMetricCatalog(t *testing.T) {
	names := metricConstants(t)
	if len(names) == 0 {
		t.Fatal("no Metric* constants found")
	}
	reg := NewRegistry()
	NewMetrics(reg)
	readme, err := os.ReadFile(filepath.Join("..", "..", "README.md"))
	if err != nil {
		t.Fatal(err)
	}
	table := string(readme)
	if i := strings.Index(table, "## Observability"); i >= 0 {
		table = table[i:]
	}
	for ident, name := range names {
		if _, ok := reg.families[name]; !ok {
			t.Errorf("%s (%q) is not registered by NewMetrics", ident, name)
		}
		if !strings.Contains(table, "| `"+name+"` |") {
			t.Errorf("%s (%q) has no row in README's Observability table", ident, name)
		}
	}
}

// metricConstants maps each exported Metric* string constant declared in
// the package's non-test files to its value.
func metricConstants(t *testing.T) map[string]string {
	t.Helper()
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]string{}
	fset := token.NewFileSet()
	for _, file := range files {
		if strings.HasSuffix(file, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, file, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.CONST {
				continue
			}
			for _, spec := range gd.Specs {
				vs := spec.(*ast.ValueSpec)
				for i, id := range vs.Names {
					if !strings.HasPrefix(id.Name, "Metric") || !id.IsExported() || i >= len(vs.Values) {
						continue
					}
					lit, ok := vs.Values[i].(*ast.BasicLit)
					if !ok || lit.Kind != token.STRING {
						t.Fatalf("%s is not a string literal", id.Name)
					}
					v, err := strconv.Unquote(lit.Value)
					if err != nil {
						t.Fatal(err)
					}
					out[id.Name] = v
				}
			}
		}
	}
	return out
}
