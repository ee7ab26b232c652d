package mrtext_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"

	"mrtext/internal/apps"
)

// oneOf matches a prose list of names: "one of: a, b, or c." The list
// runs to the first period.
var oneOf = regexp.MustCompile(`one of:\s*([^.]*)\.`)

// docAppList returns the names listed after the first "one of:" in text,
// with backticks, "or" and whitespace stripped.
func docAppList(t *testing.T, where, text string) []string {
	t.Helper()
	m := oneOf.FindStringSubmatch(text)
	if m == nil {
		t.Fatalf("%s: no \"one of: …\" app list", where)
	}
	var names []string
	for _, item := range strings.Split(m[1], ",") {
		item = strings.TrimSpace(strings.ReplaceAll(item, "`", ""))
		names = append(names, strings.TrimSpace(strings.TrimPrefix(item, "or ")))
	}
	return names
}

// specAppDoc returns the doc comment of mrserve.Spec's App field.
func specAppDoc(t *testing.T) string {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), "internal/mrserve/spec.go", nil, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	var doc string
	ast.Inspect(f, func(n ast.Node) bool {
		ts, ok := n.(*ast.TypeSpec)
		if !ok || ts.Name.Name != "Spec" {
			return true
		}
		for _, field := range ts.Type.(*ast.StructType).Fields.List {
			if len(field.Names) == 1 && field.Names[0].Name == "App" {
				doc = field.Doc.Text()
			}
		}
		return false
	})
	return doc
}

// TestAppListsMatchCatalogue fails when an app list written in prose, in
// mrrun's usage comment, in Spec.App's doc comment or in README, drifts
// from the application catalogue's names or order.
func TestAppListsMatchCatalogue(t *testing.T) {
	var want []string
	for _, a := range apps.Catalogue {
		want = append(want, a.Name)
	}
	f, err := parser.ParseFile(token.NewFileSet(), "cmd/mrrun/main.go", nil, parser.ParseComments|parser.PackageClauseOnly)
	if err != nil {
		t.Fatal(err)
	}
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, doc := range []struct{ where, text string }{
		{"cmd/mrrun/main.go usage comment", f.Doc.Text()},
		{"mrserve.Spec.App doc comment", specAppDoc(t)},
		{"README.md", string(readme)},
	} {
		if got := docAppList(t, doc.where, doc.text); !slices.Equal(got, want) {
			t.Errorf("%s lists %v, the catalogue %v", doc.where, got, want)
		}
	}
}
