// Package analysistest runs an analyzer over a golden testdata package and
// compares its diagnostics against expectations embedded in the source,
// mirroring golang.org/x/tools/go/analysis/analysistest:
//
//	f()          // want `ignored error`
//	g()          // ok: no comment means no diagnostic expected
//
// A `// want "regexp"` (or backquoted) comment on a line expects exactly one
// diagnostic on that line whose message matches the regexp; repeated want
// clauses on one line expect one diagnostic each. A diagnostic with no
// matching expectation, or an expectation with no diagnostic, fails the
// test. Golden packages live under <analyzer>/testdata/src/<name>/ — the
// testdata path component hides them from go build, go vet and mrlint
// itself, so they may (and should) contain seeded violations.
package analysistest

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"testing"

	"mrtext/internal/analysis"
)

// wantRE extracts want clauses from a comment: a double-quoted Go string or
// a backquoted string after the word "want".
var wantRE = regexp.MustCompile("want\\s+(\"(?:[^\"\\\\]|\\\\.)*\"|`[^`]*`)")

// expectation is one want clause awaiting a diagnostic.
type expectation struct {
	file    string
	line    int
	pattern *regexp.Regexp
	matched bool
}

// Run loads the golden package at testdata/src/<pkg> beneath testdata,
// applies the analyzer, and reports any mismatch between produced and
// expected diagnostics as test errors.
func Run(t *testing.T, testdata string, a *analysis.Analyzer, pkg string) {
	t.Helper()
	fset := token.NewFileSet()
	files, tpkg, info := loadGolden(t, fset, filepath.Join(testdata, "src", pkg), pkg)
	expects := collectWants(t, fset, files)

	var diags []analysis.Diagnostic
	pass := &analysis.Pass{
		Analyzer:  a,
		Fset:      fset,
		Files:     files,
		Pkg:       tpkg,
		TypesInfo: info,
		Report:    func(d analysis.Diagnostic) { diags = append(diags, d) },
	}
	if err := a.Run(pass); err != nil {
		t.Fatalf("analysistest: analyzer %s on %s: %v", a.Name, tpkg.Path(), err)
	}

	sort.Slice(diags, func(i, j int) bool { return diags[i].Pos < diags[j].Pos })
	for _, d := range diags {
		pos := fset.Position(d.Pos)
		if !claim(expects, pos.Filename, pos.Line, d.Message) {
			t.Errorf("%s:%d: unexpected diagnostic: %s", filepath.Base(pos.Filename), pos.Line, d.Message)
		}
	}
	for _, e := range expects {
		if !e.matched {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", filepath.Base(e.file), e.line, e.pattern)
		}
	}
}

// loadGolden parses and type-checks one golden package directory against
// the standard library, from source.
func loadGolden(t *testing.T, fset *token.FileSet, dir, pkg string) ([]*ast.File, *types.Package, *types.Info) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("analysistest: %v", err)
	}
	var files []*ast.File
	for _, e := range entries {
		if e.IsDir() || filepath.Ext(e.Name()) != ".go" {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments)
		if err != nil {
			t.Fatalf("analysistest: parsing %s: %v", e.Name(), err)
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		t.Fatalf("analysistest: no Go files in %s", dir)
	}

	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	conf := types.Config{Importer: importer.ForCompiler(fset, "source", nil)}
	tpkg, err := conf.Check(pkg, fset, files, info)
	if err != nil {
		t.Fatalf("analysistest: type-checking %s: %v", dir, err)
	}
	return files, tpkg, info
}

// collectWants scans comments for want clauses.
func collectWants(t *testing.T, fset *token.FileSet, files []*ast.File) []*expectation {
	t.Helper()
	var out []*expectation
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				for _, m := range wantRE.FindAllStringSubmatch(c.Text, -1) {
					lit := m[1]
					var pat string
					if lit[0] == '`' {
						pat = lit[1 : len(lit)-1]
					} else {
						var err error
						pat, err = strconv.Unquote(lit)
						if err != nil {
							t.Fatalf("analysistest: bad want clause %s: %v", lit, err)
						}
					}
					re, err := regexp.Compile(pat)
					if err != nil {
						t.Fatalf("analysistest: bad want pattern %q: %v", pat, err)
					}
					pos := fset.Position(c.Pos())
					out = append(out, &expectation{file: pos.Filename, line: pos.Line, pattern: re})
				}
			}
		}
	}
	return out
}

// claim marks the first unmatched expectation on (file, line) whose pattern
// matches msg, reporting whether one was found.
func claim(expects []*expectation, file string, line int, msg string) bool {
	for _, e := range expects {
		if !e.matched && e.file == file && e.line == line && e.pattern.MatchString(msg) {
			e.matched = true
			return true
		}
	}
	return false
}

// Testdata returns the conventional testdata directory for the caller's
// package, i.e. "./testdata".
func Testdata() string { return "testdata" }
