// Package load enumerates, parses and type-checks the module's packages for
// mrlint. It is a small, offline replacement for go/packages: package
// discovery is delegated to `go list -deps -json` (which understands build
// tags, testdata exclusion and module layout), parsing to go/parser, and
// type checking to go/types — so the whole pipeline works with no module
// dependencies and no network.
//
// Packages returns the module-local package graph in dependency order —
// every package after everything it imports, ties broken by import path —
// and type-checks it with one importer that serves module-local imports
// from the packages this loader itself produced (falling back to the source
// importer for the standard library). Each package is therefore checked
// once, against the very objects its dependencies declare, and two runs
// over the same tree schedule identically.
//
// Load problems do not abort the run: `go list` package errors, parse
// errors and type-check errors are all aggregated per package (LoadErrors,
// TypeErrors) and analysis proceeds best-effort on whatever type-checked,
// matching go vet.
package load

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os/exec"
	"path/filepath"
	"sort"
)

// Package is one loaded, type-checked package.
type Package struct {
	PkgPath string
	Dir     string
	Files   []*ast.File
	Types   *types.Package
	Info    *types.Info
	// Imports lists the module-local packages this one imports, sorted.
	Imports []string
	// Listed is true when the package matched the requested patterns.
	// False means it was pulled in only as a dependency, type-checked for
	// its importers; the driver does not analyze it.
	Listed bool
	// LoadErrors holds go list and parse problems. A package with load
	// errors may have partial (or no) syntax and types.
	LoadErrors []error
	// TypeErrors holds soft type-checking problems. Analysis proceeds on a
	// best-effort basis when they are non-empty (matching go vet, which
	// analyzes as much as it can type-check).
	TypeErrors []error
}

// listedPackage is the subset of `go list -json` output we consume.
type listedPackage struct {
	ImportPath string
	Dir        string
	Name       string
	GoFiles    []string
	Imports    []string
	Standard   bool
	DepOnly    bool
	Error      *struct {
		Pos string
		Err string
	}
}

// list runs `go list -deps -json patterns...` in dir and decodes the
// stream. -deps pulls in every dependency, so module-local helpers of the
// listed packages are loaded (and type-checked for their importers) even
// when the patterns name only their importers.
func list(dir string, patterns []string) ([]listedPackage, error) {
	args := append([]string{"list", "-e", "-deps", "-json"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("load: go list %v: %v\n%s", patterns, err, stderr.Bytes())
	}
	var pkgs []listedPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listedPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("load: decoding go list output: %v", err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// Packages loads and type-checks the packages matching patterns, resolved
// relative to dir (typically the module root), plus their module-local
// dependencies, returned in deterministic dependency (topological) order.
// Only non-test files are analyzed, matching the "library and binary code"
// scope of mrlint; test hygiene is go vet's department. All packages share
// one FileSet so positions and suppression indexes compose.
//
// The returned error covers only a failed `go list` invocation; per-package
// problems are aggregated on the packages themselves.
func Packages(dir string, patterns ...string) ([]*Package, *token.FileSet, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	listed, err := list(dir, patterns)
	if err != nil {
		return nil, nil, err
	}

	// Index the module-local packages and their local import edges.
	local := make(map[string]listedPackage)
	for _, lp := range listed {
		if !lp.Standard {
			local[lp.ImportPath] = lp
		}
	}
	order := topoOrder(local)

	fset := token.NewFileSet()
	imp := &moduleImporter{
		// Stdlib packages are type-checked from source and cached by the
		// standard source importer; module-local ones come from our own
		// cache so object identity holds across packages.
		fallback: importer.ForCompiler(fset, "source", nil),
		local:    make(map[string]*types.Package),
	}

	var out []*Package
	for _, path := range order {
		lp := local[path]
		pkg := check(fset, imp, lp)
		pkg.Listed = !lp.DepOnly
		for _, imported := range lp.Imports {
			if _, ok := local[imported]; ok {
				pkg.Imports = append(pkg.Imports, imported)
			}
		}
		sort.Strings(pkg.Imports)
		if pkg.Types != nil {
			imp.local[lp.ImportPath] = pkg.Types
		}
		out = append(out, pkg)
	}
	return out, fset, nil
}

// topoOrder returns the import paths of local in dependency order —
// imported packages before their importers — with ties broken by import
// path, so the schedule is total and reproducible. Import cycles cannot
// occur in compilable Go; if a malformed tree has one anyway, its members
// are appended in path order at the point the cycle is detected.
func topoOrder(local map[string]listedPackage) []string {
	paths := make([]string, 0, len(local))
	for p := range local {
		paths = append(paths, p)
	}
	sort.Strings(paths)

	const (
		unvisited = 0
		visiting  = 1
		done      = 2
	)
	state := make(map[string]int, len(paths))
	out := make([]string, 0, len(paths))
	var visit func(string)
	visit = func(p string) {
		if state[p] != unvisited {
			return
		}
		state[p] = visiting
		lp := local[p]
		deps := append([]string(nil), lp.Imports...)
		sort.Strings(deps)
		for _, d := range deps {
			if _, ok := local[d]; ok {
				visit(d)
			}
		}
		state[p] = done
		out = append(out, p)
	}
	for _, p := range paths {
		visit(p)
	}
	return out
}

// moduleImporter resolves module-local imports from the loader's own
// checked packages and everything else through the source importer.
type moduleImporter struct {
	fallback types.Importer
	local    map[string]*types.Package
}

// Import implements types.Importer.
func (m *moduleImporter) Import(path string) (*types.Package, error) {
	if p, ok := m.local[path]; ok {
		return p, nil
	}
	return m.fallback.Import(path)
}

// check parses and type-checks one listed package, aggregating problems
// instead of failing.
func check(fset *token.FileSet, imp types.Importer, lp listedPackage) *Package {
	pkg := &Package{PkgPath: lp.ImportPath, Dir: lp.Dir}
	if lp.Error != nil {
		where := lp.Error.Pos
		if where == "" {
			where = lp.ImportPath
		}
		pkg.LoadErrors = append(pkg.LoadErrors, fmt.Errorf("%s: %s", where, lp.Error.Err))
	}
	for _, name := range lp.GoFiles {
		path := filepath.Join(lp.Dir, name)
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			// Parse errors come back as a scanner.ErrorList whose entries
			// carry positions; keep whatever partial AST exists.
			pkg.LoadErrors = append(pkg.LoadErrors, err)
		}
		if f != nil {
			pkg.Files = append(pkg.Files, f)
		}
	}
	if len(pkg.Files) == 0 {
		return pkg
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	conf := types.Config{
		Importer: imp,
		Error:    func(err error) { pkg.TypeErrors = append(pkg.TypeErrors, err) },
	}
	tpkg, err := conf.Check(lp.ImportPath, fset, pkg.Files, info)
	if err != nil && tpkg == nil {
		pkg.LoadErrors = append(pkg.LoadErrors, fmt.Errorf("type-checking %s: %v", lp.ImportPath, err))
		return pkg
	}
	pkg.Types = tpkg
	pkg.Info = info
	return pkg
}
