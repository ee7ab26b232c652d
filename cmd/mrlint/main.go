// Command mrlint is the repository's static-analysis gate: it runs the
// stock `go vet` passes plus the project-specific analyzers of
// internal/analysis over the module and exits non-zero on any finding.
// CI runs `go run ./cmd/mrlint ./...` and fails the build on output.
//
// Usage:
//
//	mrlint [-vet=false] [packages...]
//
// Packages default to ./... resolved against the current directory, and
// are loaded in dependency order with one shared fact store, so the
// facts-based alloccheck sees its callees' summaries before analyzing the
// callers — packages pulled in only as dependencies of the named patterns
// are analyzed for their facts but not reported on. The custom analyzers
// check non-test library and binary sources; test files are vet's
// department.
//
// -h lists the analyzer suite. Load and type-check problems never vanish
// into a partial run: they are aggregated across all packages and printed
// with file positions to stderr before any finding.
//
// A finding can be suppressed at its site with
//
//	//mrlint:ignore <analyzer> <reason>
//
// on the offending line or the line directly above it. The reason is
// mandatory: a directive without one suppresses nothing and is itself a
// finding.
package main

import (
	"flag"
	"fmt"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"sort"

	"mrtext/internal/analysis"
	"mrtext/internal/analysis/alloccheck"
	"mrtext/internal/analysis/doccheck"
	"mrtext/internal/analysis/droppederr"
	"mrtext/internal/analysis/globalstate"
	"mrtext/internal/analysis/goroleak"
	"mrtext/internal/analysis/load"
	"mrtext/internal/analysis/lockcheck"
)

// analyzers is the mrlint suite, in report order. README, DESIGN §7 and
// docs/ARCHITECTURE.md list it too; docs_test.go keeps them in step.
var analyzers = []*analysis.Analyzer{
	droppederr.Analyzer,
	lockcheck.Analyzer,
	goroleak.Analyzer,
	doccheck.Analyzer,
	globalstate.Analyzer,
	alloccheck.Analyzer,
}

// docCheckedPkgs are the packages whose exported API doccheck audits: the
// runtime's documented public surface. Other packages are exempt so
// scratch code and experiment plumbing don't demand godoc polish. README
// and DESIGN §7 list them too, kept in step by docs_test.go.
var docCheckedPkgs = map[string]bool{
	"mrtext/internal/mr":         true,
	"mrtext/internal/kvio":       true,
	"mrtext/internal/trace":      true,
	"mrtext/internal/chaos":      true,
	"mrtext/internal/spillbuf":   true,
	"mrtext/internal/metrics":    true,
	"mrtext/internal/pprofserve": true,
	"mrtext/internal/mrserve":    true,
}

// globalStatePkgs are the packages globalstate audits for package-level
// mutable state: the runtime, whose concurrency contract (many jobs, one
// cluster, no state bleed) a shared package slot silently violates. New
// globals there must move onto the Job or carry a reasoned suppression.
var globalStatePkgs = map[string]bool{
	"mrtext/internal/mr": true,
}

// finding is one reportable diagnostic with its position resolved.
type finding struct {
	File     string
	Line     int
	Col      int
	Analyzer string
	Message  string
}

func main() {
	vet := flag.Bool("vet", true, "also run the stock `go vet` passes")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: mrlint [-vet=false] [packages...]\n\nanalyzers:\n")
		for _, a := range analyzers {
			fmt.Fprintf(os.Stderr, "  %-12s %s\n", a.Name, a.Doc)
		}
	}
	flag.Parse()
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	failed := false
	if *vet {
		cmd := exec.Command("go", append([]string{"vet"}, patterns...)...)
		cmd.Stdout = os.Stdout
		cmd.Stderr = os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "mrlint: go vet failed\n")
			failed = true
		}
	}

	findings, loadBroken := lint(patterns)
	if loadBroken {
		failed = true
	}
	if len(findings) > 0 {
		failed = true
	}

	for _, f := range findings {
		fmt.Printf("%s:%d:%d: [%s] %s\n", f.File, f.Line, f.Col, f.Analyzer, f.Message)
	}
	if failed {
		os.Exit(1)
	}
}

// lint loads the packages in dependency order and applies every analyzer
// with one shared fact store. It returns the unsuppressed findings of the
// listed (pattern-matched) packages, and whether load or analyzer errors
// should fail the run independently of findings.
func lint(patterns []string) ([]finding, bool) {
	pkgs, fset, err := load.Packages(".", patterns...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mrlint: %v\n", err)
		return nil, true
	}

	// Aggregate load and type-check problems across all packages first:
	// a broken package three directories away otherwise surfaces as a
	// mystery miss of cross-package facts.
	broken := false
	for _, pkg := range pkgs {
		for _, lerr := range pkg.LoadErrors {
			fmt.Fprintf(os.Stderr, "mrlint: %s: %v\n", pkg.PkgPath, lerr)
			broken = true
		}
		for _, terr := range pkg.TypeErrors {
			fmt.Fprintf(os.Stderr, "mrlint: %s: type error (analyzing anyway): %v\n", pkg.PkgPath, terr)
		}
	}

	facts := analysis.NewFacts()
	var findings []finding
	for _, pkg := range pkgs {
		if pkg.Types == nil {
			continue // load errors already reported above
		}
		supp := analysis.NewSuppressions(fset, pkg.Files)
		var diags []analysis.Diagnostic
		for _, a := range analyzers {
			if a == doccheck.Analyzer && !docCheckedPkgs[pkg.PkgPath] {
				continue
			}
			if a == globalstate.Analyzer && !globalStatePkgs[pkg.PkgPath] {
				continue
			}
			pass := &analysis.Pass{
				Analyzer:  a,
				Fset:      fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.Info,
				Report:    func(d analysis.Diagnostic) { diags = append(diags, d) },
				Facts:     facts,
			}
			if err := a.Run(pass); err != nil {
				fmt.Fprintf(os.Stderr, "mrlint: %s on %s: %v\n", a.Name, pkg.PkgPath, err)
				broken = true
			}
		}
		if !pkg.Listed {
			continue // analyzed for facts only
		}
		diags = append(diags, supp.Malformed()...)
		sort.Slice(diags, func(i, j int) bool {
			if diags[i].Pos != diags[j].Pos {
				return diags[i].Pos < diags[j].Pos
			}
			return diags[i].Category < diags[j].Category
		})
		for _, d := range diags {
			if supp.Suppressed(fset, d) {
				continue
			}
			findings = append(findings, toFinding(fset, d))
		}
	}
	return findings, broken
}

// toFinding resolves a diagnostic's position, preferring paths relative to
// the working directory so output is portable.
func toFinding(fset *token.FileSet, d analysis.Diagnostic) finding {
	pos := fset.Position(d.Pos)
	file := pos.Filename
	if wd, err := os.Getwd(); err == nil {
		if rel, err := filepath.Rel(wd, file); err == nil && !filepath.IsAbs(rel) && rel != "" && rel[0] != '.' {
			file = rel
		}
	}
	return finding{File: file, Line: pos.Line, Col: pos.Column, Analyzer: d.Category, Message: d.Message}
}
