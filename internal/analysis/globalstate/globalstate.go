// Package globalstate flags package-level mutable state in the packages
// the driver scopes it to (the mr runtime). The runtime's concurrency
// contract is that one cluster hosts many concurrent jobs with no state
// bleed between them: per-job state lives on the Job, per-run metrics in
// Job.Hists, tracing in Job.Trace. A package-level var is exactly the
// kind of shared slot that silently breaks that contract (a process-wide
// default tracer or package histogram bleeds one job's events into
// another's), so every new one must either not exist or carry an explicit
// //mrlint:ignore globalstate <reason> arguing why it cannot carry state
// between jobs.
//
// Error sentinels — package-level vars of type error initialized with
// errors.New or fmt.Errorf — are exempt: they are write-once by
// convention and exist so callers can errors.Is against them.
package globalstate

import (
	"go/ast"
	"go/token"
	"go/types"

	"mrtext/internal/analysis"
)

// Analyzer is the globalstate analysis.
var Analyzer = &analysis.Analyzer{
	Name: "globalstate",
	Doc:  "flags package-level mutable state in the runtime packages; per-job state must live on the Job, not in shared package slots",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.VAR {
				continue
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for i, name := range vs.Names {
					if name.Name == "_" {
						continue
					}
					if isErrorSentinel(pass, vs, i) {
						continue
					}
					pass.Reportf(name.Pos(),
						"package-level var %s is mutable shared state; scope it to the Job (or suppress with a reason why it cannot bleed state between jobs)",
						name.Name)
				}
			}
		}
	}
	return nil
}

// isErrorSentinel reports whether the i-th name of vs is an error-typed
// var initialized with errors.New or fmt.Errorf.
func isErrorSentinel(pass *analysis.Pass, vs *ast.ValueSpec, i int) bool {
	obj, ok := pass.TypesInfo.Defs[vs.Names[i]].(*types.Var)
	if !ok || obj.Type() == nil {
		return false
	}
	if !types.Identical(obj.Type(), types.Universe.Lookup("error").Type()) {
		return false
	}
	if len(vs.Values) <= i {
		return false
	}
	call, ok := ast.Unparen(vs.Values[i]).(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return false
	}
	switch fn.Pkg().Path() + "." + fn.Name() {
	case "errors.New", "fmt.Errorf":
		return true
	}
	return false
}
