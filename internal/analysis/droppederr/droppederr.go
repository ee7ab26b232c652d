// Package droppederr flags silently discarded error returns — the failure
// mode the runtime can least afford on its I/O and spill paths, where a
// swallowed spill-write or block-close error silently loses map output
// while every test stays green.
//
// Flagged:
//
//   - expression statements whose call returns an error that nobody reads,
//     e.g. `f.Close()` or `disk.Remove(name)` on its own line;
//   - assignments that discard an error into the blank identifier,
//     e.g. `_ = w.Close()` or `n, _ := w.Write(p)`.
//
// Exempt (documented escape hatches, mirroring errcheck's defaults):
//
//   - deferred calls (`defer f.Close()`): an error from a deferred cleanup
//     has no error path to join by the time it fires;
//   - `go` statements: the result is unobtainable by construction
//     (goroleak audits those launches instead);
//   - fmt.Print/Printf/Println, and fmt.Fprint* writing to os.Stdout,
//     os.Stderr, a *strings.Builder or a *bytes.Buffer — targets that
//     cannot fail meaningfully;
//   - Write/WriteString/WriteByte/WriteRune on *strings.Builder and
//     *bytes.Buffer (documented to always return a nil error);
//   - Write on hash.Hash implementations (package path hash/* or
//     crypto/*), which never fail per the hash.Hash contract.
//
// Anything else must handle, propagate, join (errors.Join on an existing
// error path) or count (metrics cleanup counters) the error — or carry an
// explicit `//mrlint:ignore droppederr <reason>` directive.
package droppederr

import (
	"go/ast"
	"go/types"
	"strings"

	"mrtext/internal/analysis"
)

// Analyzer is the droppederr analysis.
var Analyzer = &analysis.Analyzer{
	Name: "droppederr",
	Doc:  "flags call results carrying an error that is silently discarded",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch stmt := n.(type) {
			case *ast.DeferStmt, *ast.GoStmt:
				// Exempt the call operand itself, but keep walking its
				// arguments and any function-literal body: errors dropped
				// *inside* a deferred closure are still findings.
				var call *ast.CallExpr
				if d, ok := stmt.(*ast.DeferStmt); ok {
					call = d.Call
				} else {
					call = stmt.(*ast.GoStmt).Call
				}
				for _, arg := range call.Args {
					ast.Inspect(arg, func(m ast.Node) bool { inspectStmt(pass, m); return true })
				}
				if fl, ok := call.Fun.(*ast.FuncLit); ok {
					ast.Inspect(fl.Body, func(m ast.Node) bool { inspectStmt(pass, m); return true })
				}
				return false
			default:
				inspectStmt(pass, n)
				return true
			}
		})
	}
	return nil
}

// inspectStmt reports n if it is a statement discarding an error.
func inspectStmt(pass *analysis.Pass, n ast.Node) {
	switch stmt := n.(type) {
	case *ast.ExprStmt:
		call, ok := stmt.X.(*ast.CallExpr)
		if !ok || exempt(pass, call) {
			return
		}
		if pos, ok := errResult(pass, call); ok {
			pass.Reportf(call.Pos(), "result %d (error) of %s is silently discarded", pos, callName(call))
		}
	case *ast.AssignStmt:
		checkAssign(pass, stmt)
	}
}

// errResult reports whether call returns an error among its results and the
// index of the first one.
func errResult(pass *analysis.Pass, call *ast.CallExpr) (int, bool) {
	tv, ok := pass.TypesInfo.Types[call]
	if !ok {
		return 0, false
	}
	switch t := tv.Type.(type) {
	case *types.Tuple:
		for i := 0; i < t.Len(); i++ {
			if isErrorType(t.At(i).Type()) {
				return i, true
			}
		}
	default:
		if isErrorType(tv.Type) {
			return 0, true
		}
	}
	return 0, false
}

// checkAssign flags error values assigned to the blank identifier.
func checkAssign(pass *analysis.Pass, stmt *ast.AssignStmt) {
	// Case 1: parallel assignment `a, _ = f(), g()` or simple `_ = expr`.
	if len(stmt.Lhs) == len(stmt.Rhs) {
		for i, lhs := range stmt.Lhs {
			if !isBlank(lhs) {
				continue
			}
			rhs := stmt.Rhs[i]
			if call, ok := rhs.(*ast.CallExpr); ok && exempt(pass, call) {
				continue
			}
			if tv, ok := pass.TypesInfo.Types[rhs]; ok && isErrorType(tv.Type) {
				pass.Reportf(lhs.Pos(), "error value of %s is discarded into _", exprName(rhs))
			}
		}
		return
	}
	// Case 2: multi-value call `a, _ := f()`.
	if len(stmt.Rhs) != 1 {
		return
	}
	call, ok := stmt.Rhs[0].(*ast.CallExpr)
	if !ok || exempt(pass, call) {
		return
	}
	tv, ok := pass.TypesInfo.Types[call]
	if !ok {
		return
	}
	tuple, ok := tv.Type.(*types.Tuple)
	if !ok || tuple.Len() != len(stmt.Lhs) {
		return
	}
	for i, lhs := range stmt.Lhs {
		if isBlank(lhs) && isErrorType(tuple.At(i).Type()) {
			pass.Reportf(lhs.Pos(), "error result of %s is discarded into _", callName(call))
		}
	}
}

func isBlank(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "_"
}

func isErrorType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj != nil && obj.Name() == "error" && obj.Pkg() == nil
}

// exempt applies the documented exemption list.
func exempt(pass *analysis.Pass, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	// Package-level fmt printers.
	if id, ok := sel.X.(*ast.Ident); ok {
		if obj, ok := pass.TypesInfo.Uses[id].(*types.PkgName); ok && obj.Imported().Path() == "fmt" {
			switch sel.Sel.Name {
			case "Print", "Printf", "Println":
				return true
			case "Fprint", "Fprintf", "Fprintln":
				return len(call.Args) > 0 && benignWriter(pass, call.Args[0])
			}
			return false
		}
	}
	// Methods: identify the receiver's type.
	tv, ok := pass.TypesInfo.Types[sel.X]
	if !ok {
		return false
	}
	recv := tv.Type
	switch sel.Sel.Name {
	case "Write", "WriteString", "WriteByte", "WriteRune":
		if isBuilderOrBuffer(recv) {
			return true
		}
	}
	if sel.Sel.Name == "Write" && hashLike(recv) {
		return true
	}
	return false
}

// benignWriter reports whether e is os.Stdout, os.Stderr, a
// *strings.Builder or a *bytes.Buffer.
func benignWriter(pass *analysis.Pass, e ast.Expr) bool {
	if sel, ok := e.(*ast.SelectorExpr); ok {
		if id, ok := sel.X.(*ast.Ident); ok {
			if obj, ok := pass.TypesInfo.Uses[id].(*types.PkgName); ok && obj.Imported().Path() == "os" {
				return sel.Sel.Name == "Stdout" || sel.Sel.Name == "Stderr"
			}
		}
	}
	tv, ok := pass.TypesInfo.Types[e]
	return ok && isBuilderOrBuffer(tv.Type)
}

func isBuilderOrBuffer(t types.Type) bool {
	name := namedPathDotName(t)
	return name == "strings.Builder" || name == "bytes.Buffer"
}

// hashLike reports whether t is declared in a hash/* or crypto/* package
// (hash.Hash implementations never return a write error).
func hashLike(t types.Type) bool {
	name := namedPathDotName(t)
	return strings.HasPrefix(name, "hash/") || strings.HasPrefix(name, "crypto/") ||
		strings.HasPrefix(name, "hash.") || strings.HasPrefix(name, "crypto.")
}

// namedPathDotName renders t (after stripping pointers) as "pkgpath.Name",
// or "" for non-named types.
func namedPathDotName(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return ""
	}
	obj := named.Obj()
	if obj.Pkg() == nil {
		return obj.Name()
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

// callName renders the called function for diagnostics.
func callName(call *ast.CallExpr) string { return exprName(call.Fun) }

func exprName(e ast.Expr) string {
	switch v := e.(type) {
	case *ast.CallExpr:
		return exprName(v.Fun)
	case *ast.Ident:
		return v.Name
	case *ast.SelectorExpr:
		if base := exprName(v.X); base != "" {
			return base + "." + v.Sel.Name
		}
		return v.Sel.Name
	case *ast.IndexExpr:
		return exprName(v.X)
	default:
		return "call"
	}
}
