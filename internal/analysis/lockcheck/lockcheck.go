// Package lockcheck targets the lock mistake vet does not: a mutex-guarded
// field touched without the mutex. For a struct with a sync.Mutex or
// sync.RWMutex field, a field that is *written* while the lock is held in
// one method but *accessed* in another method of the same type that never
// takes that lock is reported. This is the AST+types heuristic form of
// "field b.pending is guarded by b.mu" — exactly the shared state of the
// spill-buffer handoff. Methods that never touch the mutex and only read
// never-locked fields (pure config getters) are not flagged. Copied locks
// are vet's copylocks check, which mrlint runs first.
//
// The heuristic is method-granular, not path-sensitive: a method that
// locks anywhere is treated as holding the lock for all its accesses. That
// is deliberately permissive — the goal is catching forgotten locking in
// new methods, the way Stats() or Release() could regress, without false
// positives on the existing code's lock discipline. Methods whose name ends
// in "Locked" are treated the same way: the suffix is this repository's
// convention for "caller must hold the mutex" helpers (the fault-tolerance
// bookkeeping in internal/mr uses it), so their accesses are under the lock
// by contract.
package lockcheck

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"mrtext/internal/analysis"
)

// Analyzer is the lockcheck analysis.
var Analyzer = &analysis.Analyzer{
	Name: "lockcheck",
	Doc:  "flags struct fields accessed both under and outside their mutex",
	Run:  run,
}

// structInfo accumulates per-struct lock usage across its methods.
type structInfo struct {
	name     string
	muFields map[string]bool // mutex/rwmutex field names
	methods  []*methodInfo
}

type methodInfo struct {
	name  string
	locks bool
	// reads/writes map field name -> first access position.
	reads  map[string]token.Pos
	writes map[string]token.Pos
}

func run(pass *analysis.Pass) error {
	structs := make(map[string]*structInfo)

	// Pass A: find struct types with sync.Mutex/sync.RWMutex fields.
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok {
				return true
			}
			st, ok := ts.Type.(*ast.StructType)
			if !ok {
				return true
			}
			info := &structInfo{name: ts.Name.Name, muFields: make(map[string]bool)}
			for _, f := range st.Fields.List {
				tv, ok := pass.TypesInfo.Types[f.Type]
				if !ok {
					continue
				}
				name := namedName(tv.Type)
				if name == "sync.Mutex" || name == "sync.RWMutex" {
					for _, id := range f.Names {
						info.muFields[id.Name] = true
					}
				}
			}
			if len(info.muFields) > 0 {
				structs[ts.Name.Name] = info
			}
			return true
		})
	}
	if len(structs) == 0 {
		return nil
	}

	// Pass B: classify each method's lock usage and field accesses.
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Recv == nil || len(fd.Recv.List) == 0 || fd.Body == nil {
				continue
			}
			recvName, structName := receiver(fd)
			info, ok := structs[structName]
			if !ok || recvName == "" {
				continue
			}
			m := &methodInfo{
				name:   fd.Name.Name,
				reads:  make(map[string]token.Pos),
				writes: make(map[string]token.Pos),
			}
			collectAccesses(pass, fd, recvName, info, m)
			// The *Locked suffix documents "caller holds the mutex": such
			// helpers access guarded state under the lock by contract even
			// though the Lock call lives in their callers.
			if strings.HasSuffix(m.name, "Locked") {
				m.locks = true
			}
			info.methods = append(info.methods, m)
		}
	}

	// Pass C: report fields written under the lock but accessed lock-free.
	for _, info := range structs {
		guarded := make(map[string]bool)
		for _, m := range info.methods {
			if m.locks {
				for f := range m.writes {
					guarded[f] = true
				}
			}
		}
		for _, m := range info.methods {
			if m.locks {
				continue
			}
			for f, pos := range m.reads {
				if guarded[f] {
					pass.Reportf(pos, "%s.%s reads field %s without holding the mutex that guards its writes", info.name, m.name, f)
				}
			}
			for f, pos := range m.writes {
				if guarded[f] {
					pass.Reportf(pos, "%s.%s writes field %s without holding the mutex that guards it", info.name, m.name, f)
				}
			}
		}
	}
	return nil
}

// receiver extracts the receiver variable name and its struct type name.
func receiver(fd *ast.FuncDecl) (recvName, structName string) {
	f := fd.Recv.List[0]
	t := f.Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	if idx, ok := t.(*ast.IndexExpr); ok { // generic receiver T[P]
		t = idx.X
	}
	id, ok := t.(*ast.Ident)
	if !ok {
		return "", ""
	}
	if len(f.Names) == 0 {
		return "", id.Name
	}
	return f.Names[0].Name, id.Name
}

// collectAccesses walks a method body recording recv.field reads/writes and
// whether the mutex is operated.
func collectAccesses(pass *analysis.Pass, fd *ast.FuncDecl, recvName string, info *structInfo, m *methodInfo) {
	isRecvField := func(e ast.Expr) (string, bool) {
		sel, ok := e.(*ast.SelectorExpr)
		if !ok {
			return "", false
		}
		id, ok := sel.X.(*ast.Ident)
		if !ok || id.Name != recvName {
			return "", false
		}
		return sel.Sel.Name, true
	}

	record := func(name string, pos token.Pos, write bool) {
		if info.muFields[name] {
			return // the mutex itself
		}
		if write {
			if _, ok := m.writes[name]; !ok {
				m.writes[name] = pos
			}
		} else if _, ok := m.reads[name]; !ok {
			m.reads[name] = pos
		}
	}

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.CallExpr:
			// recv.mu.Lock() / RLock() marks the method as locking. A method
			// operating a sync.Cond built over the mutex (cond.Wait) also
			// holds it by contract.
			if sel, ok := v.Fun.(*ast.SelectorExpr); ok {
				switch sel.Sel.Name {
				case "Lock", "RLock":
					if inner, ok := isRecvFieldSel(sel.X, recvName); ok && info.muFields[inner] {
						m.locks = true
					}
				case "Wait":
					if tv, ok := pass.TypesInfo.Types[sel.X]; ok && namedName(tv.Type) == "sync.Cond" {
						m.locks = true
					}
				}
			}
		case *ast.AssignStmt:
			for _, lhs := range v.Lhs {
				if name, ok := isRecvField(lhs); ok {
					record(name, lhs.Pos(), true)
				}
			}
			for _, rhs := range v.Rhs {
				markReads(rhs, isRecvField, record)
			}
			return false
		case *ast.IncDecStmt:
			if name, ok := isRecvField(v.X); ok {
				record(name, v.X.Pos(), true)
			}
			return false
		case *ast.SelectorExpr:
			if name, ok := isRecvField(v); ok {
				record(name, v.Pos(), false)
			}
			return false
		}
		return true
	})
}

// isRecvFieldSel unwraps recv.field (possibly through a pointer) returning
// the field name.
func isRecvFieldSel(e ast.Expr, recvName string) (string, bool) {
	sel, ok := e.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok || id.Name != recvName {
		return "", false
	}
	return sel.Sel.Name, true
}

// markReads records every recv.field read inside e.
func markReads(e ast.Expr, isRecvField func(ast.Expr) (string, bool), record func(string, token.Pos, bool)) {
	ast.Inspect(e, func(n ast.Node) bool {
		if expr, ok := n.(ast.Expr); ok {
			if name, ok := isRecvField(expr); ok {
				record(name, expr.Pos(), false)
				return false
			}
		}
		return true
	})
}

// namedName renders a (possibly pointer) named type as "pkg.Name" using the
// package's short name.
func namedName(t types.Type) string {
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
	return obj.Pkg().Name() + "." + obj.Name()
}
