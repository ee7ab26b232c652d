// Package alloccheck statically enforces the allocation discipline the
// paper's measurements rest on: the per-record map/spill/merge path must
// not heap-allocate. The TestGroundTruth* gates measure that dynamically
// with testing.AllocsPerRun; this analyzer is the static half — it stops
// the next change from quietly reintroducing a byte↔string conversion or an
// interface boxing into a hot loop, in the spirit of Jahani & Cafarella's
// "Automatic Optimization for MapReduce Programs" (analyze user code to
// remove abstraction costs).
//
// # Contract
//
// A function opts in by carrying the directive
//
//	//mrlint:hotpath
//
// on its own line inside the doc comment. Inside a hot function every
// allocating construct is reported, and — via per-function facts computed
// bottom-up over the package DAG — so is every call to a function that
// allocates, no matter how many packages away the actual allocation sits;
// the diagnostic at the call site names the offending chain.
//
// # Allocation model
//
// Flagged as allocating:
//
//   - conversions between []byte/[]rune and string (they copy), except in
//     contexts the compiler provably optimizes: a map access key (read,
//     not write), an operand of a comparison, a switch tag, a range
//     expression, an argument to len/cap/delete, and an argument to a
//     function whose corresponding parameter is known not to escape
//     (EscapesParams fact, or the curated stdlib predicate table) — the
//     compiler stack-allocates those for short inputs (≤ 32 bytes);
//   - interface boxing: a non-constant value of non-pointer-shaped
//     concrete type passed where an interface (including any) is expected,
//     at call sites, returns, and explicit conversions;
//   - every fmt.* call (formatting boxes through ...any and buffers);
//   - closures that capture variables (the context escapes), unless
//     immediately invoked;
//   - map and slice composite literals, &T{...} literals, make and new;
//   - append, unless the destination evidently has caller- or
//     self-managed capacity: a parameter, a struct field, an x[:0]
//     reslice, or a variable assigned from make with an explicit capacity
//     in the same function (amortized growth of a reused buffer counts as
//     alloc-free, matching what testing.AllocsPerRun observes in steady
//     state; make as append's spread argument is the compiler-recognized
//     extend idiom and exempt);
//   - calls to functions whose summary says they allocate — same-package
//     summaries are computed on demand, cross-package ones arrive as
//     Allocates facts.
//
// Known model limits, accepted on purpose: calls through interfaces or
// func values and calls into not-analyzed packages are trusted not to
// allocate unless the curated table says otherwise (the runtime's hot
// loops call concrete code the driver loads, so in practice the summaries
// cover them); the ≤ 32-byte bound on stack-allocated conversions is the
// caller's to respect; path sensitivity (an allocation on a cold error
// branch inside a hot function) is out of scope — cold branches carry an
// //mrlint:ignore alloccheck directive with the reason instead. The model
// is validated, not asserted: the ground-truth test cross-checks every
// verdict against testing.AllocsPerRun over the allocfix fixture corpus.
package alloccheck

import (
	"go/ast"
	"go/types"
	"strings"

	"mrtext/internal/analysis"
)

// hotDirective marks a function as being on the measured hot path.
const hotDirective = "//mrlint:hotpath"

// Allocates is the fact exported on every analyzed function that may heap
// allocate per call. Why carries the first offending construct with its
// position and, for transitive verdicts, the call chain down to it.
type Allocates struct {
	Why string
}

// AFact marks Allocates as a fact type.
func (*Allocates) AFact() {}

// AllocFree is the fact exported on every analyzed function the model
// proves allocation-free, distinguishing "analyzed and clean" from "never
// analyzed" when mrlint runs on a package subset.
type AllocFree struct{}

// AFact marks AllocFree as a fact type.
func (*AllocFree) AFact() {}

// EscapesParams is the fact recording which of a function's parameters
// (0-based, receiver excluded) may escape to the heap. A parameter absent
// from Escaping is known non-escaping, which lets callers pass it a
// byte↔string conversion without paying an allocation.
type EscapesParams struct {
	Escaping []int
}

// AFact marks EscapesParams as a fact type.
func (*EscapesParams) AFact() {}

// Analyzer is the alloccheck analysis.
var Analyzer = &analysis.Analyzer{
	Name:      "alloccheck",
	Doc:       "flags heap-allocating constructs in //mrlint:hotpath functions, following calls across packages via facts",
	FactTypes: []analysis.Fact{new(Allocates), new(AllocFree), new(EscapesParams)},
	Run:       run,
}

func run(pass *analysis.Pass) error {
	a := &analyzer{
		pass:      pass,
		decls:     make(map[*types.Func]*ast.FuncDecl),
		summaries: make(map[*types.Func]*summary),
		// Suppressions are consulted while summarizing, not only while
		// reporting: a site carrying a reasoned //mrlint:ignore alloccheck
		// directive is excluded from the function's exported fact too, so
		// the written reason vouches for callers as well.
		supp: analysis.NewSuppressions(pass.Fset, pass.Files),
	}
	// Collect this package's function declarations in file order so the
	// summary pass and fact export are deterministic.
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if obj, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok && obj != nil {
				a.decls[obj] = fd
				a.order = append(a.order, obj)
			}
		}
	}

	// Bottom-up summary pass: summarize every function (the local call
	// graph is walked on demand) and export the verdicts as facts for the
	// packages that import this one.
	for _, obj := range a.order {
		s := a.summarize(obj)
		if s.allocates() {
			pass.ExportObjectFact(obj, &Allocates{Why: s.why()})
		} else {
			pass.ExportObjectFact(obj, &AllocFree{})
		}
		if len(s.escaping) > 0 {
			pass.ExportObjectFact(obj, &EscapesParams{Escaping: s.escaping})
		}
	}

	// Reporting pass: every allocation site inside a hot function, with
	// transitive calls reported at the call site with their chain.
	for _, obj := range a.order {
		fd := a.decls[obj]
		if !isHot(fd) {
			continue
		}
		for _, site := range a.summaries[obj].sites {
			if site.callee != nil {
				pass.Reportf(site.pos, "hot path: call to %s allocates: %s", site.desc, site.calleeWhy)
			} else {
				pass.Reportf(site.pos, "hot path: %s", site.desc)
			}
		}
	}
	return nil
}

// isHot reports whether the function's doc comment carries the
// //mrlint:hotpath directive on a line of its own.
func isHot(fd *ast.FuncDecl) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		if strings.TrimSpace(c.Text) == hotDirective {
			return true
		}
	}
	return false
}
