// Package analysis is a minimal, dependency-free re-implementation of the
// golang.org/x/tools/go/analysis API surface that mrlint's analyzers need.
// The reproduction environment is offline and the module is deliberately
// dependency-free, so instead of pulling in x/tools we provide the same
// Analyzer/Pass/Diagnostic contract over the standard library's go/ast and
// go/types. Analyzers written against this package are source-compatible
// with the upstream framework in everything they do (one Run function per
// package, diagnostics reported through the Pass, per-object facts exported
// bottom-up across the package DAG), so they could be moved onto the real
// multichecker wholesale if the module ever vendors x/tools.
//
// # Facts
//
// An analyzer that declares FactTypes participates in cross-package
// propagation: when the driver schedules packages in dependency order (see
// internal/analysis/load), a fact exported on a types.Object while
// analyzing package P is visible through ImportObjectFact to the same
// analyzer when it later runs on any package that imports P. Facts are how
// alloccheck's per-function allocation summaries cross package boundaries.
// Unlike x/tools, facts live in memory for the life of one driver process
// rather than being gob-serialized into export data; the visible semantics
// are the same.
//
// # Suppressions
//
// Findings can be suppressed at a specific site with a line comment:
//
//	//mrlint:ignore <analyzer> <reason>
//
// placed on the offending line or the line directly above it. The analyzer
// name may be "all" to silence every analyzer for that line. The reason is
// mandatory: a directive without one does not suppress anything and is
// itself reported by the driver. Several directives may share one comment
// by repeating the //mrlint:ignore marker.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"reflect"
	"sort"
	"strings"
)

// Analyzer describes one static check: a name (used in diagnostics and
// suppression directives), user-facing documentation, the fact types it
// exchanges across packages (nil for purely local analyzers), and the Run
// function applied once per loaded package.
type Analyzer struct {
	Name string
	Doc  string
	// FactTypes declares the pointer types of facts this analyzer may
	// export or import. Like x/tools, exporting or importing an undeclared
	// fact type is a programming error and panics.
	FactTypes []Fact
	Run       func(*Pass) error
}

// Fact is a datum one analyzer attaches to a types.Object in one package
// and reads back while analyzing a dependent package. Implementations must
// be pointer types; the AFact method only marks the type.
type Fact interface{ AFact() }

// ObjectFact pairs an object with one fact attached to it.
type ObjectFact struct {
	Object types.Object
	Fact   Fact
}

// factKey identifies one (object, concrete fact type) slot in the store.
type factKey struct {
	obj types.Object
	typ reflect.Type
}

// Facts is the in-process fact store one driver run shares across every
// (analyzer, package) pass. Object identity is the key, which is why the
// loader must type-check the whole package DAG with a single importer: the
// *types.Func seen by the defining package and by its importers must be
// the same object.
type Facts struct {
	m map[factKey]Fact
	// order records insertion order per analyzer so AllObjectFacts is
	// deterministic without sorting by unstable object pointers.
	order map[*Analyzer][]ObjectFact
}

// NewFacts returns an empty fact store.
func NewFacts() *Facts {
	return &Facts{m: make(map[factKey]Fact), order: make(map[*Analyzer][]ObjectFact)}
}

// Pass carries one package's syntax and type information to an analyzer,
// mirroring x/tools' analysis.Pass. Facts is the driver-wide store; a nil
// Facts makes exports no-ops and imports always miss, so purely local
// analyzers and old tests run unchanged.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	Report    func(Diagnostic)
	Facts     *Facts
}

// Reportf reports a diagnostic at pos with a formatted message.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Category: p.Analyzer.Name, Message: fmt.Sprintf(format, args...)})
}

// checkFactType panics unless fact's concrete type is a pointer type the
// analyzer declared in FactTypes, matching x/tools' contract.
func (p *Pass) checkFactType(fact Fact) reflect.Type {
	t := reflect.TypeOf(fact)
	if t == nil || t.Kind() != reflect.Pointer {
		panic(fmt.Sprintf("analysis: fact %T is not a pointer type", fact))
	}
	for _, ft := range p.Analyzer.FactTypes {
		if reflect.TypeOf(ft) == t {
			return t
		}
	}
	panic(fmt.Sprintf("analysis: analyzer %s did not declare fact type %T in FactTypes", p.Analyzer.Name, fact))
}

// ExportObjectFact attaches fact to obj for later passes of the same
// analyzer on importing packages. A second export of the same fact type on
// the same object overwrites the first.
func (p *Pass) ExportObjectFact(obj types.Object, fact Fact) {
	t := p.checkFactType(fact)
	if p.Facts == nil || obj == nil {
		return
	}
	key := factKey{obj: obj, typ: t}
	if _, seen := p.Facts.m[key]; !seen {
		p.Facts.order[p.Analyzer] = append(p.Facts.order[p.Analyzer], ObjectFact{Object: obj, Fact: fact})
	} else {
		// Overwrite in place in the ordered log too, so AllObjectFacts
		// reflects the final value exactly once.
		for i, of := range p.Facts.order[p.Analyzer] {
			if of.Object == obj && reflect.TypeOf(of.Fact) == t {
				p.Facts.order[p.Analyzer][i].Fact = fact
				break
			}
		}
	}
	p.Facts.m[key] = fact
}

// ImportObjectFact copies the fact of fact's concrete type previously
// exported on obj into *fact and reports whether one was found.
func (p *Pass) ImportObjectFact(obj types.Object, fact Fact) bool {
	t := p.checkFactType(fact)
	if p.Facts == nil || obj == nil {
		return false
	}
	stored, ok := p.Facts.m[factKey{obj: obj, typ: t}]
	if !ok {
		return false
	}
	reflect.ValueOf(fact).Elem().Set(reflect.ValueOf(stored).Elem())
	return true
}

// AllObjectFacts returns every fact this analyzer has exported so far, in
// export order. The ground-truth tests read analyzer verdicts out of the
// store this way.
func (p *Pass) AllObjectFacts() []ObjectFact {
	if p.Facts == nil {
		return nil
	}
	return append([]ObjectFact(nil), p.Facts.order[p.Analyzer]...)
}

// Diagnostic is one finding: a position, the analyzer that produced it, and
// a message.
type Diagnostic struct {
	Pos      token.Pos
	Category string
	Message  string
}

// ignorePrefix introduces a suppression directive comment.
const ignorePrefix = "//mrlint:ignore"

// Suppressions indexes //mrlint:ignore directives of a set of files so the
// driver can filter diagnostics. The zero value suppresses nothing.
type Suppressions struct {
	// byFile maps filename -> line -> set of suppressed analyzer names.
	byFile map[string]map[int]map[string]bool
	// malformed records directives that name an analyzer but carry no
	// reason; they suppress nothing and the driver reports them.
	malformed []Diagnostic
}

// NewSuppressions scans the comments of files (which must have been parsed
// with comments) and records every directive. One comment may carry
// several directives by repeating the //mrlint:ignore marker; each
// directive's scope runs to the next marker (or end of comment), so the
// analyzer name is the first field and the rest is its reason. A directive
// with no reason is recorded as malformed and does not suppress.
func NewSuppressions(fset *token.FileSet, files []*ast.File) *Suppressions {
	s := &Suppressions{byFile: make(map[string]map[int]map[string]bool)}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				s.scan(fset, c)
			}
		}
	}
	return s
}

// scan records every directive of one comment. Only comments that begin
// with the marker are directives; a comment merely mentioning
// //mrlint:ignore mid-prose (documentation about the convention) is not.
func (s *Suppressions) scan(fset *token.FileSet, c *ast.Comment) {
	text := c.Text
	if !strings.HasPrefix(text, ignorePrefix) {
		return
	}
	for {
		i := strings.Index(text, ignorePrefix)
		if i < 0 {
			return
		}
		directive := text[i+len(ignorePrefix):]
		text = directive // continue scanning after this marker
		if end := strings.Index(directive, ignorePrefix); end >= 0 {
			directive = directive[:end]
		}
		fields := strings.Fields(directive)
		pos := fset.Position(c.Pos())
		switch {
		case len(fields) == 0:
			s.malformed = append(s.malformed, Diagnostic{
				Pos:      c.Pos(),
				Category: "mrlint",
				Message:  "suppression directive names no analyzer (want //mrlint:ignore <analyzer> <reason>)",
			})
		case len(fields) == 1:
			s.malformed = append(s.malformed, Diagnostic{
				Pos:      c.Pos(),
				Category: "mrlint",
				Message:  fmt.Sprintf("suppression of %q carries no reason; the reason is mandatory and it does not suppress until one is written", fields[0]),
			})
		default:
			lines := s.byFile[pos.Filename]
			if lines == nil {
				lines = make(map[int]map[string]bool)
				s.byFile[pos.Filename] = lines
			}
			if lines[pos.Line] == nil {
				lines[pos.Line] = make(map[string]bool)
			}
			lines[pos.Line][fields[0]] = true
		}
	}
}

// Suppressed reports whether a diagnostic from the named analyzer at pos is
// silenced by a directive on its line or the line above.
func (s *Suppressions) Suppressed(fset *token.FileSet, d Diagnostic) bool {
	if s == nil || s.byFile == nil {
		return false
	}
	pos := fset.Position(d.Pos)
	lines, ok := s.byFile[pos.Filename]
	if !ok {
		return false
	}
	for _, line := range []int{pos.Line, pos.Line - 1} {
		if names, ok := lines[line]; ok {
			if names[d.Category] || names["all"] {
				return true
			}
		}
	}
	return false
}

// Malformed returns the reason-less directives found during the scan,
// sorted by position. The driver reports them as findings so the
// reason-is-mandatory convention is mechanically enforced, not just
// reviewed.
func (s *Suppressions) Malformed() []Diagnostic {
	if s == nil {
		return nil
	}
	out := append([]Diagnostic(nil), s.malformed...)
	sort.Slice(out, func(i, j int) bool { return out[i].Pos < out[j].Pos })
	return out
}
