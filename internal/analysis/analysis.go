// Package analysis is a minimal, dependency-free re-implementation of the
// golang.org/x/tools/go/analysis API surface that mrlint's analyzers need.
// The reproduction environment is offline and the module is deliberately
// dependency-free, so instead of pulling in x/tools we provide the same
// Analyzer/Pass/Diagnostic contract over the standard library's go/ast and
// go/types. Analyzers written against this package are source-compatible
// with the upstream framework in everything they do (one Run function per
// package, diagnostics reported through the Pass), so they could be moved
// onto the real multichecker wholesale if the module ever vendors x/tools.
//
// # Suppressions
//
// Findings can be suppressed at a specific site with a line comment:
//
//	//mrlint:ignore <analyzer> <reason>
//
// placed on the offending line or the line directly above it. The analyzer
// name may be "all" to silence every analyzer for that line. The reason is
// mandatory, and the name must be "all" or an analyzer of the suite: a
// directive without a reason, or naming an analyzer the suite does not run
// (a stale or misspelled name), does not suppress anything and is itself
// reported by the driver. Several directives may share one comment
// by repeating the //mrlint:ignore marker.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer describes one static check: a name (used in diagnostics and
// suppression directives), user-facing documentation, and the Run function
// applied once per loaded package.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass) error
}

// Pass carries one package's syntax and type information to an analyzer,
// mirroring x/tools' analysis.Pass.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	Report    func(Diagnostic)
}

// Reportf reports a diagnostic at pos with a formatted message.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Category: p.Analyzer.Name, Message: fmt.Sprintf(format, args...)})
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
	// malformed records directives that name no analyzer of the suite or
	// carry no reason; they suppress nothing and the driver reports them.
	malformed []Diagnostic
}

// NewSuppressions scans the comments of files (which must have been parsed
// with comments) and records every directive. One comment may carry
// several directives by repeating the //mrlint:ignore marker; each
// directive's scope runs to the next marker (or end of comment), so the
// analyzer name is the first field and the rest is its reason. A directive
// whose name is neither "all" nor one of the suite's, or that has no reason,
// is recorded as malformed and does not suppress.
func NewSuppressions(fset *token.FileSet, files []*ast.File, suite []*Analyzer) *Suppressions {
	s := &Suppressions{byFile: make(map[string]map[int]map[string]bool)}
	known := map[string]bool{"all": true}
	for _, a := range suite {
		known[a.Name] = true
	}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				s.scan(fset, c, known)
			}
		}
	}
	return s
}

// scan records every directive of one comment; known holds the names a
// directive may give. Only comments that begin with the marker are
// directives; a comment merely mentioning //mrlint:ignore mid-prose
// (documentation about the convention) is not.
func (s *Suppressions) scan(fset *token.FileSet, c *ast.Comment, known map[string]bool) {
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
		case !known[fields[0]]:
			s.malformed = append(s.malformed, Diagnostic{
				Pos:      c.Pos(),
				Category: "mrlint",
				Message:  fmt.Sprintf("suppression names %q, which is not an analyzer of the suite; it suppresses nothing", fields[0]),
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

// Malformed returns the directives found during the scan that name no
// analyzer of the suite or carry no reason, sorted by position. The driver
// reports them as findings so the convention is mechanically enforced, not
// just reviewed.
func (s *Suppressions) Malformed() []Diagnostic {
	if s == nil {
		return nil
	}
	out := append([]Diagnostic(nil), s.malformed...)
	sort.Slice(out, func(i, j int) bool { return out[i].Pos < out[j].Pos })
	return out
}
