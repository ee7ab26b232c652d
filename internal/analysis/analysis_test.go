package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

// suppSrc exercises every directive placement the Suppressions contract
// defines. Each interesting line carries a unique needle string so tests
// can locate it by content instead of hard-coding line numbers.
const suppSrc = `package p

func f() {
	_ = "same-line" //mrlint:ignore lockcheck scratch buffer, reused across calls
	//mrlint:ignore doccheck generated file, exempt from doc conventions
	_ = "line-above"

	//mrlint:ignore all demo fixture, every analyzer silenced here
	_ = "wildcard"

	//mrlint:ignore lockcheck
	_ = "missing-reason"

	//mrlint:ignore
	_ = "missing-analyzer"

	//mrlint:ignore lockcheck amortized growth //mrlint:ignore droppederr best-effort status write
	_ = "two-directives"

	// Prose that mentions the //mrlint:ignore marker mid-comment is
	// documentation, not a directive.
	_ = "prose-mention"

	//mrlint:ignore printf a vet pass, not one of the suite
	_ = "foreign-analyzer"

	//mrlint:ignore dropederr misspelled analyzer name
	_ = "misspelled-analyzer"

	//mrlint:ignore doccheck directive two lines up must not reach here

	_ = "two-above"
}
`

// suite stands in for mrlint's analyzers: only their names matter here.
var suite = []*Analyzer{{Name: "droppederr"}, {Name: "lockcheck"}, {Name: "goroleak"}, {Name: "doccheck"}, {Name: "globalstate"}}

// parseSupp parses suppSrc and returns the suppression index plus the fset.
func parseSupp(t *testing.T) (*Suppressions, *token.FileSet) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "supp.go", suppSrc, parser.ParseComments)
	if err != nil {
		t.Fatalf("parsing fixture: %v", err)
	}
	return NewSuppressions(fset, []*ast.File{f}, suite), fset
}

// lineOf returns the 1-based line of the first occurrence of needle.
func lineOf(t *testing.T, needle string) int {
	t.Helper()
	i := strings.Index(suppSrc, needle)
	if i < 0 {
		t.Fatalf("needle %q not in fixture", needle)
	}
	return 1 + strings.Count(suppSrc[:i], "\n")
}

// diagAtLine fabricates a diagnostic positioned at the given fixture line.
func diagAtLine(fset *token.FileSet, line int, analyzer string) Diagnostic {
	var pos token.Pos
	fset.Iterate(func(f *token.File) bool {
		pos = f.LineStart(line)
		return false
	})
	return Diagnostic{Pos: pos, Category: analyzer, Message: "test finding"}
}

func TestSuppressedSameLine(t *testing.T) {
	s, fset := parseSupp(t)
	line := lineOf(t, `"same-line"`)
	if !s.Suppressed(fset, diagAtLine(fset, line, "lockcheck")) {
		t.Errorf("directive on the offending line did not suppress lockcheck at line %d", line)
	}
	if s.Suppressed(fset, diagAtLine(fset, line, "doccheck")) {
		t.Errorf("same-line directive for lockcheck wrongly suppressed doccheck")
	}
}

func TestSuppressedLineAbove(t *testing.T) {
	s, fset := parseSupp(t)
	line := lineOf(t, `"line-above"`)
	if !s.Suppressed(fset, diagAtLine(fset, line, "doccheck")) {
		t.Errorf("directive on the line above did not suppress doccheck at line %d", line)
	}
}

func TestSuppressedAllWildcard(t *testing.T) {
	s, fset := parseSupp(t)
	line := lineOf(t, `"wildcard"`)
	for _, analyzer := range []string{"lockcheck", "doccheck", "goroleak"} {
		if !s.Suppressed(fset, diagAtLine(fset, line, analyzer)) {
			t.Errorf("//mrlint:ignore all did not suppress %s at line %d", analyzer, line)
		}
	}
}

func TestMissingReasonIsMalformedAndDoesNotSuppress(t *testing.T) {
	s, fset := parseSupp(t)
	line := lineOf(t, `"missing-reason"`)
	if s.Suppressed(fset, diagAtLine(fset, line, "lockcheck")) {
		t.Errorf("reason-less directive suppressed a finding; the reason is mandatory")
	}
	var noReason, noAnalyzer int
	for _, d := range s.Malformed() {
		switch {
		case strings.Contains(d.Message, "no reason"):
			noReason++
		case strings.Contains(d.Message, "names no analyzer"):
			noAnalyzer++
		case strings.Contains(d.Message, "not an analyzer of the suite"):
		default:
			t.Errorf("unexpected malformed-directive message: %s", d.Message)
		}
	}
	if noReason != 1 {
		t.Errorf("got %d reason-less malformed directives, want 1", noReason)
	}
	if noAnalyzer != 1 {
		t.Errorf("got %d analyzer-less malformed directives, want 1", noAnalyzer)
	}
}

func TestUnknownAnalyzerIsMalformedAndDoesNotSuppress(t *testing.T) {
	s, fset := parseSupp(t)
	reported := make(map[int]string)
	for _, d := range s.Malformed() {
		if strings.Contains(d.Message, "not an analyzer of the suite") {
			reported[fset.Position(d.Pos).Line] = d.Message
		}
	}
	for _, c := range []struct{ needle, name string }{
		{`"foreign-analyzer"`, "printf"},
		{`"misspelled-analyzer"`, "dropederr"},
	} {
		line := lineOf(t, c.needle)
		if msg := reported[line-1]; !strings.Contains(msg, `"`+c.name+`"`) {
			t.Errorf("directive naming %q above line %d was not reported (got %q)", c.name, line, msg)
		}
		for _, analyzer := range []string{c.name, "droppederr"} {
			if s.Suppressed(fset, diagAtLine(fset, line, analyzer)) {
				t.Errorf("directive naming %q suppressed a %s finding at line %d", c.name, analyzer, line)
			}
		}
	}
	if len(reported) != 2 {
		t.Errorf("got %d unknown-analyzer directives, want 2: %v", len(reported), reported)
	}
}

func TestMultipleDirectivesPerComment(t *testing.T) {
	s, fset := parseSupp(t)
	line := lineOf(t, `"two-directives"`)
	for _, analyzer := range []string{"lockcheck", "droppederr"} {
		if !s.Suppressed(fset, diagAtLine(fset, line, analyzer)) {
			t.Errorf("repeated-marker comment did not suppress %s at line %d", analyzer, line)
		}
	}
	if s.Suppressed(fset, diagAtLine(fset, line, "doccheck")) {
		t.Errorf("repeated-marker comment wrongly suppressed an analyzer it does not name")
	}
}

func TestProseMentionIsNotADirective(t *testing.T) {
	s, fset := parseSupp(t)
	line := lineOf(t, `"prose-mention"`)
	if s.Suppressed(fset, diagAtLine(fset, line, "all")) ||
		s.Suppressed(fset, diagAtLine(fset, line, "lockcheck")) {
		t.Errorf("a comment mentioning the marker mid-prose acted as a directive")
	}
	// Nor may prose mentions be reported as malformed (they are not
	// directives at all).
	for _, d := range s.Malformed() {
		if fset.Position(d.Pos).Line == line-2 || fset.Position(d.Pos).Line == line-1 {
			t.Errorf("prose mention was recorded as a malformed directive: %s", d.Message)
		}
	}
}

func TestDirectiveTwoLinesAboveDoesNotSuppress(t *testing.T) {
	s, fset := parseSupp(t)
	line := lineOf(t, `"two-above"`)
	if s.Suppressed(fset, diagAtLine(fset, line, "doccheck")) {
		t.Errorf("directive two lines above the finding suppressed it; only the line and line-above count")
	}
}

func TestZeroAndNilSuppressions(t *testing.T) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "z.go", "package z\n", parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	d := Diagnostic{Pos: f.Pos(), Category: "lockcheck"}
	var zero Suppressions
	if zero.Suppressed(fset, d) {
		t.Errorf("zero-value Suppressions suppressed a finding")
	}
	var nilSupp *Suppressions
	if nilSupp.Suppressed(fset, d) {
		t.Errorf("nil Suppressions suppressed a finding")
	}
	if got := nilSupp.Malformed(); got != nil {
		t.Errorf("nil Suppressions reported malformed directives: %v", got)
	}
}
