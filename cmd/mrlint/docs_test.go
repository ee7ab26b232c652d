package main

import (
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"
)

var (
	// analyzerEntry is how the docs introduce an analyzer: its backticked
	// name followed by a parenthesized summary (README, ARCHITECTURE) or
	// an em dash (DESIGN's list).
	analyzerEntry = regexp.MustCompile("`([a-z]+)`\\s*[(—]")
	// countWord is a stated analyzer count ("Six analyzers", "the six
	// analyzers").
	countWord = regexp.MustCompile(`(?i)\b([a-z]+)\s+analyzers\b`)
	// pkgName is a backticked module-local package path.
	pkgName = regexp.MustCompile("`(internal/[a-z/]+)`")

	numberWords = map[string]int{
		"one": 1, "two": 2, "three": 3, "four": 4, "five": 5, "six": 6,
		"seven": 7, "eight": 8, "nine": 9, "ten": 10, "eleven": 11, "twelve": 12,
	}
)

// docSection returns the lines of path from the first one starting with
// start up to, not including, the next one starting with end.
func docSection(t *testing.T, path, start, end string) string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(string(data), "\n")
	from := slices.IndexFunc(lines, func(l string) bool { return strings.HasPrefix(l, start) })
	if from < 0 {
		t.Fatalf("%s has no line starting with %q", path, start)
	}
	to := len(lines)
	for i := from + 1; i < len(lines); i++ {
		if strings.HasPrefix(lines[i], end) {
			to = i
			break
		}
	}
	return strings.Join(lines[from:to], "\n")
}

// entries maps each analyzer a section introduces to the text after its
// name, up to the next analyzer's.
func entries(section string) map[string]string {
	locs := analyzerEntry.FindAllStringSubmatchIndex(section, -1)
	out := make(map[string]string, len(locs))
	for i, loc := range locs {
		end := len(section)
		if i+1 < len(locs) {
			end = locs[i+1][0]
		}
		out[section[loc[2]:loc[3]]] = section[loc[1]:end]
	}
	return out
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// TestDocsMatchAnalyzers fails when the analyzer lists in README's mrlint
// paragraph, DESIGN §7 and docs/ARCHITECTURE.md, or the counts they state,
// drift from the driver's analyzers, or when README's or DESIGN's doccheck
// scope drifts from docCheckedPkgs.
func TestDocsMatchAnalyzers(t *testing.T) {
	var want []string
	for _, a := range analyzers {
		want = append(want, a.Name)
	}
	slices.Sort(want)
	wantPkgs := sortedKeys(docCheckedPkgs)

	for _, doc := range []struct {
		name, path, start, end string
		scope                  bool // states doccheck's package scope
	}{
		{"README", "../../README.md", "- **mrlint**", "- **", true},
		{"DESIGN §7", "../../DESIGN.md", "### mrlint", "#", true},
		{"docs/ARCHITECTURE.md", "../../docs/ARCHITECTURE.md", "**`internal/analysis`**", "**`", false},
	} {
		section := docSection(t, doc.path, doc.start, doc.end)
		listed := entries(section)
		if got := sortedKeys(listed); !slices.Equal(got, want) {
			t.Errorf("%s lists analyzers %v, the driver runs %v", doc.name, got, want)
		}
		counts := 0
		for _, m := range countWord.FindAllStringSubmatch(section, -1) {
			n, ok := numberWords[strings.ToLower(m[1])]
			if !ok {
				continue
			}
			counts++
			if n != len(analyzers) {
				t.Errorf("%s says %q, the driver runs %d", doc.name, strings.Join(strings.Fields(m[0]), " "), len(analyzers))
			}
		}
		if counts == 0 {
			t.Errorf("%s states no analyzer count", doc.name)
		}
		if !doc.scope {
			continue
		}
		var pkgs []string
		for _, m := range pkgName.FindAllStringSubmatch(listed["doccheck"], -1) {
			pkgs = append(pkgs, "mrtext/"+m[1])
		}
		slices.Sort(pkgs)
		if !slices.Equal(pkgs, wantPkgs) {
			t.Errorf("%s scopes doccheck to %v, the driver to %v", doc.name, pkgs, wantPkgs)
		}
	}
}
