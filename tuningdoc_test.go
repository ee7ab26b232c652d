package mrtext_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"mrtext/internal/mr"
	"mrtext/internal/mrserve"
)

// jobDefinition lists the mr.Job fields that say what the job is rather
// than tune how it runs; every other exported field is a tuning knob and
// needs a docs/TUNING.md row.
var jobDefinition = map[string]bool{
	"Name": true, "Inputs": true, "OutputPrefix": true,
	"NewMapper": true, "NewReducer": true, "Combine": true, "Partition": true, "Format": true,
	"Trace": true, "Hists": true, "Chaos": true,
}

// flagNames returns the names a command registers with the flag package:
// the first string literal among a flag.X(...) call's first two arguments
// (flag.Int("n", …) and flag.IntVar(&v, "n", …) alike).
func flagNames(t *testing.T, path string) map[string]bool {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), path, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if pkg, ok := sel.X.(*ast.Ident); !ok || pkg.Name != "flag" {
			return true
		}
		for _, arg := range call.Args[:min(2, len(call.Args))] {
			if lit, ok := arg.(*ast.BasicLit); ok && lit.Kind == token.STRING {
				name, _ := strconv.Unquote(lit.Value)
				names[name] = true
				break
			}
		}
		return true
	})
	if len(names) == 0 {
		t.Fatalf("%s registers no flags; the parser lost track of them", path)
	}
	return names
}

// jsonFields flattens a struct's JSON field names, descending into nested
// struct pointers with a "parent." prefix (chaos.seed).
func jsonFields(rt reflect.Type, prefix string, into map[string]bool) {
	for i := 0; i < rt.NumField(); i++ {
		f := rt.Field(i)
		name, _, _ := strings.Cut(f.Tag.Get("json"), ",")
		if f.Type.Kind() == reflect.Pointer && f.Type.Elem().Kind() == reflect.Struct {
			jsonFields(f.Type.Elem(), prefix+name+".", into)
			continue
		}
		into[prefix+name] = true
	}
}

// TestTuningDocMatchesSource fails when docs/TUNING.md and the knobs drift
// apart, in either direction: a table names a Job field, an mrrun/mrserve
// flag or a spec field that no longer exists, or a Job tuning field, an
// mrrun flag or a spec field has no table row.
func TestTuningDocMatchesSource(t *testing.T) {
	doc, err := os.ReadFile("docs/TUNING.md")
	if err != nil {
		t.Fatal(err)
	}
	runFlags := flagNames(t, "cmd/mrrun/main.go")
	serveFlags := flagNames(t, "cmd/mrserve/main.go")
	jobFields := map[string]bool{}
	for i, rt := 0, reflect.TypeOf(mr.Job{}); i < rt.NumField(); i++ {
		if rt.Field(i).IsExported() {
			jobFields[rt.Field(i).Name] = true
		}
	}
	specFields := map[string]bool{}
	jsonFields(reflect.TypeOf(mrserve.Spec{}), "", specFields)

	var (
		ticked   = regexp.MustCompile("`([^`]+)`")
		jobTok   = regexp.MustCompile(`^Job\.(\w+)$`)
		flagTok  = regexp.MustCompile(`^-([a-z][a-z-]*)( \w+)?$`)
		specTok  = regexp.MustCompile(`^[a-z]+(_[a-z]+)*(\.[a-z_]+)?$`)
		rowJob   = map[string]bool{} // Job fields named in any table row
		rowFlag  = map[string]bool{} // mrrun flags heading a row (first cell)
		rowSpec  = map[string]bool{} // spec fields heading a row of the spec table
		service  = false             // inside "## Job service"
		specRows = false             // inside the spec-field table
	)
	for _, line := range strings.Split(string(doc), "\n") {
		if strings.HasPrefix(line, "## ") {
			service = strings.HasPrefix(line, "## Job service")
		}
		if !strings.HasPrefix(line, "|") {
			specRows = false
			continue
		}
		cells := strings.Split(strings.Trim(line, "|"), "|")
		if strings.HasPrefix(line, "| spec field") {
			specRows = true
			continue
		}
		for ci, cell := range cells {
			for _, m := range ticked.FindAllStringSubmatch(cell, -1) {
				tok := m[1]
				if j := jobTok.FindStringSubmatch(tok); j != nil {
					if !jobFields[j[1]] {
						t.Errorf("TUNING.md names `%s`, which mr.Job does not have", tok)
					}
					rowJob[j[1]] = true
				}
				if f := flagTok.FindStringSubmatch(tok); f != nil {
					if !runFlags[f[1]] && !(service && serveFlags[f[1]]) {
						t.Errorf("TUNING.md names flag `%s`, which the command does not register", tok)
					}
					if ci == 0 && !service {
						rowFlag[f[1]] = true
					}
				}
				if specRows && ci == 0 && specTok.MatchString(tok) {
					if !specFields[tok] {
						t.Errorf("TUNING.md names spec field `%s`, which mrserve.Spec does not have", tok)
					}
					rowSpec[tok] = true
				}
			}
		}
	}
	for name := range jobFields {
		if !jobDefinition[name] && !rowJob[name] {
			t.Errorf("mr.Job.%s is a tuning field with no `Job.%s` row in TUNING.md", name, name)
		}
	}
	for name := range runFlags {
		if !rowFlag[name] {
			t.Errorf("mrrun -%s has no row in TUNING.md", name)
		}
	}
	for name := range specFields {
		if !rowSpec[name] {
			t.Errorf("mrserve.Spec field %q has no row in TUNING.md's spec table", name)
		}
	}
}
