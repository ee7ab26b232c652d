package load

import (
	"go/types"
	"path/filepath"
	"testing"
)

// loadDag loads the fixture module and returns its packages by import path
// plus the order they were returned in.
func loadDag(t *testing.T, patterns ...string) (map[string]*Package, []string) {
	t.Helper()
	dir := filepath.Join("testdata", "dagmod")
	pkgs, _, err := Packages(dir, patterns...)
	if err != nil {
		t.Fatalf("Packages(%q, %v): %v", dir, patterns, err)
	}
	byPath := make(map[string]*Package, len(pkgs))
	order := make([]string, 0, len(pkgs))
	for _, p := range pkgs {
		byPath[p.PkgPath] = p
		order = append(order, p.PkgPath)
	}
	return byPath, order
}

func TestPackagesDependencyOrder(t *testing.T) {
	_, order := loadDag(t, "./...")
	// DFS over path-sorted roots with path-sorted edges yields exactly one
	// schedule for the fixture diamond: the leaf, then its importers in
	// path order.
	want := []string{
		"example.com/dagmod/a",
		"example.com/dagmod/b",
		"example.com/dagmod/c",
		"example.com/dagmod/d",
	}
	if len(order) != len(want) {
		t.Fatalf("loaded %d packages %v, want %d", len(order), order, len(want))
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("schedule %v, want %v", order, want)
		}
	}
}

func TestPackagesOrderIsDeterministic(t *testing.T) {
	_, first := loadDag(t, "./...")
	for run := 0; run < 3; run++ {
		_, again := loadDag(t, "./...")
		if len(again) != len(first) {
			t.Fatalf("run %d loaded %v, first run loaded %v", run, again, first)
		}
		for i := range first {
			if again[i] != first[i] {
				t.Fatalf("run %d schedule %v differs from first %v", run, again, first)
			}
		}
	}
}

func TestPackagesPullsDepsUnlisted(t *testing.T) {
	byPath, order := loadDag(t, "./c")
	// Naming only the diamond top must still load its module-local
	// dependencies (its type-check needs them) but mark them unlisted so
	// the driver does not analyze them.
	for _, path := range []string{"example.com/dagmod/a", "example.com/dagmod/b"} {
		dep, ok := byPath[path]
		if !ok {
			t.Fatalf("dependency %s not loaded; got %v", path, order)
		}
		if dep.Listed {
			t.Errorf("dependency %s is marked Listed; only ./c was requested", path)
		}
	}
	top, ok := byPath["example.com/dagmod/c"]
	if !ok || !top.Listed {
		t.Fatalf("requested package c missing or not Listed (ok=%v)", ok)
	}
}

func TestObjectIdentityAcrossPackages(t *testing.T) {
	byPath, _ := loadDag(t, "./...")
	a := byPath["example.com/dagmod/a"]
	b := byPath["example.com/dagmod/b"]
	if a == nil || b == nil || a.Types == nil || b.Info == nil {
		t.Fatal("fixture packages did not type-check")
	}
	def := a.Types.Scope().Lookup("A")
	if def == nil {
		t.Fatal("a.A not found in its defining package scope")
	}
	// Each package is type-checked once, so the *types.Func b sees for
	// a.A must be the very object a defined — not an equivalent re-import
	// checked a second time.
	var used types.Object
	for _, obj := range b.Info.Uses {
		if f, ok := obj.(*types.Func); ok && f.Name() == "A" && f.Pkg() != nil && f.Pkg().Path() == "example.com/dagmod/a" {
			used = obj
			break
		}
	}
	if used == nil {
		t.Fatal("b's type info records no use of a.A")
	}
	if used != def {
		t.Errorf("a.A resolves to different objects in a (%p) and b (%p); a was type-checked twice", def, used)
	}
}

func TestLoadErrorsAggregatedNotFatal(t *testing.T) {
	dir := filepath.Join("testdata", "badmod")
	pkgs, _, err := Packages(dir, "./...")
	if err != nil {
		t.Fatalf("Packages on a module with a syntax error must not fail outright: %v", err)
	}
	var broken, clean *Package
	for _, p := range pkgs {
		switch p.PkgPath {
		case "example.com/badmod/p":
			broken = p
		case "example.com/badmod/q":
			clean = p
		}
	}
	if broken == nil {
		t.Fatal("package p with the syntax error was dropped from the result")
	}
	if len(broken.LoadErrors) == 0 {
		t.Errorf("package p has a syntax error but no LoadErrors")
	}
	if clean == nil || clean.Types == nil || len(clean.LoadErrors) != 0 {
		t.Errorf("clean sibling q was not fully loaded alongside the broken package (pkg=%v)", clean)
	}
}
