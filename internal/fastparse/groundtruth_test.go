package fastparse_test

import (
	"testing"

	"mrtext/internal/fastparse"
)

// TestGroundTruthFastparse pins the parsing kernels' allocations to the
// real compiler: every kernel must run its
// steady-state fast path with zero heap allocations, measured by
// testing.AllocsPerRun. The CI AllocsPerRun gate runs this plain and
// under -race; race instrumentation inflates allocation counts, so the
// ==0 assertions are relaxed there (raceEnabled), as in every
// TestGroundTruth* test.
func TestGroundTruthFastparse(t *testing.T) {
	intsrc := []byte("-9007182818284590")
	uintsrc := []byte("18446744073709551615")
	floatsrc := []byte("1.23456789e-01")
	line := []byte("the quick brown fox jumped over the lazy dog")
	pipes := []byte("137.229.31.70|faeri.html|1979-12-12|0.359|Mozilla/5.0|ALM|ALM-AK|hindi|wiki|3")
	fieldScratch := make([][]byte, 0, 16)

	cases := []struct {
		name string
		fn   func()
	}{
		{"ParseInt", func() {
			if _, err := fastparse.ParseInt(intsrc); err != nil {
				t.Fatal(err)
			}
		}},
		{"ParseUint", func() {
			if _, err := fastparse.ParseUint(uintsrc); err != nil {
				t.Fatal(err)
			}
		}},
		{"ParseFloat", func() {
			if _, err := fastparse.ParseFloat(floatsrc); err != nil {
				t.Fatal(err)
			}
		}},
		{"Fields", func() {
			fieldScratch = fastparse.Fields(fieldScratch[:0], line)
			if len(fieldScratch) != 9 {
				t.Fatalf("got %d fields", len(fieldScratch))
			}
		}},
		{"SplitByte", func() {
			fieldScratch = fastparse.SplitByte(fieldScratch[:0], pipes, '|')
			if len(fieldScratch) != 10 {
				t.Fatalf("got %d fields", len(fieldScratch))
			}
		}},
	}
	for _, c := range cases {
		c.fn() // warm the scratch slice before measuring
		allocs := testing.AllocsPerRun(200, c.fn)
		if allocs != 0 && !raceEnabled {
			t.Errorf("%s: %.2f allocs/op on the fast path, want 0", c.name, allocs)
		}
	}
}
