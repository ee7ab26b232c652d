package apps

import (
	"testing"

	"mrtext/internal/mr"
	"mrtext/internal/serde"
)

// TestGroundTruthMappers pins the //mrlint:hotpath annotations on the
// rewritten map() implementations to the real compiler: with scratch warm,
// each mapper must process a representative line with zero heap
// allocations (the collector here is a no-op; the runtime's collector
// copies into the spill arena, which is gated by its own ground truth).
// CI runs this plain and under -race; race instrumentation inflates
// allocation counts, so the ==0 assertions are relaxed there
// (raceEnabled), matching the alloccheck ground-truth convention.
func TestGroundTruthMappers(t *testing.T) {
	sink := mr.CollectorFunc(func(k, v []byte) error { return nil })

	textLine := []byte("the quick brown fox jumps over the lazy dog")
	visitLine := []byte("137.229.31.70|example.org/faeri.html|1979-12-12|359|Mozilla/5.0|ALM|3")
	rankingLine := []byte("example.org/faeri.html|77|10")
	graphLine := []byte("page/a\t1.23456789e-01\tpage/b,page/c,page/d")

	cases := []struct {
		name string
		m    mr.Mapper
		line []byte
	}{
		{"wordCount", &wordCountMapper{}, textLine},
		{"invertedIndex", &invertedIndexMapper{}, textLine},
		{"synText", &synTextMapper{cfg: SynTextConfig{CPUFactor: 1, PayloadBase: 8}}, textLine},
		{"accessLogSum", &accessLogSumMapper{}, visitLine},
		{"accessLogJoinVisit", &accessLogJoinMapper{}, visitLine},
		{"accessLogJoinRanking", &accessLogJoinMapper{}, rankingLine},
		{"pageRank", &pageRankMapper{}, graphLine},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			run := func() {
				if err := c.m.Map(0, c.line, sink); err != nil {
					t.Fatal(err)
				}
			}
			run() // warm the mapper's scratch
			allocs := testing.AllocsPerRun(200, run)
			if allocs != 0 && !raceEnabled {
				t.Errorf("%s.Map: %.2f allocs/line on the fast path, want 0", c.name, allocs)
			}
		})
	}
}

// TestGroundTruthReducePath pins the //mrlint:hotpath annotations past the
// map side: with scratch warm, the InvertedIndex combiner (on one, two and
// 64 values, in order and not), both pointer reducers and every output
// format (into a warm dst) allocate nothing per call. The combiner's
// scratch comes from a sync.Pool, which the race detector empties at
// random, so like the mapper gate this one is relaxed under -race.
func TestGroundTruthReducePath(t *testing.T) {
	posting := func(off uint64) []byte {
		return serde.EncodePostings([]serde.Posting{{Doc: off >> invIdxDocShift, Off: off}})
	}
	var inOrder, outOfOrder [][]byte
	for i := uint64(0); i < 64; i++ {
		inOrder = append(inOrder, posting(i*100))
		outOfOrder = append(outOfOrder, posting((64-i)*100))
	}
	emit := func(k, v []byte) error { return nil }
	sink := mr.CollectorFunc(func(k, v []byte) error { return nil })
	iter := &sliceIter{}
	counts := make([]uint32, 12)
	counts[2] = 9
	key, ones := []byte("w"), [][]byte{one, one, one}

	// One reducer each, reused across calls as the runtime reuses a task's.
	invIdx, sum := InvertedIndex().NewReducer(), WordCount().NewReducer()
	cases := []struct {
		name string
		run  func() error
	}{
		{"postingsCombine/1", func() error { return postingsCombine(key, inOrder[:1], emit) }},
		{"postingsCombine/2", func() error { return postingsCombine(key, inOrder[:2], emit) }},
		{"postingsCombine/64", func() error { return postingsCombine(key, inOrder, emit) }},
		{"postingsCombine/64-unordered", func() error { return postingsCombine(key, outOfOrder, emit) }},
		{"invertedIndexReducer", func() error {
			iter.vals, iter.pos = outOfOrder, 0
			return invIdx.Reduce(key, iter, sink)
		}},
		{"sumReducer", func() error {
			iter.vals, iter.pos = ones, 0
			return sum.Reduce(key, iter, sink)
		}},
	}

	dst := make([]byte, 0, 256)
	format := func(f mr.OutputFormat, key string, value []byte) func() error {
		k := []byte(key)
		return func() error {
			var err error
			dst, err = f(dst[:0], k, value)
			return err
		}
	}
	formats := []struct {
		name string
		run  func() error
	}{
		{"textKVFormat", format(textKVFormat, "word", serde.EncodeInt64(42))},
		{"invertedIndexFormat", format(invertedIndexFormat, "word", serde.EncodePostings([]serde.Posting{{Doc: 1, Off: 70000}, {Doc: 2, Off: 140000}}))},
		{"joinFormat", format(joinFormat, "1.1.1.1\t200\t55", nil)},
		{"pageRankFormat", format(pageRankFormat, "page/a", serde.EncodeRankRecord(serde.RankRecord{Rank: 12345, Graph: true, Outlinks: []string{"page/b", "page/c"}}))},
		{"wordPOSFormat", format(wordPOSFormat, "word", serde.EncodeCounterVec(counts))},
		{"synTextFormat", format(synTextFormat, "word", synTextValue(nil, 3, SynTextConfig{PayloadBase: 8}))},
	}
	for _, c := range append(cases, formats...) {
		t.Run(c.name, func(t *testing.T) {
			if err := c.run(); err != nil { // warm the scratch
				t.Fatal(err)
			}
			allocs := testing.AllocsPerRun(200, func() {
				if err := c.run(); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 && !raceEnabled {
				t.Errorf("%s: %.2f allocs/call warm, want 0", c.name, allocs)
			}
		})
	}
}
