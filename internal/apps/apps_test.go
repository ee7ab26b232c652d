package apps

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"mrtext/internal/mr"
	"mrtext/internal/serde"
)

// gather runs a mapper over one line and returns the emitted pairs.
func gather(t *testing.T, m mr.Mapper, off int64, line string) []struct{ K, V []byte } {
	t.Helper()
	var out []struct{ K, V []byte }
	err := m.Map(off, []byte(line), mr.CollectorFunc(func(k, v []byte) error {
		out = append(out, struct{ K, V []byte }{append([]byte(nil), k...), append([]byte(nil), v...)})
		return nil
	}))
	if err != nil {
		t.Fatalf("map: %v", err)
	}
	return out
}

func TestWordCountMapper(t *testing.T) {
	got := gather(t, &wordCountMapper{}, 0, "a b a  c")
	if len(got) != 4 {
		t.Fatalf("emitted %d", len(got))
	}
	if string(got[0].K) != "a" || string(got[3].K) != "c" {
		t.Errorf("keys: %q %q", got[0].K, got[3].K)
	}
	for _, p := range got {
		n, err := serde.DecodeInt64(p.V)
		if err != nil || n != 1 {
			t.Errorf("value: %d %v", n, err)
		}
	}
	if got := gather(t, &wordCountMapper{}, 0, ""); len(got) != 0 {
		t.Errorf("empty line emitted %d pairs", len(got))
	}
}

// TestSumCombineGroupingInvariance: the combiner may be applied to any
// partition of the values in any order without changing the total — the
// algebraic property both frequency-buffering and spill combining rely on.
func TestSumCombineGroupingInvariance(t *testing.T) {
	f := func(vals []int16, split uint8) bool {
		values := make([][]byte, len(vals))
		var want int64
		for i, v := range vals {
			values[i] = serde.EncodeInt64(int64(v))
			want += int64(v)
		}
		// Direct.
		var direct int64
		mr.SumInt64([]byte("k"), values, func(_, v []byte) error {
			direct, _ = serde.DecodeInt64(v)
			return nil
		})
		if len(vals) == 0 {
			return true
		}
		// Two-phase with an arbitrary split point.
		cut := int(split) % len(values)
		var partials [][]byte
		for _, group := range [][][]byte{values[:cut], values[cut:]} {
			if len(group) == 0 {
				continue
			}
			mr.SumInt64([]byte("k"), group, func(_, v []byte) error {
				partials = append(partials, append([]byte(nil), v...))
				return nil
			})
		}
		var twoPhase int64
		mr.SumInt64([]byte("k"), partials, func(_, v []byte) error {
			twoPhase, _ = serde.DecodeInt64(v)
			return nil
		})
		return direct == want && twoPhase == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTextKVFormat(t *testing.T) {
	line, err := textKVFormat(nil, []byte("word"), serde.EncodeInt64(42))
	if err != nil || string(line) != "word\t42\n" {
		t.Errorf("got %q err %v", line, err)
	}
	if _, err := textKVFormat(nil, []byte("w"), []byte{}); err == nil {
		t.Error("empty value formatted")
	}
}

// TestFormatsAppend: every app's format appends its line after what dst
// already holds, and rejects a value it cannot decode.
func TestFormatsAppend(t *testing.T) {
	pos := make([]uint32, 12)
	pos[0], pos[3] = 2, 5
	cases := []struct {
		name   string
		format mr.OutputFormat
		key    string
		value  []byte
		want   string
	}{
		{"textKV", textKVFormat, "word", serde.EncodeInt64(-7), "word\t-7\n"},
		{"invertedIndex", invertedIndexFormat, "w", serde.EncodePostings([]serde.Posting{{Doc: 2, Off: 7}, {Doc: 5, Off: 0}}), "w\t2:7 5:0\n"},
		{"invertedIndexEmpty", invertedIndexFormat, "w", serde.EncodePostings(nil), "w\t\n"},
		{"join", joinFormat, "1.1.1.1\t200\t55", nil, "1.1.1.1\t200\t55\n"},
		{"pageRank", pageRankFormat, "page/a",
			serde.EncodeRankRecord(serde.RankRecord{Rank: rankScale / 4, Graph: true, Outlinks: []string{"page/b", "page/c"}}),
			"page/a\t2.50000000e-01\tpage/b,page/c\n"},
		{"pageRankDangling", pageRankFormat, "page/z", serde.EncodeRankRecord(serde.RankRecord{Rank: rankScale}), "page/z\t1.00000000e+00\t\n"},
		{"wordPOS", wordPOSFormat, "run", serde.EncodeCounterVec(pos), "run\tNOUN:2 ADV:5\n"},
		{"synText", synTextFormat, "k", synTextValue(nil, 12, SynTextConfig{PayloadBase: 3}), "k\t12\n"},
	}
	for _, c := range cases {
		got, err := c.format([]byte("prev\n"), []byte(c.key), c.value)
		if err != nil || string(got) != "prev\n"+c.want {
			t.Errorf("%s: got %q err %v, want %q", c.name, got, err, "prev\n"+c.want)
		}
		if c.value == nil {
			continue // the join's line is its key; it reads no value
		}
		if _, err := c.format(nil, []byte(c.key), []byte{0x80}); err == nil {
			t.Errorf("%s: malformed value formatted", c.name)
		}
	}
}

func TestInvertedIndexMapperDocBuckets(t *testing.T) {
	m := &invertedIndexMapper{}
	got := gather(t, m, 1<<20, "hello world")
	if len(got) != 2 {
		t.Fatalf("emitted %d", len(got))
	}
	ps, err := serde.DecodePostings(nil, got[0].V)
	if err != nil || len(ps) != 1 {
		t.Fatalf("postings %v err %v", ps, err)
	}
	if ps[0].Doc != (1<<20)>>invIdxDocShift || ps[0].Off != 1<<20 {
		t.Errorf("posting %+v", ps[0])
	}
}

func TestPostingsCombineGroupingInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	single := func(doc, off uint64) []byte {
		return serde.EncodePostings([]serde.Posting{{Doc: doc, Off: off}})
	}
	for trial := 0; trial < 40; trial++ {
		n := 1 + rng.Intn(30)
		var values [][]byte
		for i := 0; i < n; i++ {
			values = append(values, single(uint64(rng.Intn(8)), uint64(rng.Intn(100))))
		}
		combineAll := func(vals [][]byte) []byte {
			var out []byte
			postingsCombine([]byte("k"), vals, func(_, v []byte) error {
				out = append([]byte(nil), v...)
				return nil
			})
			return out
		}
		direct := combineAll(values)
		cut := rng.Intn(n)
		var parts [][]byte
		if cut > 0 {
			parts = append(parts, combineAll(values[:cut]))
		}
		if cut < n {
			parts = append(parts, combineAll(values[cut:]))
		}
		hier := combineAll(parts)
		if !bytes.Equal(direct, hier) {
			t.Fatalf("trial %d: grouping changed combined postings", trial)
		}
	}
}

func TestInvertedIndexFormat(t *testing.T) {
	v := serde.EncodePostings([]serde.Posting{{Doc: 2, Off: 7}, {Doc: 5, Off: 0}})
	line, err := invertedIndexFormat(nil, []byte("w"), v)
	if err != nil || string(line) != "w\t2:7 5:0\n" {
		t.Errorf("got %q err %v", line, err)
	}
}

func TestAccessLogSumMapper(t *testing.T) {
	line := "1.2.3.4|example.org/a.html|2010-01-02|1234|Mozilla/5.0|USA|17"
	got := gather(t, &accessLogSumMapper{}, 0, line)
	if len(got) != 1 || string(got[0].K) != "example.org/a.html" {
		t.Fatalf("got %v", got)
	}
	n, _ := serde.DecodeInt64(got[0].V)
	if n != 1234 {
		t.Errorf("revenue %d", n)
	}
	// Malformed lines error.
	var m accessLogSumMapper
	if err := m.Map(0, []byte("only|three|fields"), mr.CollectorFunc(func(k, v []byte) error { return nil })); err == nil {
		t.Error("malformed line accepted")
	}
	// Blank lines are skipped.
	if got := gather(t, &accessLogSumMapper{}, 0, ""); len(got) != 0 {
		t.Error("blank line emitted")
	}
}

func TestAccessLogJoinMapperTagging(t *testing.T) {
	m := &accessLogJoinMapper{}
	visit := gather(t, m, 0, "9.9.9.9|example.org/x.html|2010-01-01|500|curl/7.30|DEU|3")
	if len(visit) != 1 || visit[0].V[0] != 'V' {
		t.Fatalf("visit: %v", visit)
	}
	if string(visit[0].K) != "example.org/x.html" || string(visit[0].V) != "V9.9.9.9|500" {
		t.Errorf("visit kv: %q %q", visit[0].K, visit[0].V)
	}
	ranking := gather(t, m, 0, "example.org/x.html|77|10")
	if len(ranking) != 1 || string(ranking[0].V) != "R77" {
		t.Fatalf("ranking: %v", ranking)
	}
}

func TestAccessLogJoinReducer(t *testing.T) {
	vals := [][]byte{
		[]byte("V2.2.2.2|300"),
		[]byte("R55"),
		[]byte("V1.1.1.1|200"),
	}
	var out []string
	err := accessLogJoinReducer{}.Reduce([]byte("url"), &sliceIter{vals: vals},
		mr.CollectorFunc(func(k, v []byte) error {
			out = append(out, string(k))
			return nil
		}))
	if err != nil {
		t.Fatal(err)
	}
	// Sorted by tuple: 1.1.1.1 before 2.2.2.2, rank appended.
	want := []string{"1.1.1.1\t200\t55", "2.2.2.2\t300\t55"}
	if len(out) != 2 || out[0] != want[0] || out[1] != want[1] {
		t.Errorf("join output %v want %v", out, want)
	}
	// No rank: inner join drops everything.
	out = nil
	err = accessLogJoinReducer{}.Reduce([]byte("url"), &sliceIter{vals: [][]byte{[]byte("V1.1.1.1|1")}},
		mr.CollectorFunc(func(k, v []byte) error { out = append(out, string(k)); return nil }))
	if err != nil || len(out) != 0 {
		t.Errorf("rank-less join emitted %v err %v", out, err)
	}
}

type sliceIter struct {
	vals [][]byte
	pos  int
}

func (s *sliceIter) Next() ([]byte, bool, error) {
	if s.pos >= len(s.vals) {
		return nil, false, nil
	}
	v := s.vals[s.pos]
	s.pos++
	return v, true, nil
}

func TestPageRankMapper(t *testing.T) {
	m := &pageRankMapper{}
	got := gather(t, m, 0, "page/a\t0.5\tpage/b,page/c")
	if len(got) != 3 {
		t.Fatalf("emitted %d", len(got))
	}
	rec, err := serde.DecodeRankRecord(got[0].V)
	if err != nil || !rec.Graph || len(rec.Outlinks) != 2 {
		t.Fatalf("graph record %+v err %v", rec, err)
	}
	// Each contribution = 0.5/2 in rank units.
	contrib, _ := serde.DecodeRankRecord(got[1].V)
	rank := 0.5 // runtime value: mirror the mapper's unit conversion
	wantUnits := int64(rank*rankScale+0.5) / 2
	if int64(contrib.Rank) != wantUnits {
		t.Errorf("contribution %v want %d", contrib.Rank, wantUnits)
	}
	if string(got[1].K) != "page/b" || string(got[2].K) != "page/c" {
		t.Errorf("targets %q %q", got[1].K, got[2].K)
	}
}

func TestPageRankCombineGroupingInvariance(t *testing.T) {
	contrib := func(units int64) []byte {
		return serde.EncodeRankRecord(serde.RankRecord{Rank: float64(units)})
	}
	graph := serde.EncodeRankRecord(serde.RankRecord{Graph: true, Outlinks: []string{"page/z"}})
	values := [][]byte{contrib(100), graph, contrib(250), contrib(7)}
	run := func(groups [][][]byte) serde.RankRecord {
		var partials [][]byte
		for _, g := range groups {
			if len(g) == 0 {
				continue
			}
			pageRankCombine([]byte("k"), g, func(_, v []byte) error {
				partials = append(partials, append([]byte(nil), v...))
				return nil
			})
		}
		var out serde.RankRecord
		pageRankCombine([]byte("k"), partials, func(_, v []byte) error {
			out, _ = serde.DecodeRankRecord(v)
			return nil
		})
		return out
	}
	direct := run([][][]byte{values})
	split := run([][][]byte{values[:2], values[2:]})
	if direct.Rank != split.Rank || direct.Rank != 357 {
		t.Errorf("direct %v split %v want 357", direct.Rank, split.Rank)
	}
	if !direct.Graph || len(direct.Outlinks) != 1 {
		t.Errorf("graph payload lost: %+v", direct)
	}
}

func TestParseGraphLineErrors(t *testing.T) {
	for _, bad := range []string{"nofields", "a\tnorank", "a\tx\tb"} {
		if _, _, _, err := parseGraphLine(nil, []byte(bad)); err == nil {
			t.Errorf("%q accepted", bad)
		}
	}
	url, rank, links, err := parseGraphLine(nil, []byte("u\t0.25\t"))
	if err != nil || string(url) != "u" || rank != 0.25 || len(links) != 0 {
		t.Errorf("dangling page: %q %v %v %v", url, rank, links, err)
	}
}

func TestSynTextPayloadModel(t *testing.T) {
	cfg := SynTextConfig{PayloadBase: 10}
	// σ=0: aggregates stay base-sized.
	cfg.Storage = 0
	if got := synPayloadSize(100, cfg); got != 10 {
		t.Errorf("σ=0 size %d", got)
	}
	// σ=1: aggregates keep full concatenated size.
	cfg.Storage = 1
	if got := synPayloadSize(100, cfg); got != 1000 {
		t.Errorf("σ=1 size %d", got)
	}
	// σ=0.5: halfway.
	cfg.Storage = 0.5
	if got := synPayloadSize(3, cfg); got != 10+10 {
		t.Errorf("σ=0.5 n=3 size %d", got)
	}
}

func TestSynTextCombineCounts(t *testing.T) {
	cfg := SynTextConfig{PayloadBase: 4, Storage: 0.5}
	combine := synTextCombine(cfg)
	vals := [][]byte{synTextValue(nil, 3, cfg), synTextValue(nil, 5, cfg)}
	var out []byte
	if err := combine([]byte("k"), vals, func(_, v []byte) error {
		out = append([]byte(nil), v...)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	n, err := synTextCount(out)
	if err != nil || n != 8 {
		t.Errorf("combined count %d err %v", n, err)
	}
	if len(out) != len(synTextValue(nil, 8, cfg)) {
		t.Error("combined payload size wrong")
	}
}

func TestSynTextJobClamping(t *testing.T) {
	j := SynText(SynTextConfig{CPUFactor: 2, Storage: 5}, "in")
	if !strings.Contains(j.Name, "syntext") {
		t.Errorf("name %q", j.Name)
	}
	j2 := SynText(SynTextConfig{Storage: -1}, "in")
	_ = j2 // constructor must not panic; clamps internally
}

func TestJobConstructors(t *testing.T) {
	jobs := []*mr.Job{
		WordCount("c"),
		InvertedIndex("c"),
		WordPOSTag(0, "c"),
		AccessLogSum("v"),
		AccessLogJoin("v", "r"),
		PageRank("g", 100),
		SynText(SynTextConfig{}, "c"),
	}
	for _, j := range jobs {
		if j.Name == "" || j.NewMapper == nil || j.NewReducer == nil || j.Format == nil {
			t.Errorf("job %q incomplete", j.Name)
		}
		if j.NewMapper() == nil || j.NewReducer() == nil {
			t.Errorf("job %q factories return nil", j.Name)
		}
	}
	// AccessLogJoin is the only one without a combiner.
	if AccessLogJoin("v", "r").Combine != nil {
		t.Error("join has a combiner")
	}
	if WordCount("c").Combine == nil {
		t.Error("wordcount lacks a combiner")
	}
	if got := len(AccessLogJoin("v", "r").Inputs); got != 2 {
		t.Errorf("join inputs %d", got)
	}
}

func TestWordPOSMapperEmitsOneHotVectors(t *testing.T) {
	m := WordPOSTag(1, "c").NewMapper()
	var sum uint32
	err := m.Map(0, []byte("some words to tag"), mr.CollectorFunc(func(k, v []byte) error {
		vec, err := serde.DecodeCounterVec(nil, v)
		if err != nil {
			return err
		}
		var s uint32
		for _, c := range vec {
			s += c
		}
		sum += s
		if s != 1 {
			return fmt.Errorf("vector for %q sums to %d", k, s)
		}
		return nil
	}))
	if err != nil {
		t.Fatal(err)
	}
	if sum != 4 {
		t.Errorf("total tags %d for 4 words", sum)
	}
}
