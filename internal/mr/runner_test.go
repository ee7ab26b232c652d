package mr_test

import (
	"bytes"
	"fmt"
	"sort"
	"strings"
	"testing"

	"mrtext/internal/apps"
	"mrtext/internal/cluster"
	"mrtext/internal/mr"
	"mrtext/internal/textgen"
)

// newTextCluster builds a fast in-memory cluster preloaded with a small
// Zipfian corpus.
func newTextCluster(t *testing.T, nodes int, corpusBytes int64) (*cluster.Cluster, string) {
	t.Helper()
	c, err := cluster.New(cluster.Fast(nodes))
	if err != nil {
		t.Fatalf("cluster: %v", err)
	}
	w, err := c.FS.Create("corpus.txt", 0)
	if err != nil {
		t.Fatalf("create corpus: %v", err)
	}
	cfg := textgen.CorpusConfig{Vocabulary: 5000, Alpha: 1.0, WordsPerLine: 8, Seed: 42}
	if _, err := textgen.Corpus(w, cfg, corpusBytes); err != nil {
		t.Fatalf("generate corpus: %v", err)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("close corpus: %v", err)
	}
	return c, "corpus.txt"
}

// readOutputs concatenates the job's reduce outputs by partition.
func readOutputs(t *testing.T, c *cluster.Cluster, res *mr.Result) map[int][]byte {
	t.Helper()
	out := make(map[int][]byte, len(res.Outputs))
	for r, name := range res.Outputs {
		data, err := c.FS.ReadFile(name)
		if err != nil {
			t.Fatalf("reading output %s: %v", name, err)
		}
		out[r] = data
	}
	return out
}

// configurations mirrors the paper's four test scenarios.
var configurations = []struct {
	name  string
	apply func(j *mr.Job)
}{
	{"baseline", func(j *mr.Job) {}},
	{"freqbuf", func(j *mr.Job) {
		j.FreqBuf = &mr.FreqBufConfig{K: 100, SampleFraction: 0.05, MemFraction: 0.3, ShareTopK: true}
	}},
	{"spillmatcher", func(j *mr.Job) { j.SpillMatcher = true }},
	{"combined", func(j *mr.Job) {
		j.FreqBuf = &mr.FreqBufConfig{K: 100, SampleFraction: 0.05, MemFraction: 0.3, ShareTopK: true}
		j.SpillMatcher = true
	}},
}

// TestWordCountMatchesReferenceAllConfigs is the central correctness
// invariant: under every optimization configuration the job output is
// byte-identical to the sequential reference execution.
func TestWordCountMatchesReferenceAllConfigs(t *testing.T) {
	c, corpus := newTextCluster(t, 3, 1<<20)

	ref, err := mr.RunReference(c, apps.WordCount(corpus))
	if err != nil {
		t.Fatalf("reference: %v", err)
	}

	for _, cfg := range configurations {
		cfg := cfg
		t.Run(cfg.name, func(t *testing.T) {
			job := apps.WordCount(corpus)
			job.Name = "wc-" + cfg.name
			job.SpillBufferBytes = 64 << 10 // force many spills
			cfg.apply(job)
			res, err := mr.Run(c, job)
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			got := readOutputs(t, c, res)
			if len(got) != len(ref) {
				t.Fatalf("partitions: got %d want %d", len(got), len(ref))
			}
			for p := range ref {
				if !bytes.Equal(got[p], ref[p]) {
					t.Errorf("partition %d differs: got %d bytes, want %d bytes\nfirst got: %.120q\nfirst want: %.120q",
						p, len(got[p]), len(ref[p]), firstDiff(got[p], ref[p]), firstDiff(ref[p], got[p]))
				}
			}
			if rec := res.Agg.Counters["map.output.records"]; rec == 0 {
				t.Error("no map output records recorded")
			}
		})
	}
}

// firstDiff returns a window of a around the first byte where a and b
// differ, for readable failure messages.
func firstDiff(a, b []byte) []byte {
	i := 0
	for i < len(a) && i < len(b) && a[i] == b[i] {
		i++
	}
	start := i - 40
	if start < 0 {
		start = 0
	}
	end := i + 80
	if end > len(a) {
		end = len(a)
	}
	return a[start:end]
}

func TestAllAppsMatchReference(t *testing.T) {
	if testing.Short() {
		t.Skip("integration sweep")
	}
	c, corpus := newTextCluster(t, 3, 512<<10)

	// Access logs.
	logCfg := textgen.LogConfig{URLs: 500, Alpha: 0.8, Seed: 7}
	wv, err := c.FS.Create("visits.log", 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := textgen.UserVisits(wv, logCfg, 256<<10); err != nil {
		t.Fatal(err)
	}
	if err := wv.Close(); err != nil {
		t.Fatal(err)
	}
	wr, err := c.FS.Create("rankings.tbl", 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := textgen.Rankings(wr, logCfg); err != nil {
		t.Fatal(err)
	}
	if err := wr.Close(); err != nil {
		t.Fatal(err)
	}

	// Web graph.
	gCfg := textgen.GraphConfig{Pages: 2000, Alpha: 1.0, MeanOutDegree: 5, Seed: 9}
	wg, err := c.FS.Create("graph.tsv", 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := textgen.WebGraph(wg, gCfg); err != nil {
		t.Fatal(err)
	}
	if err := wg.Close(); err != nil {
		t.Fatal(err)
	}

	jobs := map[string]func() *mr.Job{
		"wordcount":     func() *mr.Job { return apps.WordCount(corpus) },
		"invertedindex": func() *mr.Job { return apps.InvertedIndex(corpus) },
		"wordpostag":    func() *mr.Job { return apps.WordPOSTag(2, corpus) },
		"accesslogsum":  func() *mr.Job { return apps.AccessLogSum("visits.log") },
		"accesslogjoin": func() *mr.Job { return apps.AccessLogJoin("visits.log", "rankings.tbl") },
		"pagerank":      func() *mr.Job { return apps.PageRank("graph.tsv", gCfg.Pages) },
		"syntext":       func() *mr.Job { return apps.SynText(apps.SynTextConfig{CPUFactor: 2, Storage: 0.5}, corpus) },
	}

	for name, mk := range jobs {
		name, mk := name, mk
		t.Run(name, func(t *testing.T) {
			ref, err := mr.RunReference(c, mk())
			if err != nil {
				t.Fatalf("reference: %v", err)
			}
			for _, cfg := range configurations {
				job := mk()
				job.Name = fmt.Sprintf("%s-%s", name, cfg.name)
				job.SpillBufferBytes = 128 << 10
				cfg.apply(job)
				res, err := mr.Run(c, job)
				if err != nil {
					t.Fatalf("%s/%s: run: %v", name, cfg.name, err)
				}
				got := readOutputs(t, c, res)
				for p := range ref {
					if !bytes.Equal(got[p], ref[p]) {
						t.Errorf("%s/%s: partition %d differs (got %d bytes, want %d)",
							name, cfg.name, p, len(got[p]), len(ref[p]))
					}
				}
			}
		})
	}
}

// TestInvertedIndexMergePathsMatchReference runs InvertedIndex beyond the
// one-file shape and holds it to RunReference byte for byte, and the
// reference to an index built here directly from the input lines. With two
// input files, line offsets restart per file, so the second file's lists
// arrive after the first's but sort before them: the merge kernel must
// fall back to sorting. With the frequency buffer, a hot key's lists are combined in its
// table and reach the spill path in a different grouping; they stay in
// order, so the one-pass path serves them.
func TestInvertedIndexMergePathsMatchReference(t *testing.T) {
	c, corpus := newTextCluster(t, 3, 384<<10)
	w, err := c.FS.Create("corpus2.txt", 0)
	if err != nil {
		t.Fatal(err)
	}
	cfg := textgen.CorpusConfig{Vocabulary: 3000, Alpha: 1.1, WordsPerLine: 7, Seed: 43}
	if _, err := textgen.Corpus(w, cfg, 256<<10); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name   string
		inputs []string
		apply  func(j *mr.Job)
	}{
		{"two-inputs", []string{corpus, "corpus2.txt"}, func(j *mr.Job) {}},
		{"freqbuf-text", []string{corpus}, func(j *mr.Job) { j.FreqBuf = mr.DefaultFreqBufText() }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ref, err := mr.RunReference(c, apps.InvertedIndex(tc.inputs...))
			if err != nil {
				t.Fatalf("reference: %v", err)
			}
			if want, got := directIndex(t, c, tc.inputs), sortedLines(ref); got != want {
				t.Fatalf("reference differs from the direct index:\n%.200q\nwant\n%.200q", firstDiff([]byte(got), []byte(want)), firstDiff([]byte(want), []byte(got)))
			}
			job := apps.InvertedIndex(tc.inputs...)
			job.Name = "ii-" + tc.name
			job.SpillBufferBytes = 64 << 10 // many spills, so many merges
			tc.apply(job)
			res, err := mr.Run(c, job)
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			got := readOutputs(t, c, res)
			for p := range ref {
				if !bytes.Equal(got[p], ref[p]) {
					t.Errorf("partition %d differs: got %.120q want %.120q", p, firstDiff(got[p], ref[p]), firstDiff(ref[p], got[p]))
				}
			}
		})
	}
}

// directIndex builds InvertedIndex's output without the runtime: every
// word's (doc, offset) locations across the inputs, sorted, one line per
// word, the lines sorted.
func directIndex(t *testing.T, c *cluster.Cluster, inputs []string) string {
	t.Helper()
	type loc struct{ doc, off uint64 }
	index := map[string][]loc{}
	for _, in := range inputs {
		data, err := c.FS.ReadFile(in)
		if err != nil {
			t.Fatal(err)
		}
		off := 0
		for _, line := range bytes.SplitAfter(data, []byte("\n")) {
			for _, w := range bytes.Fields(line) {
				// InvertedIndex's documents are 64 KiB buckets of line offsets.
				index[string(w)] = append(index[string(w)], loc{uint64(off) >> 16, uint64(off)})
			}
			off += len(line)
		}
	}
	lines := make([]string, 0, len(index))
	for w, locs := range index {
		sort.Slice(locs, func(i, j int) bool {
			if locs[i].doc != locs[j].doc {
				return locs[i].doc < locs[j].doc
			}
			return locs[i].off < locs[j].off
		})
		var b strings.Builder
		b.WriteString(w)
		b.WriteByte('\t')
		for i, l := range locs {
			if i > 0 {
				b.WriteByte(' ')
			}
			fmt.Fprintf(&b, "%d:%d", l.doc, l.off)
		}
		lines = append(lines, b.String())
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// sortedLines joins every partition's lines in sorted order.
func sortedLines(outputs map[int][]byte) string {
	var lines []string
	for _, out := range outputs {
		lines = append(lines, strings.Split(strings.TrimSuffix(string(out), "\n"), "\n")...)
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}
