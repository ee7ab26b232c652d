package mrtext_test

import (
	"bytes"
	"fmt"
	"sort"
	"strconv"
	"testing"

	"mrtext"
)

// wordLenMapper is a user-written mapper: it emits (word length, 1) for
// every word — the kind of ad-hoc text statistic the paper's introduction
// motivates.
type wordLenMapper struct{}

func (wordLenMapper) Map(_ int64, line []byte, out mrtext.Collector) error {
	for _, w := range bytes.Fields(line) {
		key := strconv.AppendInt(nil, int64(len(w)), 10)
		if err := out.Collect(key, []byte("1")); err != nil {
			return err
		}
	}
	return nil
}

// countCombine sums decimal-string counts; it is deliberately a different
// value representation from the built-in apps to prove the runtime is
// codec-agnostic.
func countCombine(key []byte, values [][]byte, emit func(k, v []byte) error) error {
	var sum int64
	for _, v := range values {
		n, err := strconv.ParseInt(string(v), 10, 64)
		if err != nil {
			return err
		}
		sum += n
	}
	return emit(key, strconv.AppendInt(nil, sum, 10))
}

type countReducer struct{}

func (countReducer) Reduce(key []byte, values mrtext.ValueIter, out mrtext.Collector) error {
	var sum int64
	for {
		v, ok, err := values.Next()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		n, err := strconv.ParseInt(string(v), 10, 64)
		if err != nil {
			return err
		}
		sum += n
	}
	return out.Collect(key, strconv.AppendInt(nil, sum, 10))
}

// TestCustomUserJob runs a fully user-defined job (custom mapper, combiner,
// reducer, value format) through every optimization configuration and
// checks the histogram is identical and correct each time.
func TestCustomUserJob(t *testing.T) {
	c, err := mrtext.NewCluster(mrtext.FastCluster(3))
	if err != nil {
		t.Fatal(err)
	}
	if err := mrtext.GenerateCorpus(c, "corpus.txt", mrtext.CorpusConfig{
		Vocabulary: 2000, Alpha: 1, WordsPerLine: 9, Seed: 11,
	}, 256<<10); err != nil {
		t.Fatal(err)
	}

	mkJob := func(name string) *mrtext.Job {
		return &mrtext.Job{
			Name:       name,
			Inputs:     []string{"corpus.txt"},
			NewMapper:  func() mrtext.Mapper { return wordLenMapper{} },
			NewReducer: func() mrtext.Reducer { return countReducer{} },
			Combine:    countCombine,
			Format: func(dst, k, v []byte) ([]byte, error) {
				return fmt.Appendf(dst, "%s %s\n", k, v), nil
			},
			SpillBufferBytes: 32 << 10,
		}
	}

	collect := func(res *mrtext.Result) map[string]int64 {
		hist := map[string]int64{}
		for p := range res.Outputs {
			data, err := mrtext.ReadOutput(c, res, p)
			if err != nil {
				t.Fatal(err)
			}
			for _, line := range bytes.Split(data, []byte("\n")) {
				if len(line) == 0 {
					continue
				}
				var length string
				var count int64
				if _, err := fmt.Sscanf(string(line), "%s %d", &length, &count); err != nil {
					t.Fatalf("bad line %q: %v", line, err)
				}
				hist[length] = count
			}
		}
		return hist
	}

	var first map[string]int64
	for _, cfg := range []struct {
		name  string
		apply func(j *mrtext.Job)
	}{
		{"baseline", func(j *mrtext.Job) {}},
		{"optimized", func(j *mrtext.Job) {
			j.FreqBuf = &mrtext.FreqBufConfig{K: 10, SampleFraction: 0.05, MemFraction: 0.3}
			j.SpillMatcher = true
		}},
		{"compress-runs", func(j *mrtext.Job) { j.CompressRuns = true }},
	} {
		job := mkJob("wordlen-" + cfg.name)
		cfg.apply(job)
		res, err := mrtext.Run(c, job)
		if err != nil {
			t.Fatalf("%s: %v", cfg.name, err)
		}
		hist := collect(res)
		if len(hist) == 0 {
			t.Fatalf("%s: empty histogram", cfg.name)
		}
		if first == nil {
			first = hist
			// Sanity: counts are all positive; short lengths dominate a
			// bijective-base26 vocabulary.
			var keys []string
			var total int64
			for k, v := range hist {
				keys = append(keys, k)
				if v <= 0 {
					t.Errorf("length %s count %d", k, v)
				}
				total += v
			}
			sort.Strings(keys)
			if total == 0 {
				t.Fatal("no words counted")
			}
			continue
		}
		if len(hist) != len(first) {
			t.Fatalf("%s: histogram size %d vs %d", cfg.name, len(hist), len(first))
		}
		for k, v := range first {
			if hist[k] != v {
				t.Errorf("%s: length %s count %d vs baseline %d", cfg.name, k, hist[k], v)
			}
		}
	}
}
