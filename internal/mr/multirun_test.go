package mr_test

import (
	"bytes"
	"fmt"
	"testing"

	"mrtext/internal/apps"
	"mrtext/internal/cluster"
	"mrtext/internal/metrics"
	"mrtext/internal/mr"
	"mrtext/internal/textgen"
)

// multiRunSpill is a spill buffer small enough that every map task of the
// catalogue test spills at least three times.
const multiRunSpill = 8 << 10

// TestMultiRunOutputsMatchReference runs every catalogue application with a
// spill buffer that cuts each map task's output into several runs, in both
// run formats: the reduce side merges one stream per (map task, run), and
// the output must be RunReference's byte for byte. So must the output of a
// job whose reducer writes a key's values in the order they arrive: the
// merge keeps them in emit order across runs and map tasks.
func TestMultiRunOutputsMatchReference(t *testing.T) {
	cfg := cluster.Fast(3)
	cfg.BlockSize = 64 << 10
	c, err := cluster.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	graph := textgen.GraphConfig{Pages: 3000, Alpha: 1, MeanOutDegree: 6, Seed: 3}
	data := apps.Data{
		Corpus:      textgen.CorpusConfig{Vocabulary: 4000, Alpha: 1, WordsPerLine: 8, Seed: 11},
		CorpusBytes: 160 << 10,
		Log:         textgen.LogConfig{URLs: 400, Alpha: 0.8, Seed: 5},
		VisitBytes:  160 << 10,
		Graph:       graph,
	}
	names := map[apps.Input]string{apps.Corpus: "corpus.txt", apps.Visits: "visits.log", apps.Rankings: "rankings.tbl", apps.Graph: "crawl.tsv"}
	for in, name := range names {
		w, err := c.FS.Create(name, 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := in.Generate(w, data); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
	}
	params := apps.Params{Pages: graph.Pages, POSIterations: 1, SynText: apps.SynTextConfig{CPUFactor: 1, Storage: 0.5}}
	jobs := map[string]func() *mr.Job{"value-order": func() *mr.Job { return valueOrderJob(names[apps.Corpus]) }}
	order := []string{"value-order"}
	for _, a := range apps.Catalogue {
		var inputs []string
		for _, in := range a.Inputs {
			inputs = append(inputs, names[in])
		}
		jobs[a.Name] = func() *mr.Job { return a.Job(inputs, params) }
		order = append(order, a.Name)
	}
	for _, name := range order {
		for _, compress := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/compress=%v", name, compress), func(t *testing.T) {
				job := jobs[name]()
				job.Name = fmt.Sprintf("multirun-%s-%v", name, compress)
				job.NumReducers = 4
				job.SpillBufferBytes = multiRunSpill
				job.CompressRuns = compress
				res := runAgainstReference(t, c, job)
				for _, task := range res.Tasks {
					if task.Kind == "map" && task.Spill.Spills < 3 {
						t.Errorf("map task %d spilled %d times (%d bytes emitted), want at least 3", task.Index, task.Spill.Spills, task.Metrics.Counters[metrics.CtrMapOutputBytes])
					}
				}
				if got, want := res.Agg.Counters[metrics.CtrReduceInputValues], res.Agg.Counters[metrics.CtrSpillRecords]; got != want {
					t.Errorf("the reduce side read %d values from runs of %d records", got, want)
				}
			})
		}
	}
}

// valueOrderJob emits every word of the input with its place, "offset.i",
// and reduces a word to its places in the order they arrive.
func valueOrderJob(input string) *mr.Job {
	return &mr.Job{
		Inputs: []string{input},
		NewMapper: func() mr.Mapper {
			return mr.MapperFunc(func(off int64, line []byte, out mr.Collector) error {
				for i, w := range bytes.Fields(line) {
					if err := out.Collect(w, fmt.Appendf(nil, "%d.%d", off, i)); err != nil {
						return err
					}
				}
				return nil
			})
		},
		NewReducer: func() mr.Reducer {
			return mr.ReducerFunc(func(key []byte, values mr.ValueIter, out mr.Collector) error {
				var places []byte
				for {
					v, ok, err := values.Next()
					if err != nil {
						return err
					}
					if !ok {
						return out.Collect(key, places)
					}
					places = append(append(places, v...), ' ')
				}
			})
		},
	}
}
