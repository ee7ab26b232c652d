package mr_test

import (
	"bytes"
	"testing"

	"mrtext/internal/apps"
	"mrtext/internal/chaos"
	"mrtext/internal/cluster"
	"mrtext/internal/metrics"
	"mrtext/internal/mr"
	"mrtext/internal/textgen"
)

// Counter-identity suite. The record path counts in goroutine-owned locals
// and publishes to the task's metrics at spill boundaries and task exits;
// this suite pins that nothing is lost or counted twice on the way: for
// three applications, two configurations and the fault-tolerance
// matrix's chaos schedules, the job's aggregate counters equal values
// computed from the input file, the job's own map and combine functions
// run by the test, and RunReference's output — never from the runtime's
// counters.

const (
	ctrBlock  = 128 << 10
	ctrInput  = 512 << 10 // 4 splits
	ctrSpill  = 32 << 10  // several spills per map task
	ctrReduce = 4
)

// counterApp is one application of the suite: its job constructor and the
// generator of its input.
type counterApp struct {
	name string
	job  func(input string) *mr.Job
	gen  func(t *testing.T, w *bytes.Buffer)
}

var counterApps = []counterApp{
	{"wordcount", func(in string) *mr.Job { return apps.WordCount(in) }, genCorpus},
	{"invertedindex", func(in string) *mr.Job { return apps.InvertedIndex(in) }, genCorpus},
	{"accesslogsum", apps.AccessLogSum, genVisits},
}

func genCorpus(t *testing.T, w *bytes.Buffer) {
	t.Helper()
	cfg := textgen.CorpusConfig{Vocabulary: 5000, Alpha: 1.0, WordsPerLine: 8, Seed: 42}
	if _, err := textgen.Corpus(w, cfg, ctrInput); err != nil {
		t.Fatalf("generate corpus: %v", err)
	}
}

func genVisits(t *testing.T, w *bytes.Buffer) {
	t.Helper()
	cfg := textgen.DefaultLog()
	cfg.URLs = 2000
	cfg.Seed = 42
	if _, err := textgen.UserVisits(w, cfg, ctrInput); err != nil {
		t.Fatalf("generate visits: %v", err)
	}
}

// counterConfigs are the job configurations of the suite.
var counterConfigs = []struct {
	name string
	tune func(*mr.Job)
}{
	{"default", func(*mr.Job) {}},
	// Frequency-buffering carves its table out of the spill buffer; with
	// the suite's 32 KiB the table would hold a few hundred keys and evict
	// on every record.
	{"freqbuf-spillmatcher", func(j *mr.Job) {
		j.FreqBuf = mr.DefaultFreqBufText()
		j.SpillMatcher = true
		j.SpillBufferBytes = 8 * ctrSpill
	}},
}

func newCounterCluster(t *testing.T, chaosCfg *chaos.Config, input []byte) *cluster.Cluster {
	t.Helper()
	cfg := cluster.Fast(ftNodes)
	cfg.BlockSize = ctrBlock
	cfg.Replication = 2
	cfg.Chaos = chaosCfg
	c, err := cluster.New(cfg)
	if err != nil {
		t.Fatalf("cluster: %v", err)
	}
	w, err := c.FS.Create("input", 0)
	if err != nil {
		t.Fatalf("create input: %v", err)
	}
	if _, err := w.Write(input); err != nil {
		t.Fatalf("write input: %v", err)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("close input: %v", err)
	}
	return c
}

func counterJob(app counterApp, name string) *mr.Job {
	job := app.job("input")
	job.Name = name
	job.NumReducers = ctrReduce
	job.SpillBufferBytes = ctrSpill
	job.MaxAttempts = 8
	return job
}

// expectedCounters computes the suite's counters without the runtime: the
// input is cut into lines here, a line belongs to the split its first byte
// lies in, the job's mapper runs over every line into a counting
// collector, each map task's records are grouped by key and passed through
// the job's combiner (a map task's output holds one combined record per
// key, however its spills fell), and the output side is read off the
// reference executor's result.
func expectedCounters(t *testing.T, c *cluster.Cluster, job *mr.Job, input []byte, ref map[int][]byte) map[string]int64 {
	t.Helper()
	splits, err := mr.SplitsOf(c.FS, job.Inputs)
	if err != nil {
		t.Fatalf("splits: %v", err)
	}
	taskOf := func(off int64) int {
		for i, s := range splits {
			if off >= s.Offset && off < s.Offset+s.Len {
				return i
			}
		}
		t.Fatalf("offset %d in no split", off)
		return -1
	}

	want := map[string]int64{}
	type group struct {
		key  []byte
		vals [][]byte
	}
	perTask := make([]map[string]*group, len(splits))
	for i := range perTask {
		perTask[i] = map[string]*group{}
	}
	distinct := map[string]bool{}
	mapper := job.NewMapper()
	for off := 0; off < len(input); {
		end := bytes.IndexByte(input[off:], '\n')
		next := off + end + 1
		if end < 0 {
			end, next = len(input)-off, len(input)
		}
		task := perTask[taskOf(int64(off))]
		want[metrics.CtrMapInputRecords]++
		err := mapper.Map(int64(off), input[off:off+end], mr.CollectorFunc(func(k, v []byte) error {
			want[metrics.CtrMapOutputRecords]++
			want[metrics.CtrMapOutputBytes] += int64(len(k) + len(v) + 16)
			g := task[string(k)]
			if g == nil {
				g = &group{key: append([]byte(nil), k...)}
				task[string(k)] = g
				distinct[string(k)] = true
			}
			g.vals = append(g.vals, append([]byte(nil), v...))
			return nil
		}))
		if err != nil {
			t.Fatalf("map: %v", err)
		}
		off = next
	}
	for _, task := range perTask {
		for _, g := range task {
			err := job.Combine(g.key, g.vals, func(k, v []byte) error {
				want[metrics.CtrReduceInputValues]++
				want[metrics.CtrShuffleBytes] += int64(len(k) + len(v) + 4)
				return nil
			})
			if err != nil {
				t.Fatalf("combine: %v", err)
			}
		}
	}
	want[metrics.CtrReduceInputGroups] = int64(len(distinct))
	for _, out := range ref {
		want[metrics.CtrOutputRecords] += int64(bytes.Count(out, []byte("\n")))
		want[metrics.CtrOutputBytes] += int64(len(out))
	}
	return want
}

func TestCounterIdentity(t *testing.T) {
	cells := append([]ftCell{{name: "fault-free"}}, ftCells...)
	if testing.Short() {
		cells = cells[:3]
	}
	for _, app := range counterApps {
		var input bytes.Buffer
		app.gen(t, &input)
		cref := newCounterCluster(t, nil, input.Bytes())
		refJob := counterJob(app, app.name+"-ref")
		ref, err := mr.RunReference(cref, refJob)
		if err != nil {
			t.Fatalf("%s reference: %v", app.name, err)
		}
		want := expectedCounters(t, cref, refJob, input.Bytes(), ref)
		for name, v := range want {
			if v == 0 {
				t.Fatalf("%s: expected %s is zero: the check would be vacuous", app.name, name)
			}
		}

		for _, conf := range counterConfigs {
			for _, cell := range cells {
				app, conf, cell := app, conf, cell
				t.Run(app.name+"/"+conf.name+"/"+cell.name, func(t *testing.T) {
					var chaosCfg *chaos.Config
					if cell.name != "fault-free" {
						cfg := cell.cfg
						chaosCfg = &cfg
					}
					c := newCounterCluster(t, chaosCfg, input.Bytes())
					job := counterJob(app, app.name+"-"+conf.name+"-"+cell.name)
					conf.tune(job)
					job.Speculation = cell.spec
					res, err := mr.Run(c, job)
					if err != nil {
						t.Fatalf("run: %v", err)
					}
					assertOutputsMatch(t, c, res, ref)
					for name, v := range want {
						if got := res.Agg.Counters[name]; got != v {
							t.Errorf("%s = %d, want %d", name, got, v)
						}
					}
					// The per-task reports carry the same totals: what a
					// reduce report surfaces as ShuffleBytes is its counter.
					var shuffled int64
					for _, rep := range res.Tasks {
						if rep.Kind == "reduce" {
							shuffled += rep.ShuffleBytes
						}
					}
					if shuffled != want[metrics.CtrShuffleBytes] {
						t.Errorf("reduce reports' ShuffleBytes sum to %d, want %d", shuffled, want[metrics.CtrShuffleBytes])
					}
				})
			}
		}
	}
}
