package mr_test

import (
	"bytes"
	"testing"

	"mrtext/internal/apps"
	"mrtext/internal/chaos"
	"mrtext/internal/cluster"
	"mrtext/internal/metrics"
	"mrtext/internal/mr"
	"mrtext/internal/serde"
	"mrtext/internal/textgen"
)

// Counter-identity suite. The record path counts in goroutine-owned locals
// and publishes to the task's metrics at task exits;
// this suite pins that nothing is lost or counted twice on the way: for
// three applications, three configurations and the fault-tolerance
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

// counterConfigs are the job configurations of the suite, each with the
// DFS block size of its cluster and the map tasks planned there.
var counterConfigs = []struct {
	name  string
	block int64
	maps  int
	tune  func(*mr.Job)
}{
	{"default", ctrBlock, 4, func(*mr.Job) {}},
	// Frequency-buffering carves its table out of the spill buffer; with
	// the suite's 32 KiB the table would hold a few hundred keys and evict
	// on every record.
	{"freqbuf-spillmatcher", ctrBlock, 4, func(j *mr.Job) {
		j.FreqBuf = mr.DefaultFreqBufText()
		j.SpillMatcher = true
		j.SpillBufferBytes = 8 * ctrSpill
	}},
	// 32 blocks of 16 KiB on 8 map slots with a buffer of four blocks: 8
	// map tasks of four blocks each.
	{"multi-block-splits", ctrBlock / 8, 8, func(j *mr.Job) { j.SpillBufferBytes = ctrBlock / 2 }},
}

func newCounterCluster(t *testing.T, chaosCfg *chaos.Config, block int64, input []byte) *cluster.Cluster {
	t.Helper()
	cfg := cluster.Fast(ftNodes)
	cfg.BlockSize = block
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
	mr.SetAttemptLimit(job, 8)
	return job
}

// expectedCounters computes the suite's counters without the runtime: the
// input is cut into lines here, a line belongs to the split of the
// runner's plan (PlanOf) its first byte lies in, the job's mapper runs over every line into a counting
// collector, each map task's records are grouped by key and passed through
// the job's combiner, and the output side is read off the reference
// executor's result. The reduce side's values and shuffle bytes come out
// as the least a run can have: a map task's output is its spill runs, with
// one combined record per key in each run the key fell in, so a task whose
// keys all fell in one spill reads as this one-record-per-key figure.
func expectedCounters(t *testing.T, c *cluster.Cluster, job *mr.Job, input []byte, ref map[int][]byte) map[string]int64 {
	t.Helper()
	splits, err := mr.PlanOf(c, job)
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
				want[metrics.CtrShuffleBytes] += int64(serde.KVLen(len(k), len(v)))
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

// atLeast names the counters expectedCounters gives a lower bound for.
var atLeast = map[string]bool{metrics.CtrReduceInputValues: true, metrics.CtrShuffleBytes: true}

func TestCounterIdentity(t *testing.T) {
	cells := append([]ftCell{{name: "fault-free"}}, ftCells...)
	if testing.Short() {
		cells = cells[:3]
	}
	for _, app := range counterApps {
		var input bytes.Buffer
		app.gen(t, &input)
		cref := newCounterCluster(t, nil, ctrBlock, input.Bytes())
		ref, err := mr.RunReference(cref, counterJob(app, app.name+"-ref"))
		if err != nil {
			t.Fatalf("%s reference: %v", app.name, err)
		}

		for _, conf := range counterConfigs {
			// The expected counters follow the plan the runner makes for
			// the configuration's job on its cluster.
			planned := newCounterCluster(t, nil, conf.block, input.Bytes())
			planJob := counterJob(app, app.name+"-"+conf.name+"-plan")
			conf.tune(planJob)
			want := expectedCounters(t, planned, planJob, input.Bytes(), ref)
			for name, v := range want {
				if v == 0 {
					t.Fatalf("%s/%s: expected %s is zero: the check would be vacuous", app.name, conf.name, name)
				}
			}
			for _, cell := range cells {
				app, conf, cell := app, conf, cell
				t.Run(app.name+"/"+conf.name+"/"+cell.name, func(t *testing.T) {
					var chaosCfg *chaos.Config
					if cell.name != "fault-free" {
						cfg := cell.cfg
						chaosCfg = &cfg
					}
					c := newCounterCluster(t, chaosCfg, conf.block, input.Bytes())
					job := counterJob(app, app.name+"-"+conf.name+"-"+cell.name)
					conf.tune(job)
					job.Speculation = cell.spec
					res, err := mr.Run(c, job)
					if err != nil {
						t.Fatalf("run: %v", err)
					}
					if res.MapTasks != conf.maps {
						t.Errorf("%d map tasks, want %d", res.MapTasks, conf.maps)
					}
					assertOutputsMatch(t, c, res, ref)
					for name, v := range want {
						got := res.Agg.Counters[name]
						if atLeast[name] && got < v || !atLeast[name] && got != v {
							t.Errorf("%s = %d, want %d", name, got, v)
						}
					}
					// Where the spills fell is the support goroutine's pace,
					// so the reduce side's values are checked against the
					// map side's own ledger: what it read is what the
					// committed map outputs hold — unless an output was
					// lost after some partition had read it, and its re-run
					// cut its spills elsewhere.
					if values, spilled := res.Agg.Counters[metrics.CtrReduceInputValues], res.Agg.Counters[metrics.CtrSpillRecords]; res.RecoveredMapTasks == 0 && values != spilled {
						t.Errorf("the reduce side read %d values from map outputs of %d records", values, spilled)
					}
					// The per-task reports carry the same totals: what a
					// reduce report surfaces as ShuffleBytes is its counter.
					var shuffled int64
					for _, rep := range res.Tasks {
						if rep.Kind == "reduce" {
							shuffled += rep.ShuffleBytes
						}
					}
					if shuffled != res.Agg.Counters[metrics.CtrShuffleBytes] {
						t.Errorf("reduce reports' ShuffleBytes sum to %d, the counter is %d", shuffled, res.Agg.Counters[metrics.CtrShuffleBytes])
					}
				})
			}
		}
	}
}
