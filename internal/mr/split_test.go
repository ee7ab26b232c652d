package mr_test

import (
	"bytes"
	"errors"
	"io"
	"sync"
	"testing"

	"mrtext/internal/apps"
	"mrtext/internal/chaos"
	"mrtext/internal/cluster"
	"mrtext/internal/mr"
	"mrtext/internal/textgen"
)

// TestShortTailJoinsLastSplit pins where a file's splits end: every block
// is a split, except that a last block shorter than a tenth of the block
// size joins the split before it.
func TestShortTailJoinsLastSplit(t *testing.T) {
	const block = 64 << 10
	cfg := cluster.Fast(2)
	cfg.BlockSize = block
	c, err := cluster.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		size int64
		want []int64 // split lengths
	}{
		{"one-short-block", 100, []int64{100}},
		{"exact-blocks", 2 * block, []int64{block, block}},
		{"block-plus-15", block + 15, []int64{block + 15}},
		{"tail-just-short", 2*block + block/10 - 1, []int64{block, block + block/10 - 1}},
		{"tail-a-tenth", 2*block + block/10 + 1, []int64{block, block, block/10 + 1}},
	} {
		if err := c.FS.WriteFile(tc.name, bytes.Repeat([]byte("x\n"), int(tc.size/2)+1)[:tc.size]); err != nil {
			t.Fatal(err)
		}
		splits, err := mr.SplitsOf(c.FS, []string{tc.name})
		if err != nil {
			t.Fatal(err)
		}
		var got []int64
		var off int64
		for _, s := range splits {
			if s.Offset != off {
				t.Errorf("%s: split at %d, want %d", tc.name, s.Offset, off)
			}
			got = append(got, s.Len)
			off += s.Len
		}
		if len(got) != len(tc.want) || off != tc.size {
			t.Errorf("%s: splits %v, want %v", tc.name, got, tc.want)
			continue
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Errorf("%s: splits %v, want %v", tc.name, got, tc.want)
				break
			}
		}
	}
}

// The multi-block geometry: 48 blocks of 2 KiB, lines straddling most
// block boundaries, on 8 map slots with a spill buffer of four blocks, so
// that the runner plans 16 splits of three blocks, two full waves.
const (
	planBlock  = 2 << 10
	planInput  = 96 << 10
	planBuffer = 4 * planBlock
	planSplits = 16
)

// newPlanCluster writes planInput bytes of gen's input as "in" on a 4-node
// cluster of planBlock blocks with replication 2, its primaries placed
// round-robin so that the splits' hosts differ.
func newPlanCluster(t *testing.T, chaosCfg *chaos.Config, gen func(io.Writer) error) *cluster.Cluster {
	t.Helper()
	cfg := cluster.Fast(4)
	cfg.BlockSize = planBlock
	cfg.Replication = 2
	cfg.Chaos = chaosCfg
	c, err := cluster.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	w, err := c.FS.Create("in", -1)
	if err != nil {
		t.Fatal(err)
	}
	if err := errors.Join(gen(w), w.Close()); err != nil {
		t.Fatal(err)
	}
	return c
}

var planApps = []struct {
	name string
	job  func(input string) *mr.Job
	gen  func(io.Writer) error
}{
	{"wordcount", func(in string) *mr.Job { return apps.WordCount(in) }, func(w io.Writer) error {
		_, err := textgen.Corpus(w, textgen.CorpusConfig{Vocabulary: 3000, Alpha: 1.0, WordsPerLine: 8, Seed: 3}, planInput)
		return err
	}},
	{"accesslogsum", apps.AccessLogSum, func(w io.Writer) error {
		cfg := textgen.DefaultLog()
		cfg.Seed = 3
		_, err := textgen.UserVisits(w, cfg, planInput)
		return err
	}},
}

// planJob is app's job over "in" with the multi-block geometry's buffer.
func planJob(t *testing.T, c *cluster.Cluster, job *mr.Job, name string, reducers int) *mr.Job {
	t.Helper()
	job.Name = name
	job.NumReducers = reducers
	job.SpillBufferBytes = planBuffer
	splits, err := mr.PlanOf(c, job)
	if err != nil {
		t.Fatal(err)
	}
	if len(splits) != planSplits {
		t.Fatalf("%d splits planned, want %d", len(splits), planSplits)
	}
	for i, sp := range splits {
		if sp.Len <= planBlock {
			t.Fatalf("split %d is %d bytes: want several blocks", i, sp.Len)
		}
	}
	return job
}

// TestMultiBlockSplitsMatchReference runs WordCount and AccessLogSum on
// splits of three blocks, whose inner block boundaries most lines
// straddle, and requires their output to equal the reference executor's
// byte for byte.
func TestMultiBlockSplitsMatchReference(t *testing.T) {
	for _, app := range planApps {
		t.Run(app.name, func(t *testing.T) {
			c := newPlanCluster(t, nil, app.gen)
			ref, err := mr.RunReference(c, planJob(t, c, app.job("in"), app.name+"-ref", 4))
			if err != nil {
				t.Fatal(err)
			}
			res, err := mr.Run(c, planJob(t, c, app.job("in"), app.name, 4))
			if err != nil {
				t.Fatal(err)
			}
			if res.MapTasks != planSplits {
				t.Errorf("%d map tasks, want the plan's %d", res.MapTasks, planSplits)
			}
			assertOutputsMatch(t, c, res, ref)
		})
	}
}

// TestMultiBlockSplitRecovery kills a node from inside the first reduce()
// call, after every map output has committed, so that the multi-block
// splits whose outputs the node held are re-run on the nodes left; the
// output must still equal the reference executor's.
func TestMultiBlockSplitRecovery(t *testing.T) {
	const victim = 1
	app := planApps[0]
	c := newPlanCluster(t, &chaos.Config{Seed: 1, KillNode: -1}, app.gen)
	reducers := 2 * c.TotalReduceSlots() // a second wave of reduce attempts starts after the kill
	ref, err := mr.RunReference(c, planJob(t, c, app.job("in"), "recovery-ref", reducers))
	if err != nil {
		t.Fatal(err)
	}
	job := planJob(t, c, app.job("in"), "recovery", reducers)
	mr.SetAttemptLimit(job, 8)
	var once sync.Once
	base := job.NewReducer
	job.NewReducer = func() mr.Reducer {
		inner := base()
		return mr.ReducerFunc(func(key []byte, values mr.ValueIter, out mr.Collector) error {
			once.Do(func() { c.Chaos.Kill(victim) })
			return inner.Reduce(key, values, out)
		})
	}
	res, err := mr.Run(c, job)
	if err != nil {
		t.Fatalf("run with mid-reduce node kill: %v", err)
	}
	assertOutputsMatch(t, c, res, ref)
	assertCounterIdentity(t, res)
	if res.RecoveredMapTasks == 0 {
		t.Errorf("node %d died after committing map outputs but no map task was re-run (map attempts %d)", victim, res.MapAttempts)
	}
}
