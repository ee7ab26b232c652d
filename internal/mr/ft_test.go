package mr_test

import (
	"bytes"
	"errors"
	"sync"
	"testing"
	"time"

	"mrtext/internal/apps"
	"mrtext/internal/chaos"
	"mrtext/internal/cluster"
	"mrtext/internal/mr"
	"mrtext/internal/spillbuf"
	"mrtext/internal/textgen"
)

// Fault-tolerance integration suite: the central invariant is that job
// output under injected faults — attempt failures at every site, a node
// kill, manufactured stragglers with speculation on — is byte-identical
// to a fault-free run, and that the Result's attempt accounting is
// internally consistent and consistent with the chaos log.

const (
	ftNodes    = 4
	ftBlock    = 128 << 10
	ftCorpus   = 1 << 20 // 8 splits over 4 nodes
	ftReducers = 4
)

// newFTCluster builds a cluster with the FT test geometry: replication 2
// so inputs and outputs survive one node death. The injector (if any)
// starts disarmed, so corpus generation is fault-free.
func newFTCluster(t *testing.T, chaosCfg *chaos.Config) (*cluster.Cluster, string) {
	t.Helper()
	return newFTClusterSized(t, chaosCfg, ftBlock, ftCorpus)
}

// newFTClusterSized is newFTCluster with the block and corpus sizes chosen
// by the caller.
func newFTClusterSized(t *testing.T, chaosCfg *chaos.Config, block, corpusBytes int64) (*cluster.Cluster, string) {
	t.Helper()
	cfg := cluster.Fast(ftNodes)
	cfg.BlockSize = block
	cfg.Replication = 2
	cfg.Chaos = chaosCfg
	c, err := cluster.New(cfg)
	if err != nil {
		t.Fatalf("cluster: %v", err)
	}
	w, err := c.FS.Create("corpus.txt", 0)
	if err != nil {
		t.Fatalf("create corpus: %v", err)
	}
	gen := textgen.CorpusConfig{Vocabulary: 5000, Alpha: 1.0, WordsPerLine: 8, Seed: 42}
	if _, err := textgen.Corpus(w, gen, corpusBytes); err != nil {
		t.Fatalf("generate corpus: %v", err)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("close corpus: %v", err)
	}
	return c, "corpus.txt"
}

// ftJob returns the job the suite runs: WordCount with a small spill
// buffer (many spills, so every map-side fault site is exercised) and a
// fixed partition count so outputs are comparable across clusters.
func ftJob(corpus, name string) *mr.Job {
	job := apps.WordCount(corpus)
	job.Name = name
	job.NumReducers = ftReducers
	job.SpillBufferBytes = 32 << 10
	job.MaxAttempts = 8 // at 20% per-attempt fail rate, task death needs 8 straight losses
	return job
}

// ftReference computes the fault-free reference output once per test run.
func ftReference(t *testing.T) map[int][]byte {
	t.Helper()
	c, corpus := newFTCluster(t, nil)
	ref, err := mr.RunReference(c, ftJob(corpus, "wc-ref"))
	if err != nil {
		t.Fatalf("reference: %v", err)
	}
	return ref
}

// assertOutputsMatch reads every reduce output and compares it to the
// reference byte for byte.
func assertOutputsMatch(t *testing.T, c *cluster.Cluster, res *mr.Result, ref map[int][]byte) {
	t.Helper()
	if len(res.Outputs) != len(ref) {
		t.Fatalf("partitions: got %d want %d", len(res.Outputs), len(ref))
	}
	got := readOutputs(t, c, res)
	for p := range ref {
		if !bytes.Equal(got[p], ref[p]) {
			t.Errorf("partition %d differs under faults: got %d bytes, want %d bytes",
				p, len(got[p]), len(ref[p]))
		}
	}
}

// assertCounterIdentity checks the Result's attempt accounting: every
// started attempt is exactly one of a base attempt, a retry, a
// speculative backup, or a recovery re-run.
func assertCounterIdentity(t *testing.T, res *mr.Result) {
	t.Helper()
	started := res.MapAttempts + res.ReduceAttempts
	classified := res.MapTasks + res.ReduceTasks + res.TaskRetries + res.SpeculativeTasks + res.RecoveredMapTasks
	if started != classified {
		t.Errorf("attempt identity broken: %d attempts started, %d classified (map %d + reduce %d tasks, %d retries, %d speculative, %d recovered)",
			started, classified, res.MapTasks, res.ReduceTasks, res.TaskRetries, res.SpeculativeTasks, res.RecoveredMapTasks)
	}
	if res.MapAttempts < res.MapTasks {
		t.Errorf("map attempts %d < map tasks %d", res.MapAttempts, res.MapTasks)
	}
	if res.ReduceAttempts < res.ReduceTasks {
		t.Errorf("reduce attempts %d < reduce tasks %d", res.ReduceAttempts, res.ReduceTasks)
	}
}

// assertRegionsHome checks the spill regions of a cluster with no job
// running: every region a map attempt took from the pool is back,
// whichever way the attempt ended, and the pool holds no more than two per
// map slot.
func assertRegionsHome(t *testing.T, c *cluster.Cluster) {
	t.Helper()
	if out := c.SpillRegions.Out(); out != 0 {
		t.Errorf("%d spill regions still out of the pool with no task running", out)
	}
	if free, bound := c.SpillRegions.Free(), spillbuf.RegionsPerBuffer*c.TotalMapSlots(); free > bound {
		t.Errorf("pool holds %d spill regions, bound %d", free, bound)
	}
}

// ftCell is one cell of the suite's seed × fail-rate matrix.
type ftCell struct {
	name string
	cfg  chaos.Config
	spec bool
}

// ftCells is the matrix TestDeterminismUnderFaults runs, shared with the
// counter-identity suite: fault schedules at two seeds per fail rate, one
// cell that kills a node mid-job and one that manufactures stragglers
// with speculation on.
var ftCells = []ftCell{
	{"seed1-fail05", chaos.Config{Seed: 1, FailRate: 0.05, KillNode: -1}, false},
	{"seed7-fail05", chaos.Config{Seed: 7, FailRate: 0.05, KillNode: -1}, false},
	{"seed1-fail10", chaos.Config{Seed: 1, FailRate: 0.10, KillNode: -1}, false},
	{"seed3-fail20", chaos.Config{Seed: 3, FailRate: 0.20, KillNode: -1}, false},
	{"seed9-fail20", chaos.Config{Seed: 9, FailRate: 0.20, KillNode: -1}, false},
	// The kill cell floors every attempt at 2ms (DelayRate 1) so the
	// victim's workers are always scheduled before the short job runs
	// out of tasks: the kill only fires once the victim itself performs
	// chaos-visible work, and without the floor the other six slots can
	// occasionally claim all eight map tasks first.
	{"seed5-fail05-kill2", chaos.Config{Seed: 5, FailRate: 0.05, KillNode: 2, KillAfterOps: 40,
		DelayRate: 1, Delay: 2 * time.Millisecond}, false},
	{"seed11-fail10-stragglers-speculation", chaos.Config{Seed: 11, FailRate: 0.10, KillNode: -1, DelayRate: 0.3, Delay: 20 * time.Millisecond}, true},
}

// TestDeterminismUnderFaults is the seed × fail-rate matrix: each cell
// runs the same job on a fresh cluster with a different fault schedule —
// including one cell that kills a node mid-job and one that manufactures
// stragglers with speculation on — and requires byte-identical output.
func TestDeterminismUnderFaults(t *testing.T) {
	ref := ftReference(t)

	for _, cell := range ftCells {
		cell := cell
		t.Run(cell.name, func(t *testing.T) {
			cfg := cell.cfg
			c, corpus := newFTCluster(t, &cfg)
			job := ftJob(corpus, "wc-"+cell.name)
			job.Speculation = cell.spec
			res, err := mr.Run(c, job)
			if err != nil {
				t.Fatalf("run under chaos %+v: %v\nchaos log: %v", cfg, err, c.Chaos.Log())
			}
			assertOutputsMatch(t, c, res, ref)
			assertCounterIdentity(t, res)
			assertRegionsHome(t, c)

			stats := c.Chaos.Stats()
			// A fired fault either fails its attempt or — at the shuffle-
			// fetch site — is absorbed by the pipelined shuffle's per-source
			// retry, which counts it as a fetch retry instead.
			absorbed := res.ShuffleFetchRetries
			if stats.Faults > 0 && res.FailedAttempts == 0 && absorbed == 0 {
				t.Errorf("chaos fired %d faults but neither attempt failures nor absorbed fetch retries recorded", stats.Faults)
			}
			if res.FailedAttempts+absorbed < int(stats.Faults) {
				t.Errorf("failed attempts %d + absorbed fetch retries %d < injected faults %d: every fired fault must fail its attempt or be absorbed",
					res.FailedAttempts, absorbed, stats.Faults)
			}
			if cfg.KillNode >= 0 {
				if len(res.DeadNodes) != 1 || res.DeadNodes[0] != cfg.KillNode {
					t.Errorf("dead nodes = %v, want [%d]", res.DeadNodes, cfg.KillNode)
				}
			} else if len(res.DeadNodes) != 0 {
				t.Errorf("unexpected dead nodes %v", res.DeadNodes)
			}
			if cell.spec && stats.Delays > 0 && res.SpeculativeTasks == 0 {
				t.Logf("note: %d stragglers manufactured but no backups launched (quorum not reached in time)", stats.Delays)
			}
		})
	}
}

// ftSynJob returns the SynText benchmark sized for the FT suite; SynText
// exercises a different emit/aggregate profile than WordCount (payload
// growth via Storage), so chaos-smoke coverage isn't WordCount-shaped only.
func ftSynJob(corpus, name string) *mr.Job {
	job := apps.SynText(apps.SynTextConfig{CPUFactor: 1, Storage: 0.5}, corpus)
	job.Name = name
	job.NumReducers = ftReducers
	job.SpillBufferBytes = 32 << 10
	job.MaxAttempts = 8
	return job
}

// TestSynTextChaosSmoke is the CI chaos-smoke matrix: SynText across
// seed × fail-rate cells, including one node kill, each asserting success
// and byte-identical output versus the fault-free baseline.
func TestSynTextChaosSmoke(t *testing.T) {
	cref, corpus := newFTCluster(t, nil)
	ref, err := mr.RunReference(cref, ftSynJob(corpus, "syn-ref"))
	if err != nil {
		t.Fatalf("reference: %v", err)
	}
	cells := []struct {
		name string
		cfg  chaos.Config
	}{
		{"seed2-fail10", chaos.Config{Seed: 2, FailRate: 0.10, KillNode: -1}},
		{"seed8-fail20", chaos.Config{Seed: 8, FailRate: 0.20, KillNode: -1}},
		// Delay floor for the same reason as the WordCount kill cell: the
		// victim must be scheduled work before it can die.
		{"seed6-fail10-kill1", chaos.Config{Seed: 6, FailRate: 0.10, KillNode: 1, KillAfterOps: 40,
			DelayRate: 1, Delay: 2 * time.Millisecond}},
	}
	for _, cell := range cells {
		cell := cell
		t.Run(cell.name, func(t *testing.T) {
			cfg := cell.cfg
			c, corpus := newFTCluster(t, &cfg)
			res, err := mr.Run(c, ftSynJob(corpus, "syn-"+cell.name))
			if err != nil {
				t.Fatalf("run under chaos %+v: %v\nchaos log: %v", cfg, err, c.Chaos.Log())
			}
			assertOutputsMatch(t, c, res, ref)
			assertCounterIdentity(t, res)
			assertRegionsHome(t, c)
			if cfg.KillNode >= 0 && (len(res.DeadNodes) != 1 || res.DeadNodes[0] != cfg.KillNode) {
				t.Errorf("dead nodes = %v, want [%d]", res.DeadNodes, cfg.KillNode)
			}
		})
	}
}

// TestFaultScheduleIsSeedDeterministic runs the same chaos cell twice on
// fresh clusters: the set of injected faults depends only on the seed and
// the (task, attempt) pairs, so with retries converging the same way the
// two runs must agree on output and on how many attempts each phase took.
func TestFaultScheduleIsSeedDeterministic(t *testing.T) {
	run := func() (*mr.Result, map[int][]byte) {
		cfg := chaos.Config{Seed: 21, FailRate: 0.15, KillNode: -1}
		c, corpus := newFTCluster(t, &cfg)
		res, err := mr.Run(c, ftJob(corpus, "wc-det"))
		if err != nil {
			t.Fatalf("run: %v", err)
		}
		out := readOutputs(t, c, res)
		return res, out
	}
	res1, out1 := run()
	res2, out2 := run()
	for p := range out1 {
		if !bytes.Equal(out1[p], out2[p]) {
			t.Errorf("partition %d differs across identical chaos runs", p)
		}
	}
	// Retries reroll per (task, attempt) regardless of node placement, so
	// the retry count — not just the output — is reproducible.
	if res1.TaskRetries != res2.TaskRetries {
		t.Errorf("retries differ across identical chaos runs: %d vs %d", res1.TaskRetries, res2.TaskRetries)
	}
	if res1.FailedAttempts != res2.FailedAttempts {
		t.Errorf("failed attempts differ: %d vs %d", res1.FailedAttempts, res2.FailedAttempts)
	}
}

// TestLostMapOutputRecovery kills a node from inside the first reduce()
// call — after every map output has committed — so reducers find the dead
// node's committed map outputs gone and the runner must re-run them.
// NumReducers exceeds the cluster's reduce slots, so a second wave of
// reduce attempts is guaranteed to start after the kill.
func TestLostMapOutputRecovery(t *testing.T) {
	const victim = 1
	cfg := chaos.Config{Seed: 1, KillNode: -1}
	c, corpus := newFTCluster(t, &cfg)

	reducers := 2 * ftNodes * 2 // two waves of reduce attempts
	refC, refCorpus := newFTCluster(t, nil)
	refJob := ftJob(refCorpus, "wc-recovery-ref")
	refJob.NumReducers = reducers
	ref, err := mr.RunReference(refC, refJob)
	if err != nil {
		t.Fatalf("reference: %v", err)
	}

	job := ftJob(corpus, "wc-recovery")
	job.NumReducers = reducers
	var once sync.Once
	baseReducer := job.NewReducer
	job.NewReducer = func() mr.Reducer {
		inner := baseReducer()
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
	if len(res.DeadNodes) != 1 || res.DeadNodes[0] != victim {
		t.Fatalf("dead nodes = %v, want [%d]", res.DeadNodes, victim)
	}
	if res.RecoveredMapTasks == 0 {
		t.Errorf("node %d died after committing map outputs but no map tasks were recovered (map attempts %d, retries %d)",
			victim, res.MapAttempts, res.TaskRetries)
	}
}

// TestSpeculationOnManufacturedStraggler delays a large fraction of
// attempts so the straggler monitor has clear targets, and checks that
// backups launch and the output stays correct whichever copy wins.
func TestSpeculationOnManufacturedStraggler(t *testing.T) {
	ref := ftReference(t)
	// The delay must dwarf an undelayed attempt's duration even when the
	// race detector slows the undelayed work an order of magnitude,
	// otherwise 1.8× the committed median can swallow the manufactured
	// straggler margin and nothing speculates.
	cfg := chaos.Config{Seed: 13, KillNode: -1, DelayRate: 0.4, Delay: 120 * time.Millisecond}
	c, corpus := newFTCluster(t, &cfg)
	job := ftJob(corpus, "wc-spec")
	job.Speculation = true
	// With 40% of the eight map tasks delayed, the default 0.6 quorum is
	// often out of reach while the stragglers sleep; a low quorum lets the
	// monitor act as soon as a couple of fast attempts establish a median.
	job.SpeculationQuorum = 0.25
	res, err := mr.Run(c, job)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	assertOutputsMatch(t, c, res, ref)
	assertCounterIdentity(t, res)
	if stats := c.Chaos.Stats(); stats.Delays == 0 {
		t.Fatalf("no stragglers manufactured at delay rate %v", cfg.DelayRate)
	}
	if res.SpeculativeTasks == 0 {
		t.Errorf("stragglers ran %v behind their peers but no speculative backups launched", cfg.Delay)
	}
	if res.SpeculativeWins > res.SpeculativeTasks {
		t.Errorf("speculative wins %d > speculative launches %d", res.SpeculativeWins, res.SpeculativeTasks)
	}
}

// TestChaosOffIsCleanRun pins the zero-overhead contract's observable
// half: without a chaos config the runner takes exactly one attempt per
// task, retries nothing, sweeps nothing, and reports no FT events.
func TestChaosOffIsCleanRun(t *testing.T) {
	ref := ftReference(t)
	c, corpus := newFTCluster(t, nil)
	res, err := mr.Run(c, ftJob(corpus, "wc-clean"))
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	assertOutputsMatch(t, c, res, ref)
	if res.MapAttempts != res.MapTasks || res.ReduceAttempts != res.ReduceTasks {
		t.Errorf("clean run took extra attempts: map %d/%d, reduce %d/%d",
			res.MapAttempts, res.MapTasks, res.ReduceAttempts, res.ReduceTasks)
	}
	for name, v := range map[string]int{
		"retries":     res.TaskRetries,
		"speculative": res.SpeculativeTasks,
		"recovered":   res.RecoveredMapTasks,
		"failed":      res.FailedAttempts,
		"swept":       res.SweptAttempts,
	} {
		if v != 0 {
			t.Errorf("clean run reported %d %s attempts", v, name)
		}
	}
	if len(res.DeadNodes) != 0 || len(res.BlacklistedNodes) != 0 {
		t.Errorf("clean run reported dead %v / blacklisted %v nodes", res.DeadNodes, res.BlacklistedNodes)
	}
}

// TestRetryExhaustionFailsJob pins the failure path: with every attempt
// of every task guaranteed to fail, the job must surface an injected-
// fault error instead of hanging or succeeding.
func TestRetryExhaustionFailsJob(t *testing.T) {
	cfg := chaos.Config{Seed: 2, FailRate: 1.0, KillNode: -1}
	c, corpus := newFTCluster(t, &cfg)
	job := ftJob(corpus, "wc-doomed")
	job.MaxAttempts = 3
	_, err := mr.Run(c, job)
	if err == nil {
		t.Fatal("job succeeded with 100% attempt fail rate")
	}
	if !errors.Is(err, chaos.ErrInjected) {
		t.Errorf("error %q does not wrap chaos.ErrInjected", err)
	}
}

// newReplicaCluster builds a 6-node unthrottled cluster with replication 2
// and writes, from node 0, a corpus of exactly four 128 KiB blocks: node 0
// holds every block's primary replica and nodes 1, 3 and 5 the secondaries.
func newReplicaCluster(t *testing.T, chaosCfg *chaos.Config) (*cluster.Cluster, string) {
	t.Helper()
	const blocks, block = 4, ftBlock
	cfg := cluster.Fast(6)
	cfg.BlockSize = block
	cfg.Replication = 2
	cfg.Chaos = chaosCfg
	c, err := cluster.New(cfg)
	if err != nil {
		t.Fatalf("cluster: %v", err)
	}
	var corpus bytes.Buffer
	gen := textgen.CorpusConfig{Vocabulary: 5000, Alpha: 1.0, WordsPerLine: 8, Seed: 42}
	if _, err := textgen.Corpus(&corpus, gen, blocks*block+1024); err != nil {
		t.Fatalf("generate corpus: %v", err)
	}
	data := corpus.Bytes()[:blocks*block]
	data[len(data)-1] = '\n'
	w, err := c.FS.Create("corpus.txt", 0)
	if err != nil {
		t.Fatalf("create corpus: %v", err)
	}
	if _, err := w.Write(data); err != nil {
		t.Fatalf("write corpus: %v", err)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("close corpus: %v", err)
	}
	return c, "corpus.txt"
}

// TestMapPlacementOnReplicas runs a job whose input primaries are all on
// node 0. Undisturbed, its map tasks run on four distinct nodes, each on a
// node holding a replica of its split. With node 0 killed mid-map, its
// tasks rerun where the secondaries are. Either way the output is the
// reference executor's.
func TestMapPlacementOnReplicas(t *testing.T) {
	refC, corpus := newReplicaCluster(t, nil)
	ref, err := mr.RunReference(refC, ftJob(corpus, "wc-placement-ref"))
	if err != nil {
		t.Fatalf("reference: %v", err)
	}

	t.Run("spread", func(t *testing.T) {
		// A fault-free chaos delay floor: every attempt sleeps before it
		// computes, so each worker has asked for a task before the first
		// one ends even where the host has fewer cores than map slots and a
		// CPU-bound attempt would otherwise keep other nodes' workers from
		// running at all.
		cfg := chaos.Config{Seed: 1, KillNode: -1, DelayRate: 1, Delay: 5 * time.Millisecond}
		c, _ := newReplicaCluster(t, &cfg)
		res, err := mr.Run(c, ftJob(corpus, "wc-placement"))
		if err != nil {
			t.Fatalf("run: %v", err)
		}
		assertOutputsMatch(t, c, res, ref)
		if res.MapTasks != 4 || res.StolenMapTasks != 0 || res.LocalMapTasks != res.MapTasks {
			t.Errorf("%d map tasks, %d local, %d stolen; want 4 all local", res.MapTasks, res.LocalMapTasks, res.StolenMapTasks)
		}
		nodes := map[int]bool{}
		var placed []int
		for _, rep := range res.Tasks {
			if rep.Kind == "map" {
				nodes[rep.Node] = true
				placed = append(placed, rep.Node)
			}
		}
		if want := min(res.MapTasks, c.Nodes()); len(nodes) != want {
			t.Errorf("map tasks ran on nodes %v, want %d distinct nodes", placed, want)
		}
	})

	t.Run("primary-holder-dies", func(t *testing.T) {
		// The delay floor keeps the victim busy long enough to die mid-map,
		// as in the determinism matrix's kill cell.
		cfg := chaos.Config{Seed: 5, KillNode: 0, KillAfterOps: 40, DelayRate: 1, Delay: 2 * time.Millisecond}
		c, _ := newReplicaCluster(t, &cfg)
		res, err := mr.Run(c, ftJob(corpus, "wc-primary-death"))
		if err != nil {
			t.Fatalf("run: %v\nchaos log: %v", err, c.Chaos.Log())
		}
		assertOutputsMatch(t, c, res, ref)
		assertCounterIdentity(t, res)
		if len(res.DeadNodes) != 1 || res.DeadNodes[0] != 0 {
			t.Errorf("dead nodes = %v, want [0]", res.DeadNodes)
		}
		if res.MapAttempts == res.MapTasks {
			t.Errorf("node 0 died without failing a map attempt (%d attempts for %d tasks): the kill missed the map phase", res.MapAttempts, res.MapTasks)
		}
	})
}
