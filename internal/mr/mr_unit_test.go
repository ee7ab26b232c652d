package mr

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"mrtext/internal/chaos"
	"mrtext/internal/cluster"
	"mrtext/internal/core/spillmatch"
	"mrtext/internal/metrics"
	"mrtext/internal/serde"
)

func TestDefaultPartitionerRange(t *testing.T) {
	keys := []string{"", "a", "hello", "world", "日本語", strings.Repeat("x", 1000)}
	for _, parts := range []int{1, 2, 7, 64} {
		for _, k := range keys {
			p := DefaultPartitioner([]byte(k), parts)
			if p < 0 || p >= parts {
				t.Errorf("partition %d for %q over %d parts", p, k, parts)
			}
		}
	}
	// Deterministic.
	if DefaultPartitioner([]byte("key"), 16) != DefaultPartitioner([]byte("key"), 16) {
		t.Error("partitioner not deterministic")
	}
}

func TestJobWithDefaultsValidation(t *testing.T) {
	mkJob := func(mutate func(*Job)) *Job {
		j := &Job{
			Name:       "j",
			Inputs:     []string{"in"},
			NewMapper:  func() Mapper { return MapperFunc(func(int64, []byte, Collector) error { return nil }) },
			NewReducer: func() Reducer { return ReducerFunc(func([]byte, ValueIter, Collector) error { return nil }) },
		}
		if mutate != nil {
			mutate(j)
		}
		return j
	}
	if _, err := mkJob(func(j *Job) { j.Name = "" }).withDefaults(4); err == nil {
		t.Error("nameless job accepted")
	}
	if _, err := mkJob(func(j *Job) { j.Inputs = nil }).withDefaults(4); err == nil {
		t.Error("inputless job accepted")
	}
	if _, err := mkJob(func(j *Job) { j.NewMapper = nil }).withDefaults(4); err == nil {
		t.Error("mapperless job accepted")
	}
	if _, err := mkJob(func(j *Job) { j.FreqBuf = &FreqBufConfig{K: 0} }).withDefaults(4); err == nil {
		t.Error("freqbuf K=0 accepted")
	}
	job, err := mkJob(nil).withDefaults(4)
	if err != nil {
		t.Fatal(err)
	}
	if job.NumReducers != 4 || job.SpillBufferBytes != 4<<20 ||
		job.Partition == nil || job.OutputPrefix == "" || job.filePrefix == "" {
		t.Errorf("defaults not applied: %+v", job)
	}
	// Unique file prefixes across runs.
	job2, _ := mkJob(nil).withDefaults(4)
	if job.filePrefix == job2.filePrefix {
		t.Error("file prefixes collide across runs")
	}
	// MemFraction repair.
	job3, err := mkJob(func(j *Job) { j.FreqBuf = &FreqBufConfig{K: 10, MemFraction: 5} }).withDefaults(4)
	if err != nil {
		t.Fatal(err)
	}
	if job3.FreqBuf.MemFraction != 0.3 {
		t.Errorf("MemFraction %g", job3.FreqBuf.MemFraction)
	}
}

func TestNewControllerSelection(t *testing.T) {
	j := &Job{SpillMatcher: false}
	if st, ok := j.newController().(*spillmatch.Static); !ok {
		t.Error("baseline job did not get a static controller")
	} else if got := st.Percent(); got != spillmatch.DefaultStaticPercent {
		t.Errorf("baseline spill percent %g, want the constant %g", got, spillmatch.DefaultStaticPercent)
	}
	j.SpillMatcher = true
	if _, ok := j.newController().(*spillmatch.Matcher); !ok {
		t.Error("spill-matcher job did not get a Matcher")
	}
	// Per-task controllers are independent instances.
	if j.newController() == j.newController() {
		t.Error("controllers shared across tasks")
	}
}

func TestMapperErrorPropagates(t *testing.T) {
	c, err := cluster.New(cluster.Fast(2))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.FS.WriteFile("in", []byte("line one\nline two\n")); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("mapper exploded")
	job := &Job{
		Name:   "failing",
		Inputs: []string{"in"},
		NewMapper: func() Mapper {
			return MapperFunc(func(off int64, line []byte, out Collector) error { return boom })
		},
		NewReducer: func() Reducer {
			return ReducerFunc(func(k []byte, v ValueIter, out Collector) error { return nil })
		},
	}
	if _, err := Run(c, job); err == nil || !errors.Is(err, boom) {
		t.Errorf("mapper error not propagated: %v", err)
	}
}

func TestReducerErrorPropagates(t *testing.T) {
	c, err := cluster.New(cluster.Fast(2))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.FS.WriteFile("in", []byte("word\n")); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("reducer exploded")
	job := &Job{
		Name:   "failing-reduce",
		Inputs: []string{"in"},
		NewMapper: func() Mapper {
			return MapperFunc(func(off int64, line []byte, out Collector) error {
				return out.Collect(line, serde.EncodeInt64(1))
			})
		},
		NewReducer: func() Reducer {
			return ReducerFunc(func(k []byte, v ValueIter, out Collector) error { return boom })
		},
	}
	if _, err := Run(c, job); err == nil || !errors.Is(err, boom) {
		t.Errorf("reducer error not propagated: %v", err)
	}
}

// TestPartitionerOutOfRange: a partitioner answering outside
// [0, NumReducers) fails the job where the answer is made, with the key,
// the value returned and the partition count — not spills later as a
// run-ordering error from the support goroutine, and never as a panic in
// the sort's per-partition pass.
func TestPartitionerOutOfRange(t *testing.T) {
	for _, bad := range []int{-1, 3} {
		c, err := cluster.New(cluster.Fast(2))
		if err != nil {
			t.Fatal(err)
		}
		if err := c.FS.WriteFile("in", []byte(strings.Repeat("good\nstray\nfine\n", 40))); err != nil {
			t.Fatal(err)
		}
		job := &Job{
			Name:         "bad-partitioner",
			Inputs:       []string{"in"},
			NumReducers:  3,
			attemptLimit: 1,
			Partition: func(key []byte, parts int) int {
				if string(key) == "stray" {
					return bad
				}
				return DefaultPartitioner(key, parts)
			},
			NewMapper: func() Mapper {
				return MapperFunc(func(off int64, line []byte, out Collector) error {
					return out.Collect(line, serde.EncodeInt64(1))
				})
			},
			NewReducer: func() Reducer {
				return ReducerFunc(func(k []byte, v ValueIter, out Collector) error { return nil })
			},
		}
		want := fmt.Sprintf(`partitioner returned %d for key "stray": want a partition in [0, 3)`, bad)
		if _, err := Run(c, job); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("partitioner returning %d: job error %v, want one containing %q", bad, err, want)
		}
	}
}

// placeAll lets every slot's worker ask s for map tasks, in an order rng
// picks afresh after every take, until s has handed out every task;
// nothing ends. It returns each task's node and whether it was stolen.
func placeAll(t *testing.T, s *scheduler, rng *rand.Rand) (where []int, stolen []bool) {
	t.Helper()
	where, stolen = make([]int, len(s.splits)), make([]bool, len(s.splits))
	var idle []int // one entry per free slot
	for n := range s.load {
		for i := 0; i < s.slots; i++ {
			idle = append(idle, n)
		}
	}
	live := func(int) bool { return true }
	for len(s.pending) > 0 {
		took := false
		for _, k := range rng.Perm(len(idle)) {
			node := idle[k]
			if task, st, ok := s.take(node, live); ok {
				s.load[node]++
				where[task], stolen[task] = node, st
				idle = slices.Delete(idle, k, k+1)
				took = true
				break
			}
		}
		if !took {
			t.Fatalf("%d tasks pending and no free slot may take one", len(s.pending))
		}
	}
	return where, stolen
}

// newPlacementRun is a map phase of an ftRun over splits on a chaos-wrapped
// Fast cluster, with every slot's worker registered, as runPhase sets it
// up; the scheduler is returned for inspection.
func newPlacementRun(t *testing.T, nodes int, splits []Split) (*ftRun, *phase, *scheduler) {
	t.Helper()
	cfg := cluster.Fast(nodes)
	cfg.Chaos = &chaos.Config{Seed: 1, KillNode: -1}
	c, err := cluster.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ft := newFTRun(c, &Job{attemptLimit: 4}, splits)
	s := newScheduler(nodes, c.MapSlots(), splits)
	ph := newPhase(len(splits), s, c.MapSlots(), nil)
	ph.activeWorkers = c.TotalMapSlots()
	return ft, ph, s
}

// nextWithin runs ft.next(ph, node) and fails the test if it has not returned
// within a generous deadline: a worker left waiting on a node that can no
// longer run tasks would wait forever.
func nextWithin(t *testing.T, ft *ftRun, ph *phase, node int) (pendingAttempt, bool) {
	t.Helper()
	type result struct {
		pa pendingAttempt
		ok bool
	}
	ch := make(chan result, 1)
	go func() {
		pa, _, ok := ft.next(ph, node)
		ch <- result{pa, ok}
	}()
	select {
	case r := <-ch:
		return r.pa, r.ok
	case <-time.After(5 * time.Second):
		t.Fatalf("node %d's worker still waiting for a task", node)
		return pendingAttempt{}, false
	}
}

// waitParked waits until some goroutine is parked on a condition variable
// inside fn, the function named as a goroutine dump names it.
func waitParked(t *testing.T, fn string) {
	t.Helper()
	buf := make([]byte, 1<<20)
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); runtime.Gosched() {
		n := runtime.Stack(buf, true)
		for _, g := range strings.Split(string(buf[:n]), "\n\n") {
			if strings.Contains(g, "sync.(*Cond).Wait") && strings.Contains(g, fn) {
				return
			}
		}
	}
	t.Fatalf("no goroutine parked in %s", fn)
}

// TestSchedulerLocalityAndStealing pins the map placement rule: a task goes
// to its least-loaded holder (any node with a replica of its split), a node
// takes a task it does not hold only when it runs fewer map attempts than
// every live holder with a free slot or no holder has one, and a dead or
// blacklisted holder is never waited for.
func TestSchedulerLocalityAndStealing(t *testing.T) {
	t.Run("replicas-spread", func(t *testing.T) {
		// ii_paper's layout: a 4 MiB input written from node 0 in 1 MiB blocks
		// with replication 2 on 6 nodes of 2 map slots, the last block a tail.
		hosts := [][]int{{0, 1}, {0, 3}, {0, 5}, {0, 1}, {0, 3}}
		splits := make([]Split, len(hosts))
		for i, h := range hosts {
			splits[i] = Split{Hosts: h, Len: 1 << 20}
		}
		splits[4].Len = 512
		for seed := int64(0); seed < 500; seed++ {
			s := newScheduler(6, 2, splits)
			where, stolen := placeAll(t, s, rand.New(rand.NewSource(seed)))
			if seen := map[int]bool{where[0]: true, where[1]: true, where[2]: true, where[3]: true}; len(seen) != 4 {
				t.Fatalf("seed %d: the four large tasks ran on nodes %v, want four distinct nodes", seed, where[:4])
			}
			if slices.Contains(stolen[:4], true) {
				t.Fatalf("seed %d: a large task was stolen (nodes %v, stolen %v)", seed, where, stolen)
			}
			if s.local+s.stolen != len(splits) {
				t.Fatalf("seed %d: %d local + %d stolen of %d tasks", seed, s.local, s.stolen, len(splits))
			}
		}
		// Slots asking in node order place every task, the tail included, on
		// a holder.
		s := newScheduler(6, 2, splits)
		for n := 0; n < 6; n++ {
			for slot := 0; slot < 2; slot++ {
				if _, _, ok := s.take(n, func(int) bool { return true }); ok {
					s.load[n]++
				}
			}
		}
		if len(s.pending) != 0 || s.stolen != 0 || s.local != len(splits) {
			t.Errorf("node-order placement: %d pending, %d local, %d stolen; want all %d local", len(s.pending), s.local, s.stolen, len(splits))
		}
	})

	t.Run("one-holder", func(t *testing.T) {
		// Replication 1, as on FastCluster: node 0 holds every split.
		splits := make([]Split, 8)
		for i := range splits {
			splits[i] = Split{Hosts: []int{0}, Len: 100}
		}
		s := newScheduler(4, 2, splits)
		live := func(int) bool { return true }
		if _, _, ok := s.take(1, live); ok {
			t.Fatal("node 1 took a task node 0 holds while node 0 ran nothing")
		}
		for i := 0; i < 2; i++ {
			if _, stolen, ok := s.take(0, live); !ok || stolen {
				t.Fatalf("node 0's take %d: ok=%v stolen=%v", i, ok, stolen)
			}
			s.load[0]++
		}
		// Node 0 is full: every other slot takes work.
		for n := 1; n < 4; n++ {
			for i := 0; i < 2; i++ {
				if _, stolen, ok := s.take(n, live); !ok || !stolen {
					t.Fatalf("node %d's take %d with node 0 full: ok=%v stolen=%v", n, i, ok, stolen)
				}
				s.load[n]++
			}
		}
		if s.local != 2 || s.stolen != 6 || len(s.pending) != 0 {
			t.Errorf("%d local, %d stolen, %d pending; want 2, 6, 0", s.local, s.stolen, len(s.pending))
		}
	})

	t.Run("dead-holder", func(t *testing.T) {
		// Node 1 holds both tasks and runs nothing: node 0 waits for it, and
		// takes the task once node 1 dies.
		ft, ph, s := newPlacementRun(t, 3, []Split{{Hosts: []int{1}, Len: 100}, {Hosts: []int{1}, Len: 100}})
		got := make(chan pendingAttempt, 1)
		go func() {
			pa, _, _ := ft.next(ph, 0)
			got <- pa
		}()
		waitParked(t, "(*ftRun).next")
		ft.c.Chaos.Kill(1)
		ft.refreshDeadNodes()
		select {
		case pa := <-got:
			if pa.task != 0 {
				t.Errorf("node 0 took task %d, want 0", pa.task)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("node 0 still waits for a dead holder")
		}
		if pa, ok := nextWithin(t, ft, ph, 2); !ok || pa.task != 1 {
			t.Errorf("node 2 after the holder died: task %d ok=%v", pa.task, ok)
		}
		if _, ok := nextWithin(t, ft, ph, 1); ok {
			t.Error("the dead node was handed a task")
		}
		if s.local != 0 || s.stolen != 2 {
			t.Errorf("%d local, %d stolen; want 0, 2", s.local, s.stolen)
		}
	})

	t.Run("blacklisted-holder", func(t *testing.T) {
		ft, ph, s := newPlacementRun(t, 3, []Split{{Hosts: []int{1, 2}, Len: 100}})
		ft.mu.Lock()
		ft.blacklisted[1], ft.blacklisted[2] = true, true
		ft.mu.Unlock()
		if pa, ok := nextWithin(t, ft, ph, 0); !ok || pa.task != 0 || s.stolen != 1 {
			t.Errorf("node 0 beside blacklisted holders: task %d ok=%v, %d stolen", pa.task, ok, s.stolen)
		}
	})

	t.Run("orphans-and-abort", func(t *testing.T) {
		// No holder in range: any node takes the task, counted neither local
		// nor stolen.
		ft, ph, s := newPlacementRun(t, 2, []Split{{Hosts: []int{99}, Len: 100}, {Len: 100}})
		for want := 0; want < 2; want++ {
			if pa, ok := nextWithin(t, ft, ph, 1); !ok || pa.task != want {
				t.Fatalf("orphan take: task %d ok=%v, want %d", pa.task, ok, want)
			}
		}
		if s.local != 0 || s.stolen != 0 {
			t.Errorf("orphans counted %d local, %d stolen", s.local, s.stolen)
		}
		// Nothing is left to place, so the next worker waits; a job failure
		// wakes it empty-handed.
		done := make(chan bool, 1)
		go func() {
			_, _, ok := ft.next(ph, 0)
			done <- ok
		}()
		ft.mu.Lock()
		ft.failLocked(errors.New("abort"))
		ft.mu.Unlock()
		select {
		case ok := <-done:
			if ok {
				t.Error("a worker was handed a task after the job failed")
			}
		case <-time.After(5 * time.Second):
			t.Fatal("a waiting worker did not wake when the job failed")
		}
	})
}

// TestStaleRetryStaysOutOfReopenedPhase: a map task's base attempt fails
// and arms its retry while a speculative backup commits the task; the
// output is then lost and recovery reopens the phase for it. The retry,
// armed for the task's old record, queues nothing: the reopened task runs
// its recovery attempt alone, numbered on from the old record, with no
// failure counted.
func TestStaleRetryStaysOutOfReopenedPhase(t *testing.T) {
	ft, ph, _ := newPlacementRun(t, 2, []Split{{Hosts: []int{0}, Len: 100}})
	base, ok := nextWithin(t, ft, ph, 0)
	if !ok {
		t.Fatal("no base attempt")
	}
	ft.mu.Lock()
	backup := pendingAttempt{task: 0, attempt: ph.tasks[0].nextAttempt, kind: attemptSpeculative}
	ph.tasks[0].nextAttempt++
	ph.queue = append(ph.queue, backup)
	ft.mu.Unlock()
	if pa, ok := nextWithin(t, ft, ph, 1); !ok || pa.attempt != backup.attempt {
		t.Fatalf("node 1 took attempt %d ok=%v, want the backup %d", pa.attempt, ok, backup.attempt)
	}

	ft.attemptFailed(ph, base, 0, errors.New("attempt fails"))
	ft.mu.Lock()
	ft.noteEndLocked(ph, backup)
	ft.committedLocked(ph, backup, time.Millisecond)
	ph.reopen([]int{0})
	ft.mu.Unlock()
	// Nothing marks a retry that queues nothing: wait out its longest backoff.
	time.Sleep(2 * retryBackoff)

	ft.mu.Lock()
	defer ft.mu.Unlock()
	if len(ph.queue) != 1 || ph.queue[0].attempt != 3 || ph.queue[0].kind != attemptRecovery {
		t.Errorf("reopened phase queues %+v, want recovery attempt 3 alone", ph.queue)
	}
	if ts := ph.tasks[0]; ts.committed || ts.failures != 0 || ts.nextAttempt != 4 || ph.done != 0 {
		t.Errorf("reopened task: committed %v, %d failures, next attempt %d, %d of 1 done; want false, 0, 4, 0",
			ts.committed, ts.failures, ts.nextAttempt, ph.done)
	}
}

func TestResultIdleFractions(t *testing.T) {
	mk := func(wall, waitMap, waitSup time.Duration) TaskReport {
		tm := metrics.NewTaskMetrics()
		tm.AddWaitMap(waitMap)
		tm.AddWaitSupport(waitSup)
		return TaskReport{Kind: "map", Wall: wall, Metrics: tm.Snapshot()}
	}
	res := &Result{Tasks: []TaskReport{
		mk(10*time.Second, 2*time.Second, 4*time.Second),
		mk(10*time.Second, 4*time.Second, 0),
		{Kind: "reduce", Wall: time.Hour}, // ignored
	}}
	if got := res.MapIdleFraction(); got != 0.3 {
		t.Errorf("map idle %g", got)
	}
	if got := res.SupportIdleFraction(); got != 0.2 {
		t.Errorf("support idle %g", got)
	}
	var empty Result
	if empty.MapIdleFraction() != 0 {
		t.Error("empty result idle fraction non-zero")
	}
}

func TestReduceOutputName(t *testing.T) {
	if got := ReduceOutputName("job-out", 3); got != "job-out-r-00003" {
		t.Errorf("got %q", got)
	}
}

func TestRunWithSingleReducer(t *testing.T) {
	c, err := cluster.New(cluster.Fast(2))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.FS.WriteFile("in", []byte("b\na\nb\n")); err != nil {
		t.Fatal(err)
	}
	job := &Job{
		Name:   "single-r",
		Inputs: []string{"in"},
		NewMapper: func() Mapper {
			return MapperFunc(func(off int64, line []byte, out Collector) error {
				if len(line) == 0 {
					return nil
				}
				return out.Collect(line, serde.EncodeInt64(1))
			})
		},
		NewReducer: func() Reducer {
			return ReducerFunc(func(k []byte, vals ValueIter, out Collector) error {
				var n int64
				for {
					v, ok, err := vals.Next()
					if err != nil {
						return err
					}
					if !ok {
						break
					}
					d, err := serde.DecodeInt64(v)
					if err != nil {
						return err
					}
					n += d
				}
				return out.Collect(k, serde.EncodeInt64(n))
			})
		},
		Format: func(dst, k, v []byte) ([]byte, error) {
			n, err := serde.DecodeInt64(v)
			if err != nil {
				return dst, err
			}
			return append(dst, string(k)+":"+string(rune('0'+n))+"\n"...), nil
		},
		NumReducers: 1,
	}
	res, err := Run(c, job)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Outputs) != 1 {
		t.Fatalf("outputs %v", res.Outputs)
	}
	data, err := c.FS.ReadFile(res.Outputs[0])
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "a:1\nb:2\n" {
		t.Errorf("output %q", data)
	}
	if res.MapTasks < 1 || res.ReduceTasks != 1 || res.Wall <= 0 {
		t.Errorf("result metadata %+v", res)
	}
}
