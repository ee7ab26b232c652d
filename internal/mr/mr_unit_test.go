package mr

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

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
			Name:        "bad-partitioner",
			Inputs:      []string{"in"},
			NumReducers: 3,
			MaxAttempts: 1,
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

func TestSchedulerLocalityAndStealing(t *testing.T) {
	splits := []Split{
		{Hosts: []int{0}}, {Hosts: []int{0}}, {Hosts: []int{0}},
		{Hosts: []int{1}},
		{Hosts: []int{99}}, // orphan: bogus host
	}
	s := newScheduler(2, splits)
	// Node 1 takes its local task first.
	task, src, ok := s.take(1)
	if !ok || task != 3 || src != takeLocal {
		t.Errorf("node 1 first take: %d %v %v", task, src, ok)
	}
	// Then the orphan.
	task, src, ok = s.take(1)
	if !ok || task != 4 || src != takeOrphan {
		t.Errorf("node 1 orphan take: %d %v %v", task, src, ok)
	}
	// Then steals from node 0's tail.
	task, src, ok = s.take(1)
	if !ok || task != 2 || src != takeStolen {
		t.Errorf("node 1 steal: %d %v %v", task, src, ok)
	}
	// Node 0 keeps its head.
	task, src, ok = s.take(0)
	if !ok || task != 0 || src != takeLocal {
		t.Errorf("node 0 take: %d %v %v", task, src, ok)
	}
	s.take(0)
	if _, _, ok := s.take(0); ok {
		t.Error("take from drained scheduler succeeded")
	}
	// Placement counters: 3 local (tasks 3, 0, 1), 1 stolen (task 2);
	// the orphan counts toward neither.
	if local, stolen := s.placement(); local != 3 || stolen != 1 {
		t.Errorf("placement: local=%d stolen=%d, want 3/1", local, stolen)
	}
	// Abort stops handing out work.
	s2 := newScheduler(1, splits[:1])
	s2.abort()
	if _, _, ok := s2.take(0); ok {
		t.Error("take after abort succeeded")
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
		Format: func(k, v []byte) ([]byte, error) {
			n, err := serde.DecodeInt64(v)
			if err != nil {
				return nil, err
			}
			return []byte(string(k) + ":" + string(rune('0'+n)) + "\n"), nil
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
