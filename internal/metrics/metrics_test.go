package metrics

import (
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestOpNamesRoundTrip(t *testing.T) {
	byName := make(map[string]Op)
	for op := Op(0); op < NumOps; op++ {
		name := op.String()
		if prev, dup := byName[name]; dup || name == "" {
			t.Errorf("op %d is named %q, as is op %d", int(op), name, int(prev))
		}
		byName[name] = op
	}
	if s := Op(99).String(); !strings.Contains(s, "99") {
		t.Errorf("out-of-range op string %q", s)
	}
}

func TestUserOps(t *testing.T) {
	want := map[Op]bool{OpMapUser: true, OpCombineUser: true, OpReduceUser: true}
	for op := Op(0); op < NumOps; op++ {
		if op.User() != want[op] {
			t.Errorf("%v.User() = %v", op, op.User())
		}
	}
}

func TestTaskMetricsAccumulation(t *testing.T) {
	tm := NewTaskMetrics()
	tm.Add(OpSort, time.Second)
	tm.Add(OpSort, 2*time.Second)
	tm.Add(OpMapUser, -5*time.Second) // negative clamps to zero
	if got := tm.Op(OpSort); got != 3*time.Second {
		t.Errorf("OpSort = %v", got)
	}
	if got := tm.Op(OpMapUser); got != 0 {
		t.Errorf("negative add leaked: %v", got)
	}
	tm.AddWaitMap(time.Second)
	tm.AddWaitSupport(2 * time.Second)
	tm.AddWaitMap(-time.Minute)
	if tm.WaitMap() != time.Second || tm.WaitSupport() != 2*time.Second {
		t.Errorf("waits: %v / %v", tm.WaitMap(), tm.WaitSupport())
	}
	tm.Inc("records", 5)
	tm.Inc("records", 7)
	if tm.Counter("records") != 12 {
		t.Errorf("counter = %d", tm.Counter("records"))
	}
	if tm.Counter("missing") != 0 {
		t.Error("missing counter non-zero")
	}
}

func TestPublishBatch(t *testing.T) {
	tm := NewTaskMetrics()
	tm.Inc("a", 1)
	tm.Publish(Count{"a", 2}, Count{"b", 5}, Count{"a", 4})
	tm.Publish()
	if tm.Counter("a") != 7 || tm.Counter("b") != 5 {
		t.Errorf("a=%d b=%d, want 7 and 5", tm.Counter("a"), tm.Counter("b"))
	}
}

func TestTaskMetricsConcurrent(t *testing.T) {
	tm := NewTaskMetrics()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				tm.Add(OpEmit, time.Microsecond)
				tm.Inc("n", 1)
				tm.AddWaitMap(time.Nanosecond)
			}
		}()
	}
	wg.Wait()
	if tm.Op(OpEmit) != 8*1000*time.Microsecond {
		t.Errorf("OpEmit = %v", tm.Op(OpEmit))
	}
	if tm.Counter("n") != 8000 {
		t.Errorf("counter = %d", tm.Counter("n"))
	}
}

func TestSnapshotMergeAndDerived(t *testing.T) {
	tm1 := NewTaskMetrics()
	tm1.Add(OpMapUser, 2*time.Second)
	tm1.Add(OpSort, 3*time.Second)
	tm1.Inc("x", 1)
	tm2 := NewTaskMetrics()
	tm2.Add(OpReduceUser, 1*time.Second)
	tm2.Add(OpShuffle, 4*time.Second)
	tm2.Inc("x", 2)

	s := tm1.Snapshot()
	s.Merge(tm2.Snapshot())
	if s.TotalWork() != 10*time.Second {
		t.Errorf("TotalWork = %v", s.TotalWork())
	}
	if s.UserWork() != 3*time.Second {
		t.Errorf("UserWork = %v", s.UserWork())
	}
	if got := s.Fraction(OpSort); got != 0.3 {
		t.Errorf("Fraction(sort) = %v", got)
	}
	if s.Counters["x"] != 3 {
		t.Errorf("merged counter = %d", s.Counters["x"])
	}
}

func TestSnapshotMergeAssociativeAndCommutative(t *testing.T) {
	mk := func(op Op, d time.Duration, ctr string, v int64) Snapshot {
		tm := NewTaskMetrics()
		tm.Add(op, d)
		tm.AddWaitMap(d / 2)
		tm.Inc(ctr, v)
		tm.Observe(HistShuffleFetchNS, int64(d))
		return tm.Snapshot()
	}
	a := mk(OpSort, time.Second, "x", 1)
	b := mk(OpEmit, 2*time.Second, "x", 2)
	c := mk(OpMerge, 3*time.Second, "y", 5)
	// A Snapshot struct copy shares its maps, so each merge expression
	// starts from a fresh one.
	clone := func(s Snapshot) Snapshot {
		var out Snapshot
		out.Merge(s)
		return out
	}

	// (a+b)+c
	left := clone(a)
	left.Merge(b)
	left.Merge(c)
	// a+(b+c)
	bc := clone(b)
	bc.Merge(c)
	right := clone(a)
	right.Merge(bc)
	// c+b+a
	rev := clone(c)
	rev.Merge(b)
	rev.Merge(a)

	for _, other := range []Snapshot{right, rev} {
		if left.Ops != other.Ops || left.WaitMap != other.WaitMap || left.WaitSupport != other.WaitSupport {
			t.Fatalf("merge order changed op/wait totals: %+v vs %+v", left, other)
		}
		if !reflect.DeepEqual(left.Counters, other.Counters) {
			t.Fatalf("merge order changed counters: %v vs %v", left.Counters, other.Counters)
		}
		if l, o := left.Hists[HistShuffleFetchNS], other.Hists[HistShuffleFetchNS]; l.Count != 3 || !reflect.DeepEqual(l, o) {
			t.Fatalf("merge order changed histograms: %+v vs %+v", l, o)
		}
	}
	// Merging does not alias the source's counters or buckets.
	b.Counters["x"] = 100
	b.Hists[HistShuffleFetchNS].Counts[bucketIndex(uint64(2*time.Second))] = 100
	if left.Counters["x"] != 3 {
		t.Errorf("merged snapshot aliases source counters: %d", left.Counters["x"])
	}
	if n := left.Hists[HistShuffleFetchNS].Counts[bucketIndex(uint64(2*time.Second))]; n != 1 {
		t.Errorf("merged snapshot aliases source buckets: %d", n)
	}
}

func TestSnapshotMergeIntoZero(t *testing.T) {
	var s Snapshot // zero value: nil counters
	other := Snapshot{Counters: map[string]int64{"a": 1}}
	other.Ops[OpSort] = time.Second
	s.Merge(other)
	if s.Counters["a"] != 1 || s.Ops[OpSort] != time.Second {
		t.Errorf("merge into zero snapshot: %+v", s)
	}
}

func TestEmptySnapshotFractions(t *testing.T) {
	var s Snapshot
	if s.Fraction(OpSort) != 0 {
		t.Error("fraction of empty snapshot non-zero")
	}
	if !strings.Contains(s.Breakdown(), "TOTAL") {
		t.Error("breakdown missing TOTAL row")
	}
}

func TestBreakdownFormat(t *testing.T) {
	tm := NewTaskMetrics()
	tm.Add(OpSort, time.Second)
	tm.Add(OpMapUser, time.Second)
	out := tm.Snapshot().Breakdown()
	for _, want := range []string{"sort", "map", "50.0%", "TOTAL"} {
		if !strings.Contains(out, want) {
			t.Errorf("breakdown missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "shuffle") {
		t.Error("breakdown includes zero-valued op")
	}
}

func TestCounterNames(t *testing.T) {
	tm := NewTaskMetrics()
	tm.Inc("b", 1)
	tm.Inc("a", 2)
	tm.Inc("zero", 0)
	names := tm.Snapshot().CounterNames()
	if len(names) != 2 || names[0] != "a" || names[1] != "b" {
		t.Errorf("CounterNames = %v", names)
	}
}
