package metrics

import (
	"testing"
	"time"
)

func TestSnapshotMergeAssociativeAndCommutative(t *testing.T) {
	mk := func(op Op, d time.Duration, ctr string, v int64) Snapshot {
		tm := NewTaskMetrics()
		tm.Add(op, d)
		tm.AddWaitMap(d / 2)
		tm.Inc(ctr, v)
		return tm.Snapshot()
	}
	a := mk(OpSort, time.Second, "x", 1)
	b := mk(OpEmit, 2*time.Second, "x", 2)
	c := mk(OpMerge, 3*time.Second, "y", 5)
	// A Snapshot struct copy shares its Counters map, so each merge
	// expression starts from a deep clone.
	clone := func(s Snapshot) Snapshot {
		out := s
		out.Counters = make(map[string]int64, len(s.Counters))
		for k, v := range s.Counters {
			out.Counters[k] = v
		}
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
		if len(left.Counters) != len(other.Counters) {
			t.Fatalf("merge order changed counter set: %v vs %v", left.Counters, other.Counters)
		}
		for k, v := range left.Counters {
			if other.Counters[k] != v {
				t.Fatalf("counter %q: %d vs %d", k, v, other.Counters[k])
			}
		}
	}
	// Merging does not alias the source's counter map.
	b.Counters["x"] = 100
	if left.Counters["x"] != 3 {
		t.Errorf("merged snapshot aliases source counters: %d", left.Counters["x"])
	}
}

func TestLiveAggregation(t *testing.T) {
	DisableLive()
	defer DisableLive()

	// Updates before enabling are not mirrored.
	pre := NewTaskMetrics()
	pre.Add(OpSort, time.Hour)

	EnableLive()
	tm := NewTaskMetrics()
	tm.Add(OpSort, 2*time.Second)
	tm.AddWaitMap(time.Second)
	tm.AddWaitSupport(3 * time.Second)
	tm.Inc(CtrSpillCount, 4)

	s := LiveSnapshot()
	if s.Ops[OpSort] != 2*time.Second {
		t.Errorf("live OpSort = %v (pre-enable update leaked?)", s.Ops[OpSort])
	}
	if s.WaitMap != time.Second || s.WaitSupport != 3*time.Second {
		t.Errorf("live waits = %v / %v", s.WaitMap, s.WaitSupport)
	}
	if s.Counters[CtrSpillCount] != 4 {
		t.Errorf("live counter = %d", s.Counters[CtrSpillCount])
	}

	d := NewDump(LiveSnapshot())
	if d.OpsNS[OpSort.String()] != int64(2*time.Second) {
		t.Errorf("live dump ops = %v", d.OpsNS)
	}
	if d.WaitMapNS != int64(time.Second) {
		t.Errorf("live dump wait_map_ns = %v", d.WaitMapNS)
	}

	DisableLive()
	if got := LiveSnapshot(); got.Ops[OpSort] != 0 || len(got.Counters) != 0 {
		t.Errorf("DisableLive left state: %+v", got)
	}
}
