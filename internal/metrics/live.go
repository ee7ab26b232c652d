package metrics

import (
	"sync"
	"sync/atomic"
	"time"
)

// Live aggregation mirrors every TaskMetrics update into one process-wide
// Snapshot so a debug endpoint (expvar under -pprof) can show job progress
// while tasks are still running. Until EnableLive is called a recording
// call pays one atomic load for it; afterwards — and every mrserve process
// enables it by mounting pprofserve.Handler — each recording call also
// takes the one process-wide lock, shared by every task of every tenant.
// That is affordable only because the runtime records per spill, per
// sampled record and per task, never per record: tasks count records in
// goroutine-owned locals and Publish them at spill boundaries, so a
// running task's counters appear here one spill late.
var (
	liveEnabled atomic.Bool
	liveMu      sync.Mutex
	liveAgg     Snapshot
)

// EnableLive turns on process-wide live aggregation. Updates recorded
// before enabling are not retroactively included.
func EnableLive() {
	liveMu.Lock()
	if liveAgg.Counters == nil {
		liveAgg.Counters = make(map[string]int64)
	}
	liveMu.Unlock()
	liveEnabled.Store(true)
}

// DisableLive turns live aggregation off and clears the accumulated
// state. Intended for tests.
func DisableLive() {
	liveEnabled.Store(false)
	liveMu.Lock()
	liveAgg = Snapshot{}
	liveMu.Unlock()
}

// LiveSnapshot returns a copy of the live aggregate. It is zero-valued
// when live aggregation was never enabled.
func LiveSnapshot() Snapshot {
	liveMu.Lock()
	defer liveMu.Unlock()
	s := liveAgg
	s.Counters = make(map[string]int64, len(liveAgg.Counters))
	for k, v := range liveAgg.Counters {
		s.Counters[k] = v
	}
	return s
}

func liveAddOp(op Op, d time.Duration) {
	liveMu.Lock()
	liveAgg.Ops[op] += d
	liveMu.Unlock()
}

func liveAddWait(mapSide bool, d time.Duration) {
	liveMu.Lock()
	if mapSide {
		liveAgg.WaitMap += d
	} else {
		liveAgg.WaitSupport += d
	}
	liveMu.Unlock()
}

func livePublish(batch []Count) {
	liveMu.Lock()
	for _, c := range batch {
		liveAgg.Counters[c.Name] += c.Delta
	}
	liveMu.Unlock()
}
