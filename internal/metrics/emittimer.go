package metrics

import "time"

// EmitTimer attributes the map goroutine's time between user map() code
// (OpMapUser) and the record emit path (OpEmit) by sampling instead of
// stamping the clock around every record.
//
// The fully-timed scheme reads the monotonic clock at least twice per
// emitted record; for cheap text-centric map functions that is itself a
// measurable slice of map-phase time — profiling overhead distorting the
// quantity being profiled. The sampled scheme times records in pairs:
//
//   - The first `warmup` records are timed exactly (weight 1), so short
//     tasks keep precise numbers.
//   - After warm-up, every `period`-th record is a sample point: its
//     emit span is measured and attributed with the weight of all
//     unmeasured emits since the previous sample, and the record
//     immediately after it measures one user gap (end of the sampled
//     emit to the next Collect), attributed with the matching weight.
//   - All other records touch no clock at all.
//
// Attribution is therefore statistical: each sample stands in for the
// period it covers, unbiased when per-record costs are i.i.d. within a
// task. The tail after the last sample point is covered only by
// Finish's single unweighted user-gap reading, so up to period-1
// records' emit time goes unattributed — bounded, and negligible at the
// record counts where sampling matters.
//
// Time that must not count as emit work (producer blocking on a full
// spill buffer, frequency-buffer profiling, user combine) is excluded
// from the open sample via Exclude.
//
// An EmitTimer is not safe for concurrent use; the map goroutine owns it.
type EmitTimer struct {
	tm *TaskMetrics
	s  Sampler

	lastUser   int64 // index of the last user-gap-timed record
	postSample bool  // the next record measures one user gap
	weight     int64 // records the open emit measurement stands for; 0 when none is open

	mark        time.Time // end of the runtime's last involvement
	sampleStart time.Time
	excl        time.Duration
}

// NewEmitTimer returns an EmitTimer recording into tm and reading tm's
// clock. warmup records are timed precisely; afterwards every period-th
// record is sampled. period <= 1 keeps every record precisely timed.
func NewEmitTimer(tm *TaskMetrics, warmup, period int64) *EmitTimer {
	return &EmitTimer{
		tm:       tm,
		s:        NewSampler(warmup, period),
		lastUser: -1,
		mark:     tm.Now(),
	}
}

// Restart resets the user-time clock to now without attributing the
// elapsed gap (used when task setup time must not count as map() time).
func (e *EmitTimer) Restart() {
	e.mark = e.tm.Now()
}

// BeforeEmit is called on entry to the collector, before the emit path
// runs, and decides whether this record is timed.
func (e *EmitTimer) BeforeEmit() {
	n := e.s.Events()
	e.weight = e.s.Sample()
	switch {
	case e.weight > 0 && e.s.Exact():
		// Precise: attribute the user gap since the last record and open
		// an emit measurement, both weight 1.
		now := e.tm.Now()
		e.tm.Add(OpMapUser, now.Sub(e.mark))
		e.lastUser = n
		e.sampleStart = now
		e.excl = 0
		e.postSample = false
	case e.weight > 0:
		// Sample point: open an emit measurement. The user gap leading
		// here is not measurable (the clock was last read periods ago);
		// the next record's gap stands in for it.
		e.sampleStart = e.tm.Now()
		e.excl = 0
	case e.postSample:
		// The record after a sample point: the gap from the sampled
		// emit's end to now is one clean user gap; extrapolate it over
		// every record since the last user measurement.
		now := e.tm.Now()
		e.tm.Add(OpMapUser, time.Duration(n-e.lastUser)*now.Sub(e.mark))
		e.lastUser = n
		e.mark = now
		e.postSample = false
	}
}

// Weight returns the number of records the currently open emit
// measurement stands for, or zero when this record is not timed. Work
// nested in the emit path that is attributed to another operation (the
// frequency-buffer intercept) is timed only when Weight is non-zero,
// scaled by it, and handed to Exclude.
func (e *EmitTimer) Weight() int64 { return e.weight }

// Exclude subtracts d from the emit measurement currently open (time
// already attributed elsewhere: buffer-full blocking, profiling, user
// combine). Harmless when no measurement is open.
func (e *EmitTimer) Exclude(d time.Duration) {
	e.excl += d
}

// AfterEmit closes the measurement opened by BeforeEmit.
func (e *EmitTimer) AfterEmit() {
	if e.weight == 0 {
		return
	}
	now := e.tm.Now()
	e.tm.Add(OpEmit, time.Duration(e.weight)*(now.Sub(e.sampleStart)-e.excl))
	e.mark = now
	e.postSample = !e.s.Exact()
	e.weight = 0
}

// Finish attributes the trailing user gap (input consumed after the
// last emitted record) and closes the timer.
func (e *EmitTimer) Finish() {
	e.tm.Add(OpMapUser, e.tm.Now().Sub(e.mark))
}
