package metrics

import (
	"testing"
	"time"
)

// fakeClock is the injected task clock of these tests: it moves only when
// a test advances it, so every attributed duration is exact, and it counts
// its readings.
type fakeClock struct {
	t     time.Time
	reads int64
}

func (c *fakeClock) now() time.Time {
	c.reads++
	return c.t
}

func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }

func newFakeTask() (*TaskMetrics, *fakeClock) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	return NewTaskMetricsClock(clk.now), clk
}

// emitN drives the timer through n emit cycles, spending no measurable
// time between calls.
func emitN(e *EmitTimer, n int) {
	for i := 0; i < n; i++ {
		e.BeforeEmit()
		e.AfterEmit()
	}
}

func TestEmitTimerPeriodOneIsPrecise(t *testing.T) {
	tm, clk := newFakeTask()
	e := NewEmitTimer(tm, 0, 1)
	start := clk.reads
	emitN(e, 10)
	e.Finish()
	if e.s.Events() != 10 {
		t.Errorf("records = %d", e.s.Events())
	}
	// Precise mode reads the clock twice per record (plus Finish).
	if got := clk.reads - start; got != 2*10+1 {
		t.Errorf("clock reads = %d, want 21", got)
	}
}

func TestEmitTimerWarmupBoundary(t *testing.T) {
	// warmup=4, period=8: records 0..3 are precise (2 reads each), record
	// 4 is the first sample point (1 read), record 5 measures the
	// post-sample user gap (1 read) plus its own non-timed emit, records
	// 6..11 are clock-free, record 12 samples again.
	tm, clk := newFakeTask()
	e := NewEmitTimer(tm, 4, 8)
	start := clk.reads

	emitN(e, 4)
	warmupReads := clk.reads - start
	if warmupReads != 8 {
		t.Errorf("warmup clock reads = %d, want 8", warmupReads)
	}

	emitN(e, 1) // record 4: sample point, open+close = 2 reads
	if got := clk.reads - start - warmupReads; got != 2 {
		t.Errorf("sample-point reads = %d, want 2", got)
	}

	emitN(e, 1) // record 5: post-sample user gap, 1 read
	afterPost := clk.reads
	if got := afterPost - start - warmupReads; got != 3 {
		t.Errorf("post-sample reads = %d, want 3", got)
	}

	emitN(e, 6) // records 6..11: free
	if got := clk.reads; got != afterPost {
		t.Errorf("mid-period emits read the clock: %d -> %d", afterPost, got)
	}

	emitN(e, 1) // record 12 = warmup + 8: next sample point
	if got := clk.reads - afterPost; got != 2 {
		t.Errorf("second sample reads = %d, want 2", got)
	}
}

func TestEmitTimerZeroRecords(t *testing.T) {
	// A task that emits nothing must still attribute its wall time to
	// user map() via Finish, with exactly the construction + Finish
	// clock reads and no emit time.
	tm, clk := newFakeTask()
	e := NewEmitTimer(tm, DefaultEmitWarmup, DefaultEmitPeriod)
	clk.advance(2 * time.Millisecond)
	e.Finish()
	if e.s.Events() != 0 {
		t.Errorf("records = %d", e.s.Events())
	}
	if tm.Op(OpMapUser) != 2*time.Millisecond {
		t.Errorf("trailing user gap: %v, want 2ms", tm.Op(OpMapUser))
	}
	if clk.reads != 2 {
		t.Errorf("clock read %d times, want construction + Finish", clk.reads)
	}
	if tm.Op(OpEmit) != 0 {
		t.Errorf("emit time from zero emits: %v", tm.Op(OpEmit))
	}
}

func TestEmitTimerSampleWeight(t *testing.T) {
	// After warmup, one sampled emit stands in for every unmeasured emit
	// since the previous sample: with warmup=0 and period=4, the sample
	// at record 4 carries weight 4 (records 1,2,3,4), and the user gap
	// read on record 5 carries weight 4 (records 2..5; record 1 read the
	// gap after record 0's sample).
	tm, clk := newFakeTask()
	e := NewEmitTimer(tm, 0, 4)

	emitN(e, 4) // record 0 sampled, record 1 reads its user gap, 2..3 free

	e.BeforeEmit() // record 4: sample point
	if e.Weight() != 4 {
		t.Errorf("sample weight = %d, want 4", e.Weight())
	}
	clk.advance(2 * time.Millisecond)
	e.AfterEmit()
	if got := tm.Op(OpEmit); got != 4*2*time.Millisecond {
		t.Errorf("sampled emit attributed %v, want 8ms", got)
	}

	clk.advance(time.Millisecond) // one user gap
	e.BeforeEmit()                // record 5
	if e.Weight() != 0 {
		t.Errorf("record after the sample point is timed (weight %d)", e.Weight())
	}
	e.AfterEmit()
	if got := tm.Op(OpMapUser); got != 4*time.Millisecond {
		t.Errorf("user gap attributed %v, want 4ms", got)
	}
}

func TestEmitTimerExclude(t *testing.T) {
	// Time excluded from an open sample (buffer blocking, profiling) must
	// not count as emit work.
	tm, clk := newFakeTask()
	e := NewEmitTimer(tm, 4, 1)
	e.BeforeEmit()
	clk.advance(3 * time.Millisecond)
	e.Exclude(2 * time.Millisecond)
	e.AfterEmit()
	if got := tm.Op(OpEmit); got != time.Millisecond {
		t.Errorf("emit = %v, want 1ms: 3ms span less 2ms excluded", got)
	}
}

func TestEmitTimerExactModeTilesTheClock(t *testing.T) {
	// In exact mode user gaps and emit spans tile the task's elapsed time.
	tm, clk := newFakeTask()
	e := NewEmitTimer(tm, 0, 1)
	start := clk.t
	for i := 0; i < 10; i++ {
		clk.advance(3 * time.Microsecond)
		e.BeforeEmit()
		clk.advance(5 * time.Microsecond)
		e.AfterEmit()
	}
	clk.advance(7 * time.Microsecond)
	e.Finish()
	if got, want := tm.Op(OpMapUser)+tm.Op(OpEmit), clk.t.Sub(start); got != want {
		t.Errorf("user+emit = %v, elapsed %v", got, want)
	}
	if tm.Op(OpEmit) != 50*time.Microsecond {
		t.Errorf("emit = %v, want 50µs", tm.Op(OpEmit))
	}
}

func TestSamplerSchedule(t *testing.T) {
	// warmup 3, period 4: events 0,1,2 weight 1; then 3, 7, 11 stand for
	// the events since the previous sample.
	s := NewSampler(3, 4)
	var got []int64
	for i := 0; i < 12; i++ {
		got = append(got, s.Sample())
		if exact := i < 3; s.Exact() != exact {
			t.Errorf("event %d: Exact = %v", i, s.Exact())
		}
	}
	want := []int64{1, 1, 1, 1, 0, 0, 0, 4, 0, 0, 0, 4}
	var sum int64
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("weights = %v, want %v", got, want)
		}
		sum += got[i]
	}
	if sum != s.Events() {
		t.Errorf("weights sum to %d over %d events", sum, s.Events())
	}

	every := NewSampler(-1, 0) // clamps to warmup 0, period 1
	for i := 0; i < 5; i++ {
		if w := every.Sample(); w != 1 || !every.Exact() {
			t.Errorf("period-1 event %d: weight %d exact %v", i, w, every.Exact())
		}
	}
}

func TestEmitTimerDefensiveConstruction(t *testing.T) {
	tm, clk := newFakeTask()
	e := NewEmitTimer(tm, -3, 0) // clamps to warmup 0, period 1
	start := clk.reads
	emitN(e, 3)
	e.Finish()
	if e.s.Events() != 3 {
		t.Errorf("records = %d", e.s.Events())
	}
	if got := clk.reads - start; got != 2*3+1 {
		t.Errorf("clock reads = %d, want 7 (period clamped to precise)", got)
	}
}

func TestEmitTimerRestart(t *testing.T) {
	// Restart discards setup time: the gap before Restart must not be
	// attributed to user map().
	tm, clk := newFakeTask()
	e := NewEmitTimer(tm, 16, 64)
	clk.advance(3 * time.Millisecond)
	e.Restart()
	clk.advance(time.Millisecond)
	e.Finish()
	if got := tm.Op(OpMapUser); got != time.Millisecond {
		t.Errorf("user time %v, want 1ms: setup before Restart must not count", got)
	}
}
