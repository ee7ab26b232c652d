package metrics

// Sampler is the runtime's one sampling schedule for per-record (per-call,
// per-group) stopwatches: the first warmup events are timed exactly, so
// short tasks and unit tests keep precise numbers, and after that one event
// in period is timed and stands for every untimed event since the previous
// sample. Every other event costs one compare and touches no clock.
//
// The estimate is unbiased when per-event costs are i.i.d. within a task;
// events after the last sample point (at most period-1 of them) go
// unmeasured. A Sampler is not safe for concurrent use.
type Sampler struct {
	warmup int64
	period int64
	n      int64 // events seen
	next   int64 // index of the next sampled event
	last   int64 // index of the last sampled event
}

// Defaults for every sampled stopwatch in the runtime: the first 16 events
// are timed precisely, then one in 64 pays for the clock.
const (
	DefaultEmitWarmup = 16
	DefaultEmitPeriod = 64
)

// NewSampler returns a Sampler that times the first warmup events and then
// every period-th. period <= 1 times every event.
func NewSampler(warmup, period int64) Sampler {
	if warmup < 0 {
		warmup = 0
	}
	if period < 1 {
		period = 1
	}
	return Sampler{warmup: warmup, period: period, last: -1}
}

// DefaultSampler returns a Sampler on the default schedule.
func DefaultSampler() Sampler { return NewSampler(DefaultEmitWarmup, DefaultEmitPeriod) }

// Sample advances to the next event and returns the weight to time it
// with: the number of events it stands for, or zero when the event is not
// sampled.
func (s *Sampler) Sample() int64 {
	n := s.n
	s.n++
	if n != s.next {
		return 0
	}
	if n < s.warmup {
		s.next = n + 1
	} else {
		s.next = n + s.period
	}
	w := n - s.last
	s.last = n
	return w
}

// Exact reports whether the event most recently passed to Sample lay in
// the exactly-timed prefix (warm-up, or every event when period is 1).
func (s *Sampler) Exact() bool { return s.n <= s.warmup || s.period == 1 }

// Events returns the number of events seen.
func (s *Sampler) Events() int64 { return s.n }
