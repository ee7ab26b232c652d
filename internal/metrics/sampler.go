package metrics

import "time"

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
	defaultWarmup = 16
	defaultPeriod = 64
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
func DefaultSampler() Sampler { return NewSampler(defaultWarmup, defaultPeriod) }

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

// ScaleTo splits wall among parts in the proportion of their sampled
// estimates, in place, so that the parts sum to wall exactly and a part
// estimated at zero (or below) gets none of it. With nothing estimated the
// wall is all the first part's. It is how a task loop timed on sampled
// events turns their estimates into op times that tile the loop's measured
// wall.
func ScaleTo(wall time.Duration, parts []time.Duration) {
	var sum time.Duration
	for i, p := range parts {
		parts[i] = max(p, 0)
		sum += parts[i]
	}
	if sum == 0 {
		clear(parts)
		parts[0] = wall
		return
	}
	var cum, prev time.Duration
	for i, p := range parts {
		cum += p
		bound := wall
		if cum < sum {
			bound = time.Duration(float64(wall) * (float64(cum) / float64(sum)))
		}
		parts[i], prev = bound-prev, bound
	}
}
