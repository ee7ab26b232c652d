// Package spillmatch implements the paper's second optimization, the
// spill-matcher (§IV): a runtime controller that adapts the map task's
// spill percentage — the buffer-occupancy threshold that triggers handing
// the pending records to the sort/combine/spill support thread — so that
// the slower of the two threads never waits, while keeping spills as large
// as possible for combine efficiency.
//
// Per spill the runtime reports the time the map thread took to produce it
// (T_p, excluding waits) and the time the support thread took to consume it
// (T_c, excluding waits). With produce rate p = m/T_p and consume rate
// c = m/T_c, the paper derives (eq. 1) the maximal wait-free threshold
//
//	x = max{ c/(p+c), 1/2 }
//
// which conveniently reduces to max{ T_p/(T_p+T_c), 1/2 }, so the
// controller needs only the two times. The static Hadoop default (x = 0.8)
// is provided as the baseline controller.
package spillmatch

import (
	"sync"
	"time"
)

// Controller chooses the spill percentage for the next spill of one map
// task. Implementations must be safe for use by the two goroutines of a
// map task (the map side reads Percent, the support side calls Record).
type Controller interface {
	// Percent returns the spill threshold fraction x ∈ (0, 1] to use for
	// the upcoming spill.
	Percent() float64
	// Record reports the measurements of the spill that just completed:
	// its size in bytes, the active time the map thread spent producing
	// it, and the active time the support thread spent consuming it.
	Record(spillBytes int64, produce, consume time.Duration)
}

// Static is the baseline fixed-threshold controller; Hadoop's default
// io.sort.spill.percent is 0.8.
type Static struct {
	X float64
}

// NewStatic returns a Static controller pinned at x.
func NewStatic(x float64) *Static { return &Static{X: x} }

// Percent implements Controller.
func (s *Static) Percent() float64 { return s.X }

// Record implements Controller; static controllers ignore measurements.
func (s *Static) Record(int64, time.Duration, time.Duration) {}

// DefaultStaticPercent is Hadoop's default spill percentage, used by all
// non-spill-matcher configurations in the paper's experiments.
const DefaultStaticPercent = 0.8

// The matcher's threshold bounds. Initial is used before any measurement
// exists: 0.5 is always wait-free for the support-slower case and nearly
// optimal for balanced rates, so it is the safe cold-start choice. Min and
// Max clamp the adapted threshold: Min keeps spills from degenerating into
// per-record handoffs (combine efficiency, §IV-A); Max keeps headroom so
// the producer is never trivially blocked.
const (
	Initial = 0.5
	Min     = 0.1
	Max     = 0.95
)

// Matcher is the adaptive spill-percentage controller: each threshold is
// derived from the last spill's measurements alone, the paper's policy.
type Matcher struct {
	mu sync.Mutex
	x  float64
}

// NewMatcher returns a Matcher at the Initial threshold.
func NewMatcher() *Matcher {
	return &Matcher{x: Initial}
}

// Percent implements Controller.
func (m *Matcher) Percent() float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.x
}

// Record implements Controller: it derives the wait-free maximal threshold
// from the last spill's produce/consume times (eq. 1).
func (m *Matcher) Record(spillBytes int64, produce, consume time.Duration) {
	if spillBytes <= 0 || produce <= 0 || consume <= 0 {
		return // degenerate measurement; keep the current threshold
	}
	// x = max{c/(p+c), 1/2} with p = bytes/T_p and c = bytes/T_c reduces
	// to max{T_p/(T_p+T_c), 1/2}: if the producer is slower (T_p > T_c)
	// the threshold rises above ½ to grow spills; if the consumer is
	// slower it caps at ½ so the next spill is always ready on time.
	x := float64(produce) / float64(produce+consume)
	if x < 0.5 {
		x = 0.5
	}
	m.mu.Lock()
	m.x = clamp(x, Min, Max)
	m.mu.Unlock()
}

// WaitFreePercent is the pure eq.-1 function: the maximal spill percentage
// that keeps the slower thread wait-free given produce rate p and consume
// rate c (bytes/second). Exported for the analytic model and tests.
func WaitFreePercent(p, c float64) float64 {
	if p <= 0 || c <= 0 {
		return 0.5
	}
	x := c / (p + c)
	if x < 0.5 {
		x = 0.5
	}
	return x
}

func clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}
