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
// optimal for balanced rates, so it is the safe cold-start choice. Max caps
// the adapted threshold, keeping headroom so the producer is never
// trivially blocked. Eq. 1 never goes below ½, so no lower bound is needed.
const (
	Initial = 0.5
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
	// With p = bytes/T_p and c = bytes/T_c, eq. 1 is a function of the
	// two times alone: if the producer is slower (T_p > T_c) the threshold
	// rises above ½ to grow spills; if the consumer is slower it stays at
	// ½ so the next spill is always ready on time.
	m.mu.Lock()
	m.x = eq1(float64(produce), float64(consume))
	m.mu.Unlock()
}

// WaitFreePercent is the pure eq.-1 function: the maximal spill percentage
// the matcher chooses to keep the slower thread wait-free given produce
// rate p and consume rate c (bytes/second). Exported for the analytic
// model and tests.
func WaitFreePercent(p, c float64) float64 {
	if p <= 0 || c <= 0 {
		return Initial
	}
	return eq1(c, p)
}

// eq1 is eq. 1, x = max{c/(p+c), ½} = max{T_p/(T_p+T_c), ½}, as a/(a+b)
// with a standing for c or T_p and b for p or T_c, capped at Max.
func eq1(a, b float64) float64 {
	return min(max(a/(a+b), 0.5), Max)
}
