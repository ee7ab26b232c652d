package metrics

import (
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
)

// This file adds latency distributions to the counter/gauge layer: the
// shuffle's tail behaviour (fetch p99, staging stalls) is invisible in
// totals, and the critical-path analyzer needs distributions to tell a
// uniformly slow path from a few outliers. The design is the HDR-histogram
// idea restricted to what the runtime needs — log-linear buckets with a
// bounded relative error, lock-free atomic recording so instrumented hot
// paths stay allocation-free under the //mrlint:hotpath contract, and
// bucket-wise merging so per-task histograms aggregate like Snapshots.
//
// Bucketing: values below 2^histSubBits get exact unit buckets; above
// that, every power-of-two octave is split into 2^histSubBits linear
// sub-buckets. A bucket's width is at most 1/16th of its lower bound, so
// any quantile read from bucket upper bounds overestimates by at most
// 6.25% — tight enough to compare configurations, cheap enough that the
// whole bucket array is a few KiB of atomics.

const (
	// histSubBits sets the sub-bucket resolution: 2^histSubBits linear
	// buckets per power-of-two octave, bounding quantile overestimation
	// at 1/2^histSubBits (6.25%).
	histSubBits = 4
	// histSubCount is the number of sub-buckets per octave.
	histSubCount = 1 << histSubBits
	// histBuckets spans all of uint64: octave 0 holds the exact values
	// below histSubCount, then (64 - histSubBits) octaves of histSubCount
	// sub-buckets each.
	histBuckets = (64-histSubBits)<<histSubBits + histSubCount
)

// bucketIndex maps a value to its bucket. Monotone in v.
func bucketIndex(v uint64) int {
	if v < histSubCount {
		return int(v)
	}
	shift := uint(bits.Len64(v)) - 1 - histSubBits
	return int((uint64(shift+1) << histSubBits) + ((v >> shift) & (histSubCount - 1)))
}

// bucketLow returns the smallest value mapping to bucket idx.
func bucketLow(idx int) uint64 {
	if idx < histSubCount {
		return uint64(idx)
	}
	shift := uint(idx>>histSubBits) - 1
	return uint64(histSubCount+(idx&(histSubCount-1))) << shift
}

// bucketHigh returns the largest value mapping to bucket idx.
func bucketHigh(idx int) uint64 {
	if idx < histSubCount {
		return uint64(idx)
	}
	shift := uint(idx>>histSubBits) - 1
	return bucketLow(idx) + (uint64(1) << shift) - 1
}

// Histogram is a mergeable log-bucketed value distribution (nanoseconds by
// convention; the bucket math is unit-agnostic). Recording is lock-free
// and allocation-free; reads take a consistent-enough snapshot bucket by
// bucket. Obtain named instances from GetHistogram so exposition and
// dumps see every histogram in the process.
type Histogram struct {
	name   string
	count  atomic.Uint64
	sum    atomic.Int64
	max    atomic.Int64
	counts [histBuckets]atomic.Uint64
}

// Name returns the histogram's registry name.
func (h *Histogram) Name() string { return h.name }

// Record adds one observation. Negative values clamp to zero (durations
// from non-monotonic arithmetic). Safe for concurrent use; performs no
// allocation — it sits on instrumented shuffle and reduce hot paths.
//
//mrlint:hotpath
func (h *Histogram) Record(v int64) {
	if v < 0 {
		v = 0
	}
	h.counts[bucketIndex(uint64(v))].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
	for {
		old := h.max.Load()
		if v <= old || h.max.CompareAndSwap(old, v) {
			return
		}
	}
}

// Reset zeroes the histogram. It is not atomic with respect to concurrent
// Record calls; callers reset between runs, not during them.
func (h *Histogram) Reset() {
	h.count.Store(0)
	h.sum.Store(0)
	h.max.Store(0)
	for i := range h.counts {
		h.counts[i].Store(0)
	}
}

// Snapshot copies the histogram's current state. Concurrent Record calls
// may straddle the copy; the snapshot is exact once recording quiesces.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Name:  h.name,
		Count: h.count.Load(),
		Sum:   h.sum.Load(),
		Max:   h.max.Load(),
	}
	top := -1
	var counts [histBuckets]uint64
	for i := range h.counts {
		if c := h.counts[i].Load(); c != 0 {
			counts[i] = c
			top = i
		}
	}
	s.Counts = append([]uint64(nil), counts[:top+1]...)
	return s
}

// HistogramSnapshot is an immutable copy of a histogram: bucket counts
// trimmed at the highest non-empty bucket, plus exact count/sum/max.
type HistogramSnapshot struct {
	Name   string
	Count  uint64
	Sum    int64
	Max    int64
	Counts []uint64
}

// Merge adds other into s bucket-wise. Merging is associative and
// commutative up to the Name field, which keeps the receiver's.
func (s *HistogramSnapshot) Merge(other HistogramSnapshot) {
	if len(other.Counts) > len(s.Counts) {
		grown := make([]uint64, len(other.Counts))
		copy(grown, s.Counts)
		s.Counts = grown
	}
	for i, c := range other.Counts {
		s.Counts[i] += c
	}
	s.Count += other.Count
	s.Sum += other.Sum
	if other.Max > s.Max {
		s.Max = other.Max
	}
}

// Mean returns the average recorded value (exact: sum/count).
func (s HistogramSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}

// Quantile returns an upper estimate of the q-quantile (q in [0,1]): the
// upper bound of the bucket holding the rank-⌈q·count⌉ observation,
// clamped to the exact recorded maximum. The estimate never undershoots
// the true quantile and overshoots by at most 1/2^histSubBits (6.25%).
func (s HistogramSnapshot) Quantile(q float64) int64 {
	if s.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := uint64(q * float64(s.Count))
	if float64(rank) < q*float64(s.Count) {
		rank++
	}
	if rank < 1 {
		rank = 1
	}
	var cum uint64
	for i, c := range s.Counts {
		cum += c
		if cum >= rank {
			hi := bucketHigh(i)
			if int64(hi) > s.Max || hi > 1<<62 {
				return s.Max
			}
			return int64(hi)
		}
	}
	return s.Max
}

// HistogramSummary is the JSON-facing digest of one histogram, used by
// mrrun -metrics-json and the bench reports.
type HistogramSummary struct {
	Name   string  `json:"name"`
	Count  uint64  `json:"count"`
	SumNS  int64   `json:"sum_ns"`
	MeanNS float64 `json:"mean_ns"`
	P50NS  int64   `json:"p50_ns"`
	P95NS  int64   `json:"p95_ns"`
	P99NS  int64   `json:"p99_ns"`
	MaxNS  int64   `json:"max_ns"`
}

// Summary digests the snapshot into the standard quantile report.
func (s HistogramSnapshot) Summary() HistogramSummary {
	return HistogramSummary{
		Name:   s.Name,
		Count:  s.Count,
		SumNS:  s.Sum,
		MeanNS: s.Mean(),
		P50NS:  s.Quantile(0.50),
		P95NS:  s.Quantile(0.95),
		P99NS:  s.Quantile(0.99),
		MaxNS:  s.Max,
	}
}

// Registry names for the histograms the runtime records. Callers cache
// the *Histogram from GetHistogram in a package variable so the hot path
// never touches the registry lock.
const (
	// HistShuffleFetchNS is per-segment shuffle fetch latency as a reduce
	// attempt sees it: staged take (fabric hop included) or direct open.
	HistShuffleFetchNS = "shuffle.fetch.ns"
	// HistReduceQueueWaitNS is reduce attempt time between enqueue and a
	// worker slot picking the attempt up.
	HistReduceQueueWaitNS = "reduce.queue.wait.ns"
)

// histReg is the process-wide named histogram registry.
var histReg struct {
	mu sync.Mutex
	m  map[string]*Histogram
}

// GetHistogram returns the process-wide histogram with the given name,
// creating it on first use. The returned pointer is stable for the life
// of the process; cache it rather than re-resolving per record.
func GetHistogram(name string) *Histogram {
	histReg.mu.Lock()
	defer histReg.mu.Unlock()
	if histReg.m == nil {
		histReg.m = make(map[string]*Histogram)
	}
	h := histReg.m[name]
	if h == nil {
		h = &Histogram{name: name}
		histReg.m[name] = h
	}
	return h
}

// NewHistogram returns a fresh histogram that is NOT in the process-wide
// registry: a private sink for one job (or one test) whose observations
// must not interleave with other concurrent recorders of the same name.
// Exposition and dumps never see it; fold it into the registry instance
// of the same name with MergeIntoRegistry when (and if) its observations
// should join the process-wide aggregate.
func NewHistogram(name string) *Histogram {
	return &Histogram{name: name}
}

// AddSnapshot folds a snapshot's observations into the histogram
// bucket-wise. The snapshot's buckets must come from the same bucketing
// scheme (they always do — the scheme is compile-time constant). Safe for
// concurrent use with Record; the merge is not atomic as a whole, but
// every observation lands exactly once.
func (h *Histogram) AddSnapshot(s HistogramSnapshot) {
	for i, c := range s.Counts {
		if c != 0 {
			h.counts[i].Add(c)
		}
	}
	h.count.Add(s.Count)
	h.sum.Add(s.Sum)
	for {
		old := h.max.Load()
		if s.Max <= old || h.max.CompareAndSwap(old, s.Max) {
			break
		}
	}
}

// MergeIntoRegistry folds a private histogram's current state into the
// process-wide registry histogram of the same name — how a per-job sink
// joins the service-level aggregate after the job completes.
func MergeIntoRegistry(h *Histogram) {
	GetHistogram(h.name).AddSnapshot(h.Snapshot())
}

// HistogramSnapshots returns a snapshot of every registered histogram,
// sorted by name. Empty histograms are included so exposition surfaces
// registered-but-quiet instruments.
func HistogramSnapshots() []HistogramSnapshot {
	histReg.mu.Lock()
	hs := make([]*Histogram, 0, len(histReg.m))
	for _, h := range histReg.m {
		hs = append(hs, h)
	}
	histReg.mu.Unlock()
	sort.Slice(hs, func(i, j int) bool { return hs[i].name < hs[j].name })
	out := make([]HistogramSnapshot, len(hs))
	for i, h := range hs {
		out[i] = h.Snapshot()
	}
	return out
}

// ResetHistograms zeroes every registered histogram — the per-iteration
// reset the bench harnesses use between configurations.
func ResetHistograms() {
	histReg.mu.Lock()
	hs := make([]*Histogram, 0, len(histReg.m))
	for _, h := range histReg.m {
		hs = append(hs, h)
	}
	histReg.mu.Unlock()
	for _, h := range hs {
		h.Reset()
	}
}
