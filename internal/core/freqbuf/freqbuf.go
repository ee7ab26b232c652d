// Package freqbuf implements frequency-buffering (§III of the paper), the
// first of the two optimizations: a small in-memory hash table, carved out
// of the map task's memory budget, that absorbs and combines map-output
// records whose keys are among the top-k most frequent — eliminating them
// from the sort/spill/merge dataflow entirely.
//
// A Buffer moves through the paper's stages:
//
//	pre-profile → profile → optimize
//
// In the pre-profiling stage (§III-C) it counts exact key frequencies over
// a small prefix (~1% of records), fits a Zipf parameter α by log-log
// regression, and derives the sampling fraction s from the rule
// n·s ≥ k^α·H_{m,α}. In the profiling stage (§III-B) it feeds a
// Space-Saving summary until s·n records have been seen, then freezes the
// estimated top-k. In the optimization stage every record whose key is
// frequent is absorbed into the hash table; per key, buffered values are
// collapsed with the user combine() whenever they hit a cap, and aggregates
// that no longer fit the memory budget overflow to the ordinary spill path.
// During the first two stages all records flow down the standard path
// unchanged.
//
// The per-node Cache implements the paper's cross-task sharing: the first
// task of a job on a node publishes its frozen top-k, and subsequent tasks
// skip profiling entirely.
package freqbuf

import (
	"fmt"
	"sort"
	"sync"

	"mrtext/internal/core/topk"
	"mrtext/internal/core/zipfest"
	"mrtext/internal/kvio"
)

// Stage identifies where a Buffer is in its lifecycle.
type Stage int

const (
	// StagePreProfile: estimating the Zipf parameter from a tiny prefix.
	StagePreProfile Stage = iota
	// StageProfile: running Space-Saving to find the top-k keys.
	StageProfile
	// StageOptimize: frequent keys are absorbed and combined in memory.
	StageOptimize
)

// String returns the stage name.
func (s Stage) String() string {
	switch s {
	case StagePreProfile:
		return "pre-profile"
	case StageProfile:
		return "profile"
	case StageOptimize:
		return "optimize"
	}
	return fmt.Sprintf("stage(%d)", int(s))
}

// Config parameterizes a Buffer. The paper's text experiments use K=3000,
// s=0.01; the log experiments K=10000, s=0.1; memory is 30% of the spill
// buffer.
type Config struct {
	// K is the number of frequent keys tracked (hash table entries).
	K int
	// MemoryBytes bounds the hash table (keys + buffered values).
	MemoryBytes int64
	// SampleFraction fixes the profiling fraction s. When zero the
	// auto-tuning profiler of §III-C chooses s from the fitted α.
	SampleFraction float64
	// PreProfileFraction is the prefix used for α estimation (default 1%).
	PreProfileFraction float64
	// ExpectedRecords estimates this task's total map-output record count
	// n; the runtime refines it as the split is consumed. Required.
	ExpectedRecords func() int64
	// ValuesPerKeyCap triggers an in-table combine() once a frequent key
	// has buffered this many values (default 32).
	ValuesPerKeyCap int
}

const (
	// summaryPerKey sizes the Space-Saving summary: this many counters per
	// tracked key.
	summaryPerKey = 4
	// minSample and maxSample clamp an auto-tuned s.
	minSample, maxSample = 0.002, 0.5
)

func (c Config) withDefaults() Config {
	if c.PreProfileFraction <= 0 {
		c.PreProfileFraction = 0.01
	}
	if c.ValuesPerKeyCap <= 0 {
		c.ValuesPerKeyCap = 32
	}
	return c
}

// Stats summarizes a Buffer's work for the experiment reports.
type Stats struct {
	Stage          Stage
	Profiled       int64   // records observed during pre-profile + profile
	Hits           int64   // records absorbed by the table
	Misses         int64   // optimize-stage records with infrequent keys
	Evictions      int64   // aggregates overflowed to the spill path
	Combines       int64   // in-table combine() invocations
	ChosenSample   float64 // the s actually used
	FittedAlpha    float64 // α from the pre-profiling fit (0 if skipped)
	TableBytes     int64   // current memory footprint
	SharedTopK     bool    // top-k came from the node cache, profiling skipped
	FrozenTableLen int     // number of frequent keys installed
}

// entryOverhead approximates per-entry bookkeeping bytes counted against
// the memory budget.
const entryOverhead = 48

type entry struct {
	part    int
	key     []byte
	pending [][]byte // raw values buffered since the last chunk combine
	// chunks are first-level aggregates: each is the result of combining
	// one batch of pending values. Chunks are themselves merged by a
	// second-level combine, unless the combiner turns out not to shrink
	// data (noCombine) — in which case chunks accumulate until eviction or
	// drain flushes them. The two-level scheme keeps in-table combining
	// O(n) per key instead of re-encoding an ever-growing aggregate
	// quadratically (posting lists!).
	chunks    [][]byte
	bytes     int64 // this entry's contribution to the budget
	noCombine bool  // second-level combines don't shrink; stop trying
}

// valueOverhead is the per-buffered-value accounting charge.
const valueOverhead = 24

// Buffer is the frequency-buffering engine for one map task. It is not
// safe for concurrent use; the map goroutine owns it.
type Buffer struct {
	cfg     Config
	combine kvio.CombineFunc

	stage   Stage
	pre     *topk.Exact
	summary *topk.StreamSummary
	seen    int64 // records observed across all stages

	sample      float64 // chosen s
	fittedAlpha float64
	sharedTopK  bool

	table      map[string]*entry
	tableBytes int64
	stats      Stats
}

// New returns a Buffer in the pre-profiling stage. combine is the job's
// combiner; it may be nil, in which case frequent keys' values are merely
// buffered (still skipping the sort/spill path) and written out at drain or
// eviction time — the (small) benefit the paper observes even for jobs
// whose records cannot be aggregated, such as AccessLogJoin.
func New(cfg Config, combine kvio.CombineFunc) (*Buffer, error) {
	cfg = cfg.withDefaults()
	if cfg.K <= 0 {
		return nil, fmt.Errorf("freqbuf: K must be positive, got %d", cfg.K)
	}
	if cfg.MemoryBytes <= 0 {
		return nil, fmt.Errorf("freqbuf: MemoryBytes must be positive, got %d", cfg.MemoryBytes)
	}
	if cfg.ExpectedRecords == nil {
		return nil, fmt.Errorf("freqbuf: ExpectedRecords estimator is required")
	}
	return &Buffer{
		cfg:     cfg,
		combine: combine,
		stage:   StagePreProfile,
		pre:     topk.NewExact(),
	}, nil
}

// Stage returns the buffer's current lifecycle stage.
func (b *Buffer) Stage() Stage { return b.stage }

// Stats returns a snapshot of the buffer's statistics.
func (b *Buffer) Stats() Stats {
	s := b.stats
	s.Stage = b.stage
	s.ChosenSample = b.sample
	s.FittedAlpha = b.fittedAlpha
	s.TableBytes = b.tableBytes
	s.SharedTopK = b.sharedTopK
	s.FrozenTableLen = len(b.table)
	return s
}

// InstallTopK installs a previously frozen frequent-key set (from the node
// cache), skipping both profiling stages. Keys map to their partitions via
// the part function.
func (b *Buffer) InstallTopK(keys []string, part func(key []byte) int) {
	b.table = make(map[string]*entry, len(keys))
	for _, k := range keys {
		kb := []byte(k)
		e := &entry{part: part(kb), key: kb, bytes: int64(len(kb)) + entryOverhead}
		b.table[k] = e
		b.tableBytes += e.bytes
	}
	b.sharedTopK = true
	b.stage = StageOptimize
	b.pre, b.summary = nil, nil
}

// TopK returns the frozen frequent-key set (nil before the optimize stage),
// for publication to the node cache.
func (b *Buffer) TopK() []string {
	if b.stage != StageOptimize {
		return nil
	}
	keys := make([]string, 0, len(b.table))
	for k := range b.table {
		keys = append(keys, k)
	}
	return keys
}

// Offer presents one map-output record. If absorbed is true the record has
// been taken into the frequent-key table and must not be sent down the
// spill path. overflow, when non-empty, holds aggregate records ejected for
// lack of space: the caller must route them down the spill path. The key
// and value slices are copied as needed; the caller may reuse them.
func (b *Buffer) Offer(part int, key, value []byte) (absorbed bool, overflow []kvio.Record, err error) {
	b.seen++
	switch b.stage {
	case StagePreProfile:
		b.pre.Offer(string(key))
		b.stats.Profiled++
		if float64(b.seen) >= b.cfg.PreProfileFraction*float64(b.expected()) {
			b.finishPreProfile()
		}
		return false, nil, nil

	case StageProfile:
		b.summary.Offer(string(key))
		b.stats.Profiled++
		if float64(b.seen) >= b.sample*float64(b.expected()) {
			b.freeze()
		}
		return false, nil, nil

	case StageOptimize:
		e, ok := b.table[string(key)]
		if !ok {
			b.stats.Misses++
			return false, nil, nil
		}
		b.stats.Hits++
		if e.part < 0 {
			e.part = part
		}
		v := append([]byte(nil), value...)
		e.pending = append(e.pending, v)
		grow := int64(len(v)) + valueOverhead
		e.bytes += grow
		b.tableBytes += grow
		if len(e.pending) >= b.cfg.ValuesPerKeyCap {
			if err := b.combinePending(e); err != nil {
				return true, nil, err
			}
			if len(e.chunks) >= chunkCap {
				if err := b.combineChunks(e); err != nil {
					return true, nil, err
				}
			}
		}
		if b.tableBytes > b.cfg.MemoryBytes {
			ov, err := b.evictToWatermark()
			if err != nil {
				return true, nil, err
			}
			overflow = ov
		}
		return true, overflow, nil
	}
	return false, nil, fmt.Errorf("freqbuf: invalid stage %v", b.stage)
}

func (b *Buffer) expected() int64 {
	n := b.cfg.ExpectedRecords()
	if n < 1 {
		n = 1
	}
	return n
}

// finishPreProfile fits α, chooses s and moves to the profiling stage.
func (b *Buffer) finishPreProfile() {
	if b.cfg.SampleFraction > 0 {
		b.sample = b.cfg.SampleFraction
	} else {
		counts := b.pre.RankedCounts()
		fit, err := zipfest.EstimateAlpha(counts)
		if err != nil {
			// Degenerate prefix (e.g. single distinct key): fall back to
			// the most conservative sample.
			b.sample = maxSample
		} else {
			b.fittedAlpha = fit.Alpha
			// Extrapolate the distinct-key count linearly from the prefix;
			// linear growth over-estimates m (vocabulary growth is
			// sublinear), which over-estimates H_{m,α} and s — the safe
			// direction.
			frac := float64(b.seen) / float64(b.expected())
			if frac <= 0 {
				frac = b.cfg.PreProfileFraction
			}
			m := int64(float64(b.pre.Distinct()) / frac)
			if m < int64(b.pre.Distinct()) {
				m = int64(b.pre.Distinct())
			}
			b.sample = zipfest.SampleFraction(b.expected(), b.cfg.K, m, fit.Alpha, minSample, maxSample)
		}
	}
	// Seed the Space-Saving summary with the exact prefix counts so the
	// pre-profiling observations are not wasted.
	capacity := summaryPerKey * b.cfg.K
	b.summary = topk.NewStreamSummary(capacity)
	for _, c := range b.pre.Top(capacity) {
		b.summary.OfferN(c.Key, c.Count)
	}
	b.pre = nil
	b.stage = StageProfile
}

// freeze installs the estimated top-k and enters the optimize stage.
// Entries learn their partition on first absorption, so freeze needs no
// partitioner.
func (b *Buffer) freeze() {
	top := b.summary.Top(b.cfg.K)
	b.table = make(map[string]*entry, len(top))
	for _, c := range top {
		kb := []byte(c.Key)
		e := &entry{part: -1, key: kb, bytes: int64(len(kb)) + entryOverhead}
		b.table[c.Key] = e
		b.tableBytes += e.bytes
	}
	b.summary = nil
	b.stage = StageOptimize
}

// chunkCap bounds the first-level chunk list before a second-level
// combine is attempted.
const chunkCap = 64

// runCombine invokes the user combiner over vals and returns the emitted
// values.
func (b *Buffer) runCombine(e *entry, vals [][]byte) ([][]byte, error) {
	b.stats.Combines++
	var out [][]byte
	err := b.combine(e.key, vals, func(_, v []byte) error {
		out = append(out, append([]byte(nil), v...))
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("freqbuf: combine(%q): %w", e.key, err)
	}
	return out, nil
}

// recount recomputes an entry's byte charge after its contents changed.
func (b *Buffer) recount(e *entry, old int64) {
	e.bytes = int64(len(e.key)) + entryOverhead
	for _, v := range e.chunks {
		e.bytes += int64(len(v)) + valueOverhead
	}
	for _, v := range e.pending {
		e.bytes += int64(len(v)) + valueOverhead
	}
	b.tableBytes += e.bytes - old
}

// combinePending collapses the pending batch into one chunk (first-level
// combine). Without a combiner pending values simply become chunks.
func (b *Buffer) combinePending(e *entry) error {
	if len(e.pending) == 0 {
		return nil
	}
	old := e.bytes
	if b.combine == nil {
		e.chunks = append(e.chunks, e.pending...)
		e.pending = nil
		return nil // byte charge unchanged
	}
	out, err := b.runCombine(e, e.pending)
	if err != nil {
		return err
	}
	e.pending = nil
	e.chunks = append(e.chunks, out...)
	b.recount(e, old)
	return nil
}

// combineChunks merges the chunk list (second-level combine). If merging
// fails to shrink the data (posting lists only concatenate), the entry is
// marked noCombine and chunks accumulate until eviction/drain instead.
func (b *Buffer) combineChunks(e *entry) error {
	if b.combine == nil || e.noCombine || len(e.chunks) <= 1 {
		return nil
	}
	var before int64
	for _, v := range e.chunks {
		before += int64(len(v)) + valueOverhead
	}
	old := e.bytes
	out, err := b.runCombine(e, e.chunks)
	if err != nil {
		return err
	}
	e.chunks = out
	b.recount(e, old)
	var after int64
	for _, v := range e.chunks {
		after += int64(len(v)) + valueOverhead
	}
	if before > 0 && float64(after) > 0.75*float64(before) {
		e.noCombine = true
	}
	return nil
}

// evictWatermark is the fill level eviction drains the table down to; a
// batch eviction amortizes the flush cost over many subsequent absorbed
// records instead of thrashing one aggregate at a time.
const evictWatermark = 0.8

// evictToWatermark combines what can usefully be combined and then flushes
// the largest entries' contents to the spill path (the paper's "written to
// disk using the original dataflow") until the table is back under the
// watermark. Entries keep their slots: their keys remain frequent.
func (b *Buffer) evictToWatermark() ([]kvio.Record, error) {
	target := int64(evictWatermark * float64(b.cfg.MemoryBytes))
	var out []kvio.Record
	for _, e := range b.entriesBySize() {
		if b.tableBytes <= target {
			break
		}
		old := e.bytes
		if old == int64(len(e.key))+entryOverhead {
			break // remaining entries are already empty
		}
		// Collapse the pending batch into chunks first: cheap, and it
		// shrinks sum-like values drastically before they hit the disk.
		if err := b.combinePending(e); err != nil {
			return nil, err
		}
		for _, v := range e.chunks {
			out = append(out, kvio.Record{Part: e.part, Key: append([]byte(nil), e.key...), Value: v})
		}
		e.chunks = nil
		b.recount(e, e.bytes)
	}
	b.stats.Evictions += int64(len(out))
	// Determinism: eviction order must not depend on map iteration.
	kvio.SortRecords(out)
	return out, nil
}

// entriesBySize returns the table's entries ordered by descending memory
// footprint.
func (b *Buffer) entriesBySize() []*entry {
	es := make([]*entry, 0, len(b.table))
	for _, e := range b.table {
		es = append(es, e)
	}
	sort.Slice(es, func(i, j int) bool {
		if es[i].bytes != es[j].bytes {
			return es[i].bytes > es[j].bytes
		}
		return string(es[i].key) < string(es[j].key) // deterministic tie-break
	})
	return es
}

// Drain combines and returns every remaining aggregate at end of input,
// sorted by (partition, key), for the caller to send down the spill path.
// The buffer must not be used afterwards.
func (b *Buffer) Drain() ([]kvio.Record, error) {
	if b.stage != StageOptimize {
		return nil, nil // never froze: everything already went down the spill path
	}
	var out []kvio.Record
	for _, e := range b.table {
		if err := b.combinePending(e); err != nil {
			return nil, err
		}
		if err := b.combineChunks(e); err != nil {
			return nil, err
		}
		for _, v := range e.chunks {
			out = append(out, kvio.Record{Part: e.part, Key: e.key, Value: v})
		}
	}
	kvio.SortRecords(out)
	b.table = nil
	b.tableBytes = 0
	return out, nil
}

// Cache shares frozen top-k sets across the tasks of one job on one node
// (§III-B: "our system finds the top-k frequent-key set just once for all
// the tasks that run on a single node"). A set lives from its job's first
// Put to the Drop at the job's end. It is safe for concurrent use.
type Cache struct {
	mu   sync.Mutex
	sets map[string][]string
}

// NewCache returns an empty cache.
func NewCache() *Cache {
	return &Cache{sets: make(map[string][]string)}
}

// Get returns the cached top-k for the given job, if any.
func (c *Cache) Get(jobID string) ([]string, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	keys, ok := c.sets[jobID]
	return keys, ok
}

// Put publishes a frozen top-k for the given job; the first publication
// wins so all tasks share one set.
func (c *Cache) Put(jobID string, keys []string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.sets[jobID]; !ok && len(keys) > 0 {
		c.sets[jobID] = keys
	}
}

// Drop forgets the given job's set. The runner calls it on every node when
// the job ends, whichever way, so a long-lived cluster holds sets of
// running jobs only.
func (c *Cache) Drop(jobID string) {
	c.mu.Lock()
	delete(c.sets, jobID)
	c.mu.Unlock()
}

// Len returns the number of jobs with a set in the cache.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.sets)
}
