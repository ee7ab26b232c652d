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
// The optimize stage's table is flat memory built once at freeze time: the
// frozen keys packed in one arena, an open-addressing slot array over them,
// and per key its buffered values packed in byte arenas that keep their
// capacity across combines — so a warm absorbed or missed record allocates
// nothing, which is what lets the intercept cost less than the spill append
// it saves.
//
// The per-node Cache implements the paper's cross-task sharing: the first
// task of a job on a node publishes its frozen top-k, and subsequent tasks
// skip profiling entirely.
package freqbuf

import (
	"bytes"
	"cmp"
	"fmt"
	"hash/maphash"
	"math/bits"
	"slices"
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
	TableBytes     int64   // peak memory footprint, as budgeted (Drain empties the table)
	SharedTopK     bool    // top-k came from the node cache, profiling skipped
	FrozenTableLen int     // number of frequent keys installed
}

// entryOverhead approximates per-entry bookkeeping bytes counted against
// the memory budget.
const entryOverhead = 48

// valueOverhead is the per-buffered-value accounting charge.
const valueOverhead = 24

// packed is a list of byte strings stored end to end: arena holds them in
// order and ends[i] is where the i-th ends. Emptied lists keep their
// capacity, so refilling one allocates nothing.
type packed struct {
	arena []byte
	ends  []int
}

func (p *packed) add(v []byte) {
	p.arena = append(p.arena, v...)
	p.ends = append(p.ends, len(p.arena))
}

// addAll appends every value of q.
func (p *packed) addAll(q *packed) {
	base := len(p.arena)
	p.arena = append(p.arena, q.arena...)
	for _, end := range q.ends {
		p.ends = append(p.ends, base+end)
	}
}

func (p *packed) len() int { return len(p.ends) }

func (p *packed) at(i int) []byte {
	start := 0
	if i > 0 {
		start = p.ends[i-1]
	}
	return p.arena[start:p.ends[i]:p.ends[i]]
}

func (p *packed) reset() {
	p.arena, p.ends = p.arena[:0], p.ends[:0]
}

// charge is the list's share of the memory budget.
func (p *packed) charge() int64 {
	return int64(len(p.arena)) + valueOverhead*int64(len(p.ends))
}

// entry is one frequent key's state in the optimize stage.
type entry struct {
	key     []byte // in the buffer's key arena
	part    int    // -1 until the first absorbed record names it
	bytes   int64  // this entry's contribution to the budget
	pending packed // raw values buffered since the last chunk combine
	// chunks are first-level aggregates: each is the result of combining
	// one batch of pending values. Chunks are themselves merged by a
	// second-level combine, unless the combiner turns out not to shrink
	// data (noCombine) — in which case chunks accumulate until eviction or
	// drain flushes them. The two-level scheme keeps in-table combining
	// O(n) per key instead of re-encoding an ever-growing aggregate
	// quadratically (posting lists!).
	chunks    packed
	noCombine bool // second-level combines don't shrink; stop trying
}

// empty reports whether the entry buffers no value: its charge is then its
// key and overhead alone.
func (e *entry) empty() bool { return e.bytes == int64(len(e.key))+entryOverhead }

// evictionOrder orders entries for eviction: larger footprint first, then
// ascending key.
func evictionOrder(e, f *entry) int {
	if c := cmp.Compare(f.bytes, e.bytes); c != 0 {
		return c
	}
	return bytes.Compare(e.key, f.key)
}

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

	// The frequent-key table. entries are the frozen keys in install
	// order. slots is an open-addressing array of twice as many slots or
	// more, probed linearly from a key's hash: an empty slot is 0, a full
	// one holds the entry's index + 1 in its idxMask bits and the rest of
	// the hash's high word as a tag, so a probe reads key bytes only when
	// the tags agree.
	entries []entry
	slots   []uint32
	idxMask uint32
	seed    maphash.Seed

	tableBytes int64
	peakBytes  int64
	frozen     int // keys installed

	// Scratch the whole table shares: a combine's input views, and what
	// the combiner emits, through the one emit func made at New.
	vals [][]byte
	out  packed
	emit func(k, v []byte) error

	order []int32 // eviction candidates
	stats Stats
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
	b := &Buffer{
		cfg:     cfg,
		combine: combine,
		stage:   StagePreProfile,
		pre:     topk.NewExact(),
		seed:    maphash.MakeSeed(),
	}
	b.emit = func(_, v []byte) error {
		b.out.add(v)
		return nil
	}
	return b, nil
}

// Stage returns the buffer's current lifecycle stage.
func (b *Buffer) Stage() Stage { return b.stage }

// Stats returns a snapshot of the buffer's statistics.
func (b *Buffer) Stats() Stats {
	s := b.stats
	s.Stage = b.stage
	s.ChosenSample = b.sample
	s.FittedAlpha = b.fittedAlpha
	s.TableBytes = b.peakBytes
	s.SharedTopK = b.sharedTopK
	s.FrozenTableLen = b.frozen
	return s
}

// InstallTopK installs a previously frozen frequent-key set (from the node
// cache), skipping both profiling stages. Keys map to their partitions via
// the part function.
func (b *Buffer) InstallTopK(keys []string, part func(key []byte) int) {
	b.install(keys, part)
	b.sharedTopK = true
}

// TopK returns the frozen frequent-key set (nil before the optimize stage),
// for publication to the node cache.
func (b *Buffer) TopK() []string {
	if b.stage != StageOptimize {
		return nil
	}
	keys := make([]string, len(b.entries))
	for i := range b.entries {
		keys[i] = string(b.entries[i].key)
	}
	return keys
}

// Offer presents one map-output record. If absorbed is true the record has
// been taken into the frequent-key table and must not be sent down the
// spill path. overflow, when non-empty, holds aggregate records ejected for
// lack of space: the caller must route them down the spill path. The key
// and value slices are copied as needed; the caller may reuse them.
//
//mrlint:hotpath
func (b *Buffer) Offer(part int, key, value []byte) (absorbed bool, overflow []kvio.Record, err error) {
	b.seen++
	if b.stage != StageOptimize {
		//mrlint:ignore alloccheck profiling stages: one key string per record over the task's first s·n records only
		b.profile(key)
		return false, nil, nil
	}
	e, _ := b.lookup(key)
	if e == nil {
		b.stats.Misses++
		return false, nil, nil
	}
	b.stats.Hits++
	if e.part < 0 {
		e.part = part
	}
	e.pending.add(value)
	b.charge(e, int64(len(value))+valueOverhead)
	if e.pending.len() >= b.cfg.ValuesPerKeyCap {
		if err := b.combinePending(e); err != nil {
			return true, nil, err
		}
		if e.chunks.len() >= chunkCap {
			if err := b.combineChunks(e); err != nil {
				return true, nil, err
			}
		}
	}
	if b.tableBytes > b.cfg.MemoryBytes {
		//mrlint:ignore alloccheck once per fill of the last fifth of the budget, not per record
		overflow, err = b.evictToWatermark()
		return true, overflow, err
	}
	return true, nil, nil
}

// lookup returns key's entry, nil for a key that is not frequent, and the
// slot its probe sequence ended at: the entry's own, or the empty one that
// shows key is absent.
//
//mrlint:hotpath
func (b *Buffer) lookup(key []byte) (e *entry, pos int) {
	h := maphash.Bytes(b.seed, key)
	tag := b.tag(h)
	mask := len(b.slots) - 1
	for pos = int(h) & mask; ; pos = (pos + 1) & mask {
		s := b.slots[pos]
		if s == 0 {
			return nil, pos
		}
		if s&^b.idxMask == tag {
			if e := &b.entries[s&b.idxMask-1]; bytes.Equal(e.key, key) {
				return e, pos
			}
		}
	}
}

// tag is the part of hash h a slot keeps beside its entry index.
func (b *Buffer) tag(h uint64) uint32 { return uint32(h>>32) &^ b.idxMask }

// profile feeds one record's key to the pre-profiling or profiling stage
// and moves to the next stage when this one has seen enough.
func (b *Buffer) profile(key []byte) {
	b.stats.Profiled++
	if b.stage == StagePreProfile {
		b.pre.Offer(string(key))
		if float64(b.seen) >= b.cfg.PreProfileFraction*float64(b.expected()) {
			b.finishPreProfile()
		}
		return
	}
	b.summary.Offer(string(key))
	if float64(b.seen) >= b.sample*float64(b.expected()) {
		b.freeze()
	}
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
	keys := make([]string, len(top))
	for i, c := range top {
		keys[i] = c.Key
	}
	b.install(keys, nil)
}

// install builds the table over keys and enters the optimize stage: the
// keys are copied into one arena and indexed once. part maps a key to its
// partition; when nil, entries learn theirs on first absorption. A repeated
// key keeps its first entry.
func (b *Buffer) install(keys []string, part func(key []byte) int) {
	size := 0
	for _, k := range keys {
		size += len(k)
	}
	arena := make([]byte, 0, size) // never grows: the entries' keys stay put
	b.entries = make([]entry, 0, len(keys))
	b.slots = make([]uint32, 1<<bits.Len(uint(2*len(keys))))
	b.idxMask = 1<<bits.Len(uint(len(keys))) - 1
	for _, k := range keys {
		start := len(arena)
		arena = append(arena, k...)
		kb := arena[start:len(arena):len(arena)]
		dup, pos := b.lookup(kb)
		if dup != nil {
			arena = arena[:start]
			continue
		}
		p := -1
		if part != nil {
			p = part(kb)
		}
		b.entries = append(b.entries, entry{key: kb, part: p})
		b.slots[pos] = b.tag(maphash.Bytes(b.seed, kb)) | uint32(len(b.entries))
		b.charge(&b.entries[len(b.entries)-1], int64(len(kb))+entryOverhead)
	}
	b.frozen = len(b.entries)
	b.summary, b.pre = nil, nil
	b.stage = StageOptimize
}

// charge adds delta to an entry's and the table's footprint.
func (b *Buffer) charge(e *entry, delta int64) {
	e.bytes += delta
	b.tableBytes += delta
	b.peakBytes = max(b.peakBytes, b.tableBytes)
}

// recount recomputes an entry's byte charge after its contents changed.
func (b *Buffer) recount(e *entry) {
	b.charge(e, int64(len(e.key))+entryOverhead+e.pending.charge()+e.chunks.charge()-e.bytes)
}

// chunkCap bounds the first-level chunk list before a second-level
// combine is attempted.
const chunkCap = 64

// runCombine invokes the user combiner over vals; the emitted values are
// left in b.out.
func (b *Buffer) runCombine(e *entry, vals *packed) error {
	b.stats.Combines++
	b.vals = b.vals[:0]
	for i := 0; i < vals.len(); i++ {
		b.vals = append(b.vals, vals.at(i))
	}
	b.out.reset()
	if err := b.combine(e.key, b.vals, b.emit); err != nil {
		//mrlint:ignore alloccheck cold path: a failing combiner ends the task
		return fmt.Errorf("freqbuf: combine(%q): %w", e.key, err)
	}
	return nil
}

// combinePending collapses the pending batch into one chunk (first-level
// combine). Without a combiner pending values simply become chunks.
func (b *Buffer) combinePending(e *entry) error {
	if e.pending.len() == 0 {
		return nil
	}
	if b.combine == nil {
		e.chunks.addAll(&e.pending)
		e.pending.reset()
		return nil // byte charge unchanged
	}
	if err := b.runCombine(e, &e.pending); err != nil {
		return err
	}
	e.pending.reset()
	e.chunks.addAll(&b.out)
	b.recount(e)
	return nil
}

// combineChunks merges the chunk list (second-level combine). If merging
// fails to shrink the data (posting lists only concatenate), the entry is
// marked noCombine and chunks accumulate until eviction/drain instead.
func (b *Buffer) combineChunks(e *entry) error {
	if b.combine == nil || e.noCombine || e.chunks.len() <= 1 {
		return nil
	}
	before := e.chunks.charge()
	if err := b.runCombine(e, &e.chunks); err != nil {
		return err
	}
	e.chunks.reset()
	e.chunks.addAll(&b.out)
	b.recount(e)
	if after := e.chunks.charge(); before > 0 && float64(after) > 0.75*float64(before) {
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
//
// Victims are taken in evictionOrder, and the walk ends at the first entry
// that holds nothing; the other empty entries are left out of the sort. A
// victim's chunk arena leaves with its records, which therefore stay valid
// however the entry refills.
func (b *Buffer) evictToWatermark() ([]kvio.Record, error) {
	target := int64(evictWatermark * float64(b.cfg.MemoryBytes))
	b.order = b.order[:0]
	stop := -1 // the first empty entry in eviction order
	for i := range b.entries {
		if e := &b.entries[i]; !e.empty() {
			b.order = append(b.order, int32(i))
		} else if stop < 0 || evictionOrder(e, &b.entries[stop]) < 0 {
			stop = i
		}
	}
	if stop >= 0 {
		b.order = append(b.order, int32(stop))
	}
	slices.SortFunc(b.order, func(i, j int32) int {
		return evictionOrder(&b.entries[i], &b.entries[j])
	})
	var out []kvio.Record
	for _, i := range b.order {
		e := &b.entries[i]
		if b.tableBytes <= target || e.empty() {
			break
		}
		// Collapse the pending batch into chunks first: cheap, and it
		// shrinks sum-like values drastically before they hit the disk.
		if err := b.combinePending(e); err != nil {
			return nil, err
		}
		for j := 0; j < e.chunks.len(); j++ {
			out = append(out, kvio.Record{Part: e.part, Key: e.key, Value: e.chunks.at(j)})
		}
		e.chunks = packed{}
		b.recount(e)
	}
	b.stats.Evictions += int64(len(out))
	// The overflow leaves in (partition, key) order, as Drain's does.
	kvio.SortRecords(out)
	return out, nil
}

// Drain combines and returns every remaining aggregate at end of input,
// sorted by (partition, key), for the caller to send down the spill path.
// The records' keys and values alias the buffer's arenas, which nothing
// writes to again. The buffer must not be used afterwards.
func (b *Buffer) Drain() ([]kvio.Record, error) {
	if b.stage != StageOptimize {
		return nil, nil // never froze: everything already went down the spill path
	}
	var out []kvio.Record
	for i := range b.entries {
		e := &b.entries[i]
		if err := b.combinePending(e); err != nil {
			return nil, err
		}
		if err := b.combineChunks(e); err != nil {
			return nil, err
		}
		for j := 0; j < e.chunks.len(); j++ {
			out = append(out, kvio.Record{Part: e.part, Key: e.key, Value: e.chunks.at(j)})
		}
	}
	kvio.SortRecords(out)
	b.entries, b.slots = nil, nil
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
