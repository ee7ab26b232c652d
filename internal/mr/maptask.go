package mr

import (
	"errors"
	"fmt"
	"runtime/debug"
	"time"

	"mrtext/internal/chaos"
	"mrtext/internal/cluster"
	"mrtext/internal/core/freqbuf"
	"mrtext/internal/kvio"
	"mrtext/internal/metrics"
	"mrtext/internal/spillbuf"
	"mrtext/internal/trace"
	"mrtext/internal/vdisk"
)

// spanner locates one task's spans in the trace: the tracer (nil when
// tracing is off) plus the task attempt's fixed (node, task, slot,
// attempt) coordinates.
type spanner struct {
	tr      *trace.Tracer
	node    int
	task    int
	slot    int
	attempt int
}

// start opens a span for this task attempt on the given lane.
func (sc spanner) start(kind trace.Kind, lane trace.Lane) trace.Span {
	return sc.tr.StartAttempt(kind, lane, sc.node, sc.task, sc.slot, sc.attempt)
}

// panicError reports a panic recovered on a task's goroutine — the value
// and the stack of the goroutine that raised it — as the attempt's error,
// so that one job's faulty map(), combine() or reduce() fails an attempt of
// that job and not the process with every other job in it. A debug build
// raises the panic again instead: there it may be one of the runtime's own
// assertions, which must not be retried away.
func panicError(r any) error {
	if debugBuild {
		panic(r)
	}
	return fmt.Errorf("panicked: %v\n%s", r, debug.Stack())
}

// mapOutput locates one finished map task's partitioned output run.
type mapOutput struct {
	node  int
	index kvio.RunIndex
}

// combineTimer wraps the job's combiner for one goroutine of a task. It
// times the calls its sampler picks, each with the weight of the untimed
// calls it stands for, and accumulates the extrapolated duration; the call
// site measures one span around many calls and takes the estimate out of
// it, so user combine() time and the framework time around it still sum
// to the measured span. With a nil sampler it reads no clock.
type combineTimer struct {
	combine CombineFunc
	tm      *metrics.TaskMetrics
	s       *metrics.Sampler
	acc     time.Duration
}

// newCombineTimer returns a timer on the default sample schedule, or nil
// for a job without a combiner.
func newCombineTimer(combine CombineFunc, tm *metrics.TaskMetrics) *combineTimer {
	if combine == nil {
		return nil
	}
	s := metrics.DefaultSampler()
	return &combineTimer{combine: combine, tm: tm, s: &s}
}

// fn returns the timed combiner, nil for a nil timer.
func (ct *combineTimer) fn() CombineFunc {
	if ct == nil {
		return nil
	}
	return ct.call
}

func (ct *combineTimer) call(key []byte, vals [][]byte, emit func(k, v []byte) error) error {
	var w int64
	if ct.s != nil {
		w = ct.s.Sample()
	}
	if w == 0 {
		return ct.combine(key, vals, emit)
	}
	t0 := ct.tm.Now()
	err := ct.combine(key, vals, emit)
	ct.acc += time.Duration(w) * ct.tm.Now().Sub(t0)
	return err
}

// sampleWith switches the schedule the next calls are sampled on; nil
// turns timing off. Nil-safe.
func (ct *combineTimer) sampleWith(s *metrics.Sampler) {
	if ct != nil {
		ct.s = s
	}
}

// take returns the combine time estimated since the last take, at most
// span (an extrapolation may overshoot the span that contains it), and
// resets it. Nil-safe.
func (ct *combineTimer) take(span time.Duration) time.Duration {
	if ct == nil {
		return 0
	}
	est := min(ct.acc, span)
	ct.acc = 0
	return est
}

// mapCollector is the Collector handed to user map() code. It implements
// the full map-side emit path: partitioning, the frequency-buffering
// intercept, and the spill-buffer append, with the paper's operation
// accounting (user map time vs. emit overhead vs. profiling overhead).
// None of that accounting is paid per record: the user/emit/profile split
// is attributed by the sampled EmitTimer, and records are counted in plain
// fields the map goroutine owns, published to the task's metrics at spill
// boundaries and at every exit of the task.
type mapCollector struct {
	job   *Job
	tm    *metrics.TaskMetrics
	et    *metrics.EmitTimer
	buf   *spillbuf.Buffer
	freq  *freqbuf.Buffer
	cache *freqbuf.Cache // node cache for top-k sharing (nil if disabled)

	scanner   *blockScanner // the task's input scanner (for record-count extrapolation)
	emitted   int64         // records emitted so far
	published bool
	sp        spanner     // freq-buffer eviction instants
	plan      *chaos.Plan // nil when chaos is off: the guard below is the whole cost

	// freqCombine times the combiner calls made inside the frequency
	// buffer. Its sampler is switched per call site: every call inside a
	// sampled record's Offer, the default schedule during Drain, none
	// (nil) inside an unsampled record's Offer.
	freqCombine *combineTimer
	everyCall   metrics.Sampler

	// Counts since the last publish (of emitted, the part published so
	// far), and the spill hand-offs seen then.
	inRecords, emittedPublished, outBytes, freqHits, freqEvictions int64
	handoffs                                                       int64
}

// Collect implements Collector.
func (mc *mapCollector) Collect(key, value []byte) error {
	mc.et.BeforeEmit()
	err := mc.emit(key, value)
	mc.et.AfterEmit()
	return err
}

func (mc *mapCollector) emit(key, value []byte) error {
	if mc.plan != nil {
		if err := mc.plan.Check(chaos.SiteEmit); err != nil {
			return err
		}
	}
	part, err := mc.job.partitionOf(key)
	if err != nil {
		return err
	}
	mc.emitted++
	mc.outBytes += spillbuf.RecordBytes(key, value)
	if mc.freq != nil {
		absorbed, err := mc.offer(part, key, value)
		if absorbed || err != nil {
			return err
		}
	}
	return mc.append(part, key, value)
}

// partitionOf applies the job's partitioner and refuses an answer outside
// [0, NumReducers) where it is made, naming the key: left alone it would
// surface a spill later as a run-ordering error from the support
// goroutine, or index past the sort's per-partition table.
func (j *Job) partitionOf(key []byte) (int, error) {
	part := j.Partition(key, j.NumReducers)
	if uint(part) >= uint(j.NumReducers) {
		return 0, fmt.Errorf("mr: partitioner returned %d for key %q: want a partition in [0, %d)", part, key, j.NumReducers)
	}
	return part, nil
}

// offer passes one record through the frequency-buffer intercept and
// sends what the table evicted down the spill path. The intercept is
// timed on the records the EmitTimer samples, with the same weight: its
// span less the combiner calls inside it is OpProfile, those calls are
// OpCombineUser, and the whole span is excluded from the emit measurement
// that surrounds it.
func (mc *mapCollector) offer(part int, key, value []byte) (absorbed bool, err error) {
	var overflow []kvio.Record
	if w := mc.et.Weight(); w == 0 {
		absorbed, overflow, err = mc.freq.Offer(part, key, value)
	} else {
		mc.freqCombine.sampleWith(&mc.everyCall)
		t0 := mc.tm.Now()
		absorbed, overflow, err = mc.freq.Offer(part, key, value)
		span := mc.tm.Now().Sub(t0)
		mc.freqCombine.sampleWith(nil)
		combine := mc.freqCombine.take(span)
		mc.tm.Add(metrics.OpProfile, time.Duration(w)*(span-combine))
		mc.tm.Add(metrics.OpCombineUser, time.Duration(w)*combine)
		mc.et.Exclude(span)
	}
	if err != nil {
		return false, err
	}
	if absorbed {
		mc.freqHits++
	}
	if !mc.published && mc.cache != nil && mc.freq.Stage() == freqbuf.StageOptimize {
		// Keyed by the run-unique file prefix, not the job name: top-k
		// sharing is a within-run optimization, and a name-keyed entry
		// would leak one run's key profile into the next run (or into a
		// concurrent same-named job) on a long-lived cluster.
		mc.cache.Put(mc.job.filePrefix, mc.freq.TopK())
		mc.published = true
	}
	if len(overflow) > 0 {
		mc.sp.tr.Instant(trace.KindFreqEviction, trace.LaneMap, mc.sp.node, mc.sp.task, int64(len(overflow)))
		mc.freqEvictions += int64(len(overflow))
	}
	for _, r := range overflow {
		if err := mc.append(r.Part, r.Key, r.Value); err != nil {
			return false, err
		}
	}
	return absorbed, nil
}

// append sends one record down the standard spill path, excluding any
// buffer-full block time from the emit accounting (it is already counted
// as map-thread idle time).
func (mc *mapCollector) append(part int, key, value []byte) error {
	waited, err := mc.buf.Append(part, key, value)
	mc.et.Exclude(waited)
	return err
}

// appendDrained sends the frequency buffer's end-of-input aggregates down
// the standard spill path, like the evictions before them, and returns the
// time spent blocked on a full buffer. A record carrying an out-of-range
// partition is a routing bug upstream (it would silently land in the wrong
// reducer's output), so it fails the task instead of being coerced
// somewhere plausible.
func (mc *mapCollector) appendDrained(recs []kvio.Record) (blocked time.Duration, err error) {
	parts := mc.job.NumReducers
	for _, r := range recs {
		if r.Part < 0 || r.Part >= parts {
			return blocked, fmt.Errorf("mr: drained record key %q routed to partition %d (have %d partitions)", r.Key, r.Part, parts)
		}
		waited, err := mc.buf.Append(r.Part, r.Key, r.Value)
		blocked += waited
		if err != nil {
			return blocked, err
		}
	}
	return blocked, nil
}

// publish moves the record counts accumulated since the last publish into
// the task's metrics, one lock acquisition for the batch. The map loop
// calls it when it notices a spill hand-off, and every exit of the task
// calls it before the counters are read back.
func (mc *mapCollector) publish() {
	batch := [5]metrics.Count{
		{Name: metrics.CtrMapInputRecords, Delta: mc.inRecords},
		{Name: metrics.CtrMapOutputRecords, Delta: mc.emitted - mc.emittedPublished},
		{Name: metrics.CtrMapOutputBytes, Delta: mc.outBytes},
		{Name: metrics.CtrFreqHits, Delta: mc.freqHits},
		{Name: metrics.CtrFreqEvictions, Delta: mc.freqEvictions},
	}
	n := 3 // the frequency-buffer counters exist only on tasks that have one
	if mc.freq != nil {
		n = 5
	}
	mc.tm.Publish(batch[:n]...)
	mc.emittedPublished = mc.emitted
	mc.inRecords, mc.outBytes, mc.freqHits, mc.freqEvictions = 0, 0, 0, 0
}

// finish attributes trailing user time (input lines that emitted nothing).
func (mc *mapCollector) finish() {
	mc.et.Finish()
}

// spillScratch is the memory the support goroutine reuses from one spill
// to the next: the sort kernel's scratch and the slice a group's values
// are gathered in for the combiner.
type spillScratch struct {
	sorter kvio.Sorter
	vals   [][]byte
}

// writeSpillRun turns one spill into a sorted, partitioned run on the node
// disk and returns the run index. The support goroutine calls it once per
// spill, each time with its scratch. The spill arrives filed by partition,
// so the sort works inside each partition and the write walks them in
// order. combine, nil for a job without a combiner, times a sample of the
// combiner calls; the rest of the write span is spill I/O.
func writeSpillRun(disk vdisk.Disk, name string, parts int, region kvio.Region, scratch *spillScratch, job *Job, combine *combineTimer, tm *metrics.TaskMetrics, sp spanner) (kvio.RunIndex, error) {
	t0 := tm.Now()
	sortSpan := sp.start(trace.KindSort, trace.LaneSupport)
	scratch.sorter.SortRegion(region)
	sortSpan.EndCounts(int64(region.Len()), int64(len(region.Arena)))
	t1 := tm.Now()
	tm.Add(metrics.OpSort, t1.Sub(t0))

	rw, err := kvio.NewRunSink(disk, name, parts, job.CompressRuns)
	if err != nil {
		return kvio.RunIndex{}, err
	}
	var combineIn, combineOut int64
	// One closure for the whole spill: it reads the partition being written
	// from part.
	part := 0
	emit := func(k, v []byte) error {
		combineOut++
		return rw.Append(part, k, v)
	}
	for part = range region.Parts {
		recs := region.Part(part)
		debugAssertSortedPacked(recs, name)
		n := recs.Len()
		for i := 0; i < n; {
			j := i + 1
			for j < n && recs.KeyEqual(i, j) {
				j++
			}
			if combine == nil || j-i == 1 {
				for k := i; k < j; k++ {
					if err := rw.Append(part, recs.Key(k), recs.Value(k)); err != nil {
						return kvio.RunIndex{}, err
					}
				}
			} else {
				scratch.vals = scratch.vals[:0]
				for k := i; k < j; k++ {
					scratch.vals = append(scratch.vals, recs.Value(k))
				}
				combineIn += int64(j - i)
				if err := combine.call(recs.Key(i), scratch.vals, emit); err != nil {
					return kvio.RunIndex{}, fmt.Errorf("mr: combine during spill: %w", err)
				}
			}
			i = j
		}
	}
	idx, err := rw.Close()
	if err != nil {
		return kvio.RunIndex{}, err
	}
	// Combine runs interleaved with the spill write; its span is the
	// estimated user-combine duration anchored at the write start.
	writeSpan := tm.Now().Sub(t1)
	combineDur := combine.take(writeSpan)
	sp.tr.Complete(trace.KindCombine, trace.LaneSupport, sp.node, sp.task, sp.slot, t1, combineDur)
	tm.Add(metrics.OpCombineUser, combineDur)
	tm.Add(metrics.OpSpillIO, writeSpan-combineDur)
	tm.Publish(
		metrics.Count{Name: metrics.CtrSpillRecords, Delta: idx.TotalRecords()},
		metrics.Count{Name: metrics.CtrSpillBytes, Delta: idx.TotalBytes()},
		metrics.Count{Name: metrics.CtrSpillCount, Delta: 1},
		metrics.Count{Name: metrics.CtrCombineInRecords, Delta: combineIn},
		metrics.Count{Name: metrics.CtrCombineOutRecords, Delta: combineOut},
	)
	return idx, nil
}

// runMapTask executes one attempt of a map task on the given node: the
// map goroutine reads the split and applies map(); the support goroutine
// sorts, combines and spills; the attempt ends with the merge of all spill
// runs into one partitioned output run, written under the attempt's temp
// namespace. The returned created list names the attempt's surviving files
// (on success, just the uncommitted output run) so the runner can
// commit-by-rename or sweep. tm is the attempt's fresh metrics; every
// stopwatch of the attempt reads its clock.
func runMapTask(c *cluster.Cluster, job *Job, tm *metrics.TaskMetrics, taskIdx int, split Split, node, slot, attempt int, plan *chaos.Plan) (mo mapOutput, report TaskReport, created []string, err error) {
	if plan != nil {
		if d := plan.Delay(); d > 0 {
			time.Sleep(d) // manufactured straggler
		}
	}
	start := tm.Now()
	disk := c.Disks[node]
	dir := attemptDir(job.filePrefix, taskIdx, attempt)
	report = TaskReport{Kind: "map", Index: taskIdx, Node: node}
	sp := spanner{tr: job.Trace, node: node, task: taskIdx, slot: slot, attempt: attempt}
	taskSpan := sp.start(trace.KindMapTask, trace.LaneMap)
	endTaskSpan := func() {
		taskSpan.EndCounts(tm.Counter(metrics.CtrMapOutputRecords), tm.Counter(metrics.CtrMapOutputBytes))
	}
	mc := &mapCollector{
		job:       job,
		tm:        tm,
		et:        metrics.NewEmitTimer(tm, metrics.DefaultEmitWarmup, metrics.DefaultEmitPeriod),
		sp:        sp,
		plan:      plan,
		everyCall: metrics.NewSampler(0, 1),
	}
	// finishReport closes the attempt's accounts on every exit: what the
	// map goroutine counted since the last spill boundary is published
	// before the counters are read back.
	finishReport := func() {
		mc.publish()
		report.Wall = tm.Now().Sub(start)
		report.Metrics = tm.Snapshot()
		endTaskSpan()
	}
	fail := func(err error) (mapOutput, TaskReport, []string, error) {
		finishReport()
		return mapOutput{}, report, created, fmt.Errorf("mr: map task %d attempt %d (node %d): %w", taskIdx, attempt, node, err)
	}

	// Memory budget: frequency-buffering carves its table out of the spill
	// buffer so total memory stays constant (§V-B2).
	bufBytes := job.SpillBufferBytes
	var freq *freqbuf.Buffer
	var cache *freqbuf.Cache

	ctrl := job.newController()
	if job.FreqBuf != nil {
		fb := job.FreqBuf
		tableBytes := int64(float64(bufBytes) * fb.MemFraction)
		bufBytes -= tableBytes

		mc.freqCombine = newCombineTimer(job.Combine, tm)
		mc.freqCombine.sampleWith(nil) // offer and the drain below switch it on
		// The scanner is created after the freq buffer; the estimator
		// reads it through the collector, which is bound below.
		expected := func() int64 {
			if mc.scanner == nil {
				return 1 << 20
			}
			consumed := mc.scanner.Consumed()
			if consumed <= 0 || mc.emitted == 0 {
				return 1 << 20
			}
			return int64(float64(mc.emitted)/float64(consumed)*float64(split.Len)) + 1
		}
		var err error
		freq, err = freqbuf.New(freqbuf.Config{
			K:               fb.K,
			MemoryBytes:     tableBytes,
			SampleFraction:  fb.SampleFraction,
			ValuesPerKeyCap: fb.ValuesPerKeyCap,
			ExpectedRecords: expected,
		}, mc.freqCombine.fn())
		if err != nil {
			return fail(err)
		}
		if fb.ShareTopK {
			cache = c.FreqCaches[node]
			if keys, ok := cache.Get(job.filePrefix); ok {
				var partErr error
				freq.InstallTopK(keys, func(k []byte) int {
					part, err := job.partitionOf(k)
					if err != nil {
						partErr = err
					}
					return part
				})
				if partErr != nil {
					return fail(partErr)
				}
			}
		}
		mc.freq = freq
		mc.cache = cache
	}

	buf, err := spillbuf.New(bufBytes, ctrl, tm)
	if err != nil {
		return fail(err)
	}
	buf.AttachTrace(job.Trace, node, taskIdx, slot)
	buf.AttachPool(c.SpillRegions)
	mc.buf = buf

	// Support goroutine: consume spills. It appends to runs and created;
	// both are read only after the goroutine is joined via supportErr.
	var runs []kvio.RunIndex
	supportErr := make(chan error, 1)
	spillCombine := newCombineTimer(job.Combine, tm)
	var scratch spillScratch
	// consume writes one spill as a run. Whatever happens to it, a panic in
	// the combiner included, the spill is released: its region goes back to
	// the cluster's pool and its bytes stop counting against the buffer.
	consume := func(spill spillbuf.Spill) (err error) {
		consumeStart := tm.Now()
		defer func() {
			if r := recover(); r != nil {
				err = panicError(r)
			}
			buf.Release(spill, tm.Now().Sub(consumeStart))
		}()
		debugAssert(spill.Seq == len(runs), "spill sequence mismatch: buffer handed seq %d, support expected %d", spill.Seq, len(runs))
		if plan != nil {
			if err := plan.Check(chaos.SiteSpillWrite); err != nil {
				return err
			}
		}
		spillSpan := sp.start(trace.KindSpill, trace.LaneSupport)
		name := attemptSpillName(dir, spill.Seq)
		created = append(created, name)
		idx, err := writeSpillRun(disk, name, job.NumReducers, spill.Recs, &scratch, job, spillCombine, tm, sp)
		spillSpan.EndCounts(int64(spill.Recs.Len()), spill.Bytes)
		if err != nil {
			return err
		}
		runs = append(runs, idx)
		return nil
	}
	go func() {
		for {
			spill, ok := buf.NextSpill()
			if !ok {
				supportErr <- nil
				return
			}
			if err := consume(spill); err != nil {
				// Aborting unblocks a producer waiting for buffer space it
				// would otherwise wait on forever; its ErrClosed is
				// superseded at the join.
				buf.Abort()
				supportErr <- err
				return
			}
		}
	}()
	// A panic in user code on this goroutine — map(), the partitioner, a
	// combiner call of the frequency buffer or of the final merge — fails
	// the attempt like any other error, once the support goroutine, if it
	// is still running, has been told the input is over and has finished.
	supportRunning := true
	joinSupport := func() error {
		supportRunning = false
		return <-supportErr
	}
	defer func() {
		if r := recover(); r != nil {
			perr := panicError(r)
			if supportRunning {
				buf.Close()
				<-supportErr
			}
			mo, report, created, err = fail(perr)
		}
	}()

	// Map goroutine: read the split and apply map().
	scanner, err := openBlockLines(c.FS, split, node, int(job.IngestChunkBytes))
	if err != nil {
		buf.Close()
		return fail(errors.Join(err, joinSupport()))
	}
	mc.scanner = scanner
	mapper := job.NewMapper()
	mc.et.Restart()
	var mapErr error
	for {
		if job.cancel.Load() {
			mapErr = errJobCanceled
			break
		}
		if plan != nil {
			if err := plan.Check(chaos.SiteRecordRead); err != nil {
				mapErr = err
				break
			}
		}
		off, line, ok, err := scanner.Next()
		if err != nil {
			mapErr = err
			break
		}
		if !ok {
			break
		}
		mc.inRecords++
		if h := buf.Handoffs(); h != mc.handoffs {
			mc.handoffs = h
			mc.publish() // a spill boundary passed: make the counts visible
		}
		if err := mapper.Map(off, line, mc); err != nil {
			mapErr = fmt.Errorf("map(): %w", err)
			break
		}
	}
	mc.finish()
	if cerr := scanner.Close(); cerr != nil && mapErr == nil {
		mapErr = fmt.Errorf("closing input split: %w", cerr)
	}

	// Drain the frequency buffer: its aggregates are ordinary map output,
	// sorted, combined and spilled with the task's last region. Time blocked
	// on a full buffer is map-goroutine idle time, not drain time.
	if freq != nil && mapErr == nil {
		drainSampler := metrics.DefaultSampler()
		mc.freqCombine.sampleWith(&drainSampler)
		t0 := tm.Now()
		drained, err := freq.Drain()
		var blocked time.Duration
		if err == nil {
			blocked, err = mc.appendDrained(drained)
		}
		span := tm.Now().Sub(t0) - blocked
		combine := mc.freqCombine.take(span)
		tm.Add(metrics.OpProfile, span-combine)
		tm.Add(metrics.OpCombineUser, combine)
		if err != nil {
			mapErr = err
		}
		report.FreqStats = freq.Stats()
		tm.Inc(metrics.CtrFreqMisses, report.FreqStats.Misses)
		tm.Inc(metrics.CtrFreqProfiled, report.FreqStats.Profiled)
	}

	buf.Close()
	// The support goroutine's error wins over a map-side ErrClosed: when the
	// consumer dies it aborts the buffer, so the producer's failure is just
	// the echo of the support failure.
	if err := joinSupport(); err != nil && (mapErr == nil || errors.Is(mapErr, spillbuf.ErrClosed)) {
		mapErr = fmt.Errorf("support thread: %w", err)
	}
	if mapErr != nil {
		return fail(mapErr)
	}

	outName := attemptMapOutName(dir)
	report.Spill = buf.Stats()
	if len(runs) == 1 {
		// One run and nothing to merge it with: the run is the output. It
		// is charged as merge output, which it stands in for, but no merge
		// ran, so none is timed.
		if plan != nil {
			if err := plan.Check(chaos.SiteMerge); err != nil {
				return fail(err)
			}
		}
		if err := disk.Rename(runs[0].Name, outName); err != nil {
			return fail(err)
		}
		outIdx := runs[0]
		outIdx.Name = outName
		tm.Inc(metrics.CtrMergeBytes, outIdx.TotalBytes())
		finishReport()
		return mapOutput{node: node, index: outIdx}, report, []string{outName}, nil
	}

	// Merge all spill runs into the attempt's partitioned output run; the
	// runner commits the winning attempt by renaming it to the canonical
	// map-output name.
	created = append(created, outName)
	out, err := kvio.NewRunSink(disk, outName, job.NumReducers, job.CompressRuns)
	if err != nil {
		return fail(err)
	}
	outIdx, err := mergeSpillRuns(job, disk, runs, out, plan, tm, sp)
	if err != nil {
		return fail(err)
	}
	tm.Inc(metrics.CtrMergeBytes, outIdx.TotalBytes())

	// Spill files are no longer needed. Removal is best-effort cleanup:
	// failures are counted, not fatal.
	for _, run := range runs {
		if err := disk.Remove(run.Name); err != nil {
			tm.Inc(metrics.CtrCleanupErrors, 1)
		}
	}

	finishReport()
	// The spills are gone; the only surviving attempt file is the output
	// run, which the runner either commits or sweeps.
	return mapOutput{node: node, index: outIdx}, report, []string{outName}, nil
}

// mergeSpillRuns merges the attempt's spill runs into out, partition by
// partition, and closes out. Each run file is opened once and read front to
// back, because its partitions lie in it in the order the loop asks for
// them: k runs cost k disk opens, whatever the number of partitions. Every
// exit — success, cancellation, an injected merge fault, a stream or sink
// error, a panic in the combiner — closes the run files and ends the merge
// span.
func mergeSpillRuns(job *Job, disk vdisk.Disk, runs []kvio.RunIndex, out kvio.RunSink, plan *chaos.Plan, tm *metrics.TaskMetrics, sp spanner) (outIdx kvio.RunIndex, err error) {
	mergeSpan := sp.start(trace.KindMerge, trace.LaneMap)
	defer func() { mergeSpan.EndCounts(outIdx.TotalRecords(), outIdx.TotalBytes()) }()
	cursors := make([]*kvio.RunCursor, 0, len(runs))
	defer func() {
		for _, c := range cursors {
			if cerr := c.Close(); cerr != nil {
				tm.Inc(metrics.CtrCleanupErrors, 1)
			}
		}
	}()
	t0 := tm.Now()
	for _, run := range runs {
		c, err := kvio.OpenRun(disk, run)
		if err != nil {
			return kvio.RunIndex{}, err
		}
		cursors = append(cursors, c)
	}
	tm.Add(metrics.OpMerge, tm.Now().Sub(t0))

	mergeCombine := newCombineTimer(job.Combine, tm)
	mergeCombineFn := mergeCombine.fn()
	streams := make([]kvio.Stream, 0, len(cursors))
	for p := 0; p < job.NumReducers; p++ {
		if job.cancel.Load() {
			return kvio.RunIndex{}, errJobCanceled
		}
		if plan != nil {
			if err := plan.Check(chaos.SiteMerge); err != nil {
				return kvio.RunIndex{}, err
			}
		}
		t0 := tm.Now()
		streams = streams[:0]
		for _, c := range cursors {
			s, err := c.Part(p)
			if err != nil {
				return kvio.RunIndex{}, err
			}
			streams = append(streams, s)
		}
		if _, _, err := kvio.MergeInto(streams, p, out, mergeCombineFn); err != nil {
			return kvio.RunIndex{}, err
		}
		span := tm.Now().Sub(t0)
		combine := mergeCombine.take(span)
		tm.Add(metrics.OpMerge, span-combine)
		tm.Add(metrics.OpCombineUser, combine)
	}
	return out.Close()
}
