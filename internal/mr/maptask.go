package mr

import (
	"bufio"
	"errors"
	"fmt"
	"math"
	"runtime/debug"
	"time"

	"mrtext/internal/chaos"
	"mrtext/internal/cluster"
	"mrtext/internal/core/freqbuf"
	"mrtext/internal/kvio"
	"mrtext/internal/metrics"
	"mrtext/internal/serde"
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

// mapOutput locates one finished map task's output: its spill runs, in
// spill order, on the node that wrote them. The runs are the output as
// they were spilled; no map-side merge joins them into one file.
type mapOutput struct {
	node int
	runs []kvio.RunIndex
}

// files names the output's run files.
func (mo mapOutput) files() []string {
	names := make([]string, len(mo.runs))
	for i, run := range mo.runs {
		names[i] = run.Name
	}
	return names
}

// combineTimer times one call site's combine calls for a task — or, for a
// declared kvio.SumInt64, the kernel stretches that stand in for them. It
// times the calls its sampler picks, each with the weight of the untimed
// calls it stands for, and accumulates the extrapolated duration; the call
// site measures one span around many calls and takes the estimate out of
// it, so user combine() time and the framework time around it still sum
// to the measured span.
//
// A timed call's own clock readings are framework time the untimed calls
// do not have: each pair of readings that bounds a stretch of the call
// adds the cost of one reading to it, and the weight would multiply that
// cost by up to the sample period. So before weighting, the timer takes
// out one reading's cost per stretch — the least gap between two readings
// in a row it has seen, which Begin measures on every timed call.
type combineTimer struct {
	tm   *metrics.TaskMetrics
	s    metrics.Sampler
	w    int64         // the open timed call's weight
	t0   time.Time     // and its start
	out  time.Duration // and the framework time inside it (Exclude)
	gaps int64         // and the stretches Exclude cut it into, less one
	read time.Duration // the least cost of one clock reading seen
	acc  time.Duration
}

// newCombineTimer returns a timer on sample schedule s.
func newCombineTimer(s metrics.Sampler, tm *metrics.TaskMetrics) *combineTimer {
	return &combineTimer{tm: tm, s: s, read: math.MaxInt64}
}

// Begin implements kvio.CombineTimer: it reads the clock only for a
// sampled call, twice in a row.
func (ct *combineTimer) Begin() bool {
	if ct.w = ct.s.Sample(); ct.w == 0 {
		return false
	}
	t := ct.tm.Now()
	ct.t0, ct.out, ct.gaps = ct.tm.Now(), 0, 0
	ct.read = min(ct.read, ct.t0.Sub(t))
	return true
}

// End implements kvio.CombineTimer.
func (ct *combineTimer) End() {
	d := ct.tm.Now().Sub(ct.t0) - ct.out - time.Duration(1+ct.gaps)*ct.read
	ct.acc += time.Duration(ct.w) * d
}

// Exclude takes d, framework work the open timed call ran from inside it
// and timed with a pair of clock readings, out of that call's time before
// the weight multiplies it.
func (ct *combineTimer) Exclude(d time.Duration) {
	ct.out += d
	ct.gaps++
}

// take returns the combine time estimated since the last take, within [0,
// span] (an extrapolation may overshoot the span that contains it, or, with
// the readings' cost taken out, fall below zero), and resets it.
func (ct *combineTimer) take(span time.Duration) time.Duration {
	est := min(max(ct.acc, 0), span)
	ct.acc = 0
	return est
}

// mapCollector is the Collector handed to user map() code. It implements
// the full map-side emit path: partitioning, the frequency-buffering
// intercept, and the spill-buffer append, with the paper's operation
// accounting (user map time vs. emit overhead vs. profiling overhead).
// None of that accounting is paid per record: the map loop times the
// lines its sampler picks, inside which the collector times each emit and
// the intercept, and records are counted in plain fields the map goroutine
// owns, published to the task's metrics at every exit of the task.
type mapCollector struct {
	job   *Job
	tm    *metrics.TaskMetrics
	buf   *spillbuf.Buffer
	freq  *freqbuf.Buffer
	cache *freqbuf.Cache // node cache for top-k sharing (nil without frequency-buffering)

	scanner   *blockScanner // the task's input scanner (for record-count extrapolation)
	emitted   int64         // records emitted so far
	published bool
	sp        spanner     // freq-buffer eviction instants
	plan      *chaos.Plan // nil when chaos is off: the guard below is the whole cost

	// freqCombine times every combiner call made inside an Offer of a
	// sampled line; the frequency buffer times none inside the others.
	freqCombine *combineTimer

	// The stopwatches of the line being mapped, which run only when the
	// map loop samples it: whole emits, and the intercept's profiling and
	// combiner calls inside them. waited is every buffer-full wait the
	// map loop's appends returned, sampled line or not.
	timed                   bool
	emits, profile, combine time.Duration
	waited                  time.Duration

	// Counts since the last publish (of emitted, the part published so
	// far).
	inRecords, emittedPublished, outBytes, freqHits, freqEvictions int64
}

// Collect implements Collector. It reads the clock only on a sampled
// line.
func (mc *mapCollector) Collect(key, value []byte) error {
	if !mc.timed {
		return mc.emit(key, value)
	}
	t0 := mc.tm.Now()
	err := mc.emit(key, value)
	mc.emits += mc.tm.Now().Sub(t0)
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
// sends what the table evicted down the spill path. On a sampled line the
// intercept is timed: its span less the combiner calls inside it is the
// line's profiling, those calls its combine, and the emit around it leaves
// the whole span out.
func (mc *mapCollector) offer(part int, key, value []byte) (absorbed bool, err error) {
	var overflow []kvio.Record
	if !mc.timed {
		absorbed, overflow, err = mc.freq.Offer(part, key, value)
	} else {
		mc.freq.TimeCombines(mc.freqCombine)
		t0 := mc.tm.Now()
		absorbed, overflow, err = mc.freq.Offer(part, key, value)
		span := mc.tm.Now().Sub(t0)
		mc.freq.TimeCombines(nil)
		combine := mc.freqCombine.take(span)
		mc.profile += span - combine
		mc.combine += combine
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

// append sends one record down the standard spill path and keeps the
// time it blocked on a full buffer, which the spill buffer has counted as
// map-goroutine idle time, out of the map loop's busy wall.
func (mc *mapCollector) append(part int, key, value []byte) error {
	waited, err := mc.buf.Append(part, key, value)
	mc.waited += waited
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
// the task's metrics, one lock acquisition for the batch. Every exit of the
// task calls it before the counters are read back.
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

// spillScratch is the memory the support goroutine reuses from one spill
// to the next: the sort kernel's scratch, the slice a group's values are
// gathered in for the combiner, a declared sum's encoded total, and the
// run files' write buffer.
type spillScratch struct {
	sorter kvio.Sorter
	vals   [][]byte
	total  []byte
	runBuf *bufio.Writer
}

// runBuffer returns the scratch's run write buffer, made on first use.
func (s *spillScratch) runBuffer() *bufio.Writer {
	if s.runBuf == nil {
		s.runBuf = kvio.NewRunBuffer()
	}
	return s.runBuf
}

// mapWorkspace is the working memory a map attempt reuses from the attempt
// before it on the cluster — the spill buffer's two regions, the input
// scanner with its arena, and the spill scratch — so that a task's
// collect, ingest and spill path allocate nothing a warm slot already
// has. An attempt takes one from the cluster's free list
// (cluster.MapWorkspaces) and returns it when it ends, however it ends;
// when a map phase ends the runner cuts the list with shrinkWorkspace.
type mapWorkspace struct {
	regions spillbuf.Regions
	scanner blockScanner
	scratch spillScratch
}

// shrinkWorkspace is the cut of a kept workspace at the end of a map
// phase: it drops the ingest arena and the spill scratch, which the reduce
// phase would carry for nothing, and keeps the spill regions, so that the
// next phase's task fills both without growing them. It reports whether a
// region is left: a workspace that holds none is not worth keeping.
func shrinkWorkspace(x any) bool {
	ws := x.(*mapWorkspace)
	ws.scanner, ws.scratch = blockScanner{}, spillScratch{}
	return cap(ws.regions[0].Arena) > 0 || cap(ws.regions[1].Arena) > 0
}

// takeWorkspace takes a workspace off c's free list, or makes one when the
// list is empty. The caller returns it with c.MapWorkspaces.Put.
func takeWorkspace(c *cluster.Cluster) *mapWorkspace {
	if ws, ok := c.MapWorkspaces.Get().(*mapWorkspace); ok {
		return ws
	}
	return new(mapWorkspace)
}

// sumRun is the spill writer's kernel for a declared kvio.SumInt64: it
// folds records [i, j) of recs, one key's run, where they lie in the
// region, and emits the total encoded into scratch.
func sumRun(recs kvio.PackedRecords, i, j int, scratch *spillScratch, emit func(k, v []byte) error) error {
	key := recs.Key(i)
	var total int64
	for k := i; k < j; k++ {
		var err error
		if total, err = kvio.AddInt64(total, key, recs.Value(k)); err != nil {
			return err
		}
	}
	scratch.total = serde.AppendInt64(scratch.total[:0], total)
	return emit(key, scratch.total)
}

// writeSpillRun turns one spill into a sorted, partitioned run on the node
// disk and returns the run index. The support goroutine calls it once per
// spill, each time with its scratch. The spill arrives filed by partition,
// so the sort works inside each partition and the write walks them in
// order. combine times a sample of the combiner calls, or for a declared
// kvio.SumInt64 of the runs the kernel folds in their place; the rest of the
// write span is spill I/O.
func writeSpillRun(disk vdisk.Disk, name string, parts int, region kvio.Region, scratch *spillScratch, job *Job, combine *combineTimer, tm *metrics.TaskMetrics, sp spanner) (kvio.RunIndex, error) {
	t0 := tm.Now()
	sortSpan := sp.start(trace.KindSort, trace.LaneSupport)
	scratch.sorter.SortRegion(region)
	sortSpan.EndCounts(int64(region.Len()), int64(len(region.Arena)))
	t1 := tm.Now()
	tm.Add(metrics.OpSort, t1.Sub(t0))

	rw, err := kvio.NewRunSinkBuffered(disk, name, parts, job.CompressRuns, scratch.runBuffer())
	if err != nil {
		return kvio.RunIndex{}, err
	}
	var combineIn, combineOut int64
	sum := kvio.IsSumInt64(job.Combine)
	// One closure for the whole spill: it reads the partition being written
	// from part. A timed call's appends are spill I/O, not combine time:
	// weighted by the call's sample weight, one slow append (a buffer
	// flush) would otherwise outweigh the whole write.
	part, timed := 0, false
	emit := func(k, v []byte) error {
		combineOut++
		if !timed {
			return rw.Append(part, k, v)
		}
		t := tm.Now()
		err := rw.Append(part, k, v)
		combine.Exclude(tm.Now().Sub(t))
		return err
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
			if job.Combine == nil || j-i == 1 {
				for k := i; k < j; k++ {
					if err := rw.Append(part, recs.Key(k), recs.Value(k)); err != nil {
						return kvio.RunIndex{}, err
					}
				}
				i = j
				continue
			}
			combineIn += int64(j - i)
			// Gather before the timed stretch: the sampled estimate
			// weights only the combine call, not framework work.
			if !sum {
				scratch.vals = scratch.vals[:0]
				for k := i; k < j; k++ {
					scratch.vals = append(scratch.vals, recs.Value(k))
				}
			}
			timed = combine.Begin()
			if sum {
				err = sumRun(recs, i, j, scratch, emit)
			} else {
				err = job.Combine(recs.Key(i), scratch.vals, emit)
			}
			if timed {
				combine.End()
				timed = false
			}
			if err != nil {
				return kvio.RunIndex{}, fmt.Errorf("mr: combine during spill: %w", err)
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
// sorts, combines and spills, each spill one sorted, partitioned run under
// the attempt's temp namespace. The runs, in spill order, are the output:
// no merge joins them. The returned created list names the attempt's
// files — on success, its runs — so the runner can commit them or sweep
// them. publish, when not nil, is handed each run as soon as the support
// goroutine has written it, before the attempt commits. tm is the
// attempt's fresh metrics; every stopwatch of the attempt reads its clock.
func runMapTask(c *cluster.Cluster, job *Job, tm *metrics.TaskMetrics, taskIdx int, split Split, node, slot, attempt int, plan *chaos.Plan, publish func(kvio.RunIndex)) (mo mapOutput, report TaskReport, created []string, err error) {
	if plan != nil {
		if d := plan.Delay(); d > 0 {
			time.Sleep(d) // manufactured straggler
		}
	}
	start := tm.Now()
	// Returned last, after the recovery below has joined the support
	// goroutine on a panic: nothing of the attempt's touches it any more.
	ws := takeWorkspace(c)
	defer c.MapWorkspaces.Put(ws)
	disk := c.Disks[node]
	dir := attemptDir(job.filePrefix, taskIdx, attempt)
	report = TaskReport{Kind: "map", Index: taskIdx, Node: node}
	sp := spanner{tr: job.Trace, node: node, task: taskIdx, slot: slot, attempt: attempt}
	taskSpan := sp.start(trace.KindMapTask, trace.LaneMap)
	endTaskSpan := func() {
		taskSpan.EndCounts(tm.Counter(metrics.CtrMapOutputRecords), tm.Counter(metrics.CtrMapOutputBytes))
	}
	mc := &mapCollector{
		job:  job,
		tm:   tm,
		sp:   sp,
		plan: plan,
	}
	// finishReport closes the attempt's accounts on every exit: what the
	// map goroutine counted is published before the counters are read
	// back.
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

	ctrl := job.newController()
	if job.FreqBuf != nil {
		fb := job.FreqBuf
		tableBytes := int64(float64(bufBytes) * fb.MemFraction)
		bufBytes -= tableBytes

		mc.freqCombine = newCombineTimer(metrics.NewSampler(0, 1), tm)
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
		}, job.Combine)
		if err != nil {
			return fail(err)
		}
		mc.cache = c.FreqCaches[node]
		if keys, ok := mc.cache.Get(job.filePrefix); ok {
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
		mc.freq = freq
	}

	buf, err := spillbuf.NewOn(&ws.regions, bufBytes, ctrl, tm)
	if err != nil {
		return fail(err)
	}
	buf.AttachTrace(job.Trace, node, taskIdx, slot)
	mc.buf = buf

	// Support goroutine: consume spills. It appends to runs and created;
	// both are read only after the goroutine is joined via supportErr.
	var runs []kvio.RunIndex
	supportErr := make(chan error, 1)
	spillCombine := newCombineTimer(metrics.DefaultSampler(), tm)
	scratch := &ws.scratch
	// consume writes one spill as a run. Whatever happens to it, a panic in
	// the combiner included, the spill is released: its region goes back to
	// the workspace and its bytes stop counting against the buffer.
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
		idx, err := writeSpillRun(disk, name, job.NumReducers, spill.Recs, scratch, job, spillCombine, tm, sp)
		spillSpan.EndCounts(int64(spill.Recs.Len()), spill.Bytes)
		if err != nil {
			return err
		}
		runs = append(runs, idx)
		if publish != nil {
			publish(idx)
		}
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
	// combiner call of the frequency buffer — fails the attempt like any
	// other error, once the support goroutine, if it is still running, has
	// been told the input is over and has finished.
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
	scanner, err := openBlockLines(c.FS, split, node, int(job.IngestChunkBytes), &ws.scanner)
	if err != nil {
		buf.Close()
		return fail(errors.Join(err, joinSupport()))
	}
	mc.scanner = scanner
	if freq == nil {
		// The frequency buffer's drain comes after the input: a task with
		// one keeps its second region the size of its first.
		buf.AttachInput(scanner.Consumed, split.Len)
	}
	mapper := job.NewMapper()

	// The loop is timed per sampled line, as the reduce loop is per sampled
	// group: only there do the ingest and map() call, each emit and the
	// frequency-buffer intercept read the clock, and each such line stands
	// for the untimed ones since the previous sample. Ingest counts as user
	// map time. The extrapolated user/emit/profile/combine split is then
	// scaled to the loop's busy wall — its measured wall less the
	// buffer-full waits, which are map-goroutine idle time — so the four
	// and those waits sum to the loop's wall exactly.
	sampler := metrics.DefaultSampler()
	var est [4]time.Duration // user, emit, profile, combine
	var mapErr error
	loopStart := tm.Now()
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
		w := time.Duration(sampler.Sample())
		mc.timed = w > 0
		var t0 time.Time
		var waited0 time.Duration
		if mc.timed {
			mc.emits, mc.profile, mc.combine, waited0 = 0, 0, 0, mc.waited
			t0 = tm.Now()
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
		if err := mapper.Map(off, line, mc); err != nil {
			mapErr = fmt.Errorf("map(): %w", err)
			break
		}
		if mc.timed {
			total := tm.Now().Sub(t0)
			est[0] += w * (total - mc.emits)
			est[1] += w * (mc.emits - mc.profile - mc.combine - (mc.waited - waited0))
			est[2] += w * mc.profile
			est[3] += w * mc.combine
		}
	}
	metrics.ScaleTo(tm.Now().Sub(loopStart)-mc.waited, est[:])
	tm.Add(metrics.OpMapUser, est[0])
	tm.Add(metrics.OpEmit, est[1])
	tm.Add(metrics.OpProfile, est[2])
	tm.Add(metrics.OpCombineUser, est[3])
	if cerr := scanner.Close(); cerr != nil && mapErr == nil {
		mapErr = fmt.Errorf("closing input split: %w", cerr)
	}

	// Drain the frequency buffer: its aggregates are ordinary map output,
	// sorted, combined and spilled with the task's last region. Time blocked
	// on a full buffer is map-goroutine idle time, not drain time.
	if freq != nil && mapErr == nil {
		drainCombine := newCombineTimer(metrics.DefaultSampler(), tm)
		freq.TimeCombines(drainCombine)
		t0 := tm.Now()
		drained, err := freq.Drain()
		var blocked time.Duration
		if err == nil {
			blocked, err = mc.appendDrained(drained)
		}
		span := tm.Now().Sub(t0) - blocked
		combine := drainCombine.take(span)
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

	// Publication: the runs are the output. SiteMerge, where the map-side
	// merge stood, is the attempt's last fault point.
	if plan != nil {
		if err := plan.Check(chaos.SiteMerge); err != nil {
			return fail(err)
		}
	}
	report.Spill = buf.Stats()
	finishReport()
	return mapOutput{node: node, runs: runs}, report, created, nil
}
