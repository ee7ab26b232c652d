package mr

import (
	"bufio"
	"errors"
	"fmt"
	"sync"
	"time"

	"mrtext/internal/chaos"
	"mrtext/internal/cluster"
	"mrtext/internal/kvio"
	"mrtext/internal/metrics"
	"mrtext/internal/serde"
	"mrtext/internal/trace"
	"mrtext/internal/vdisk"
)

// shuffleEnv is the pipelined shuffle as a reduce attempt sees it: the
// staging service to take segments from, plus the runner's lost-map-output
// recovery exposed so an attempt that catches a source node's death
// mid-fetch can refresh its snapshot and refetch instead of failing.
type shuffleEnv struct {
	svc        *shuffleService
	resnapshot func() []mapOutput
}

// maxFetchRetries bounds, per source, both absorbed injected shuffle-fetch
// faults and post-recovery refetches within one reduce attempt.
const maxFetchRetries = 4

// fetchConcurrent is the pipelined-shuffle fetch: a pool of workers (the
// attempt-side face of the copier fan-out) resolves every run of every map
// output, each either from the staging service or by direct fetch. The
// streams come back ordered by map task and, within a map output, by spill
// — the order in which the merge's tiebreak keeps each key's values as a
// map-side merge of the runs would have, and with it byte-identical output
// — regardless of completion order. An empty segment gets no stream.
func fetchConcurrent(c *cluster.Cluster, job *Job, sh *shuffleEnv, part, node int, plan *chaos.Plan, mapOuts []mapOutput, acct *reduceAccount, sp spanner) ([]kvio.Stream, error) {
	perMap := make([][]kvio.Stream, len(mapOuts))
	var (
		wg       sync.WaitGroup
		errMu    sync.Mutex
		firstErr error
	)
	idxCh := make(chan int)
	for w := 0; w < min(copiersPerPartition, len(mapOuts)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idxCh {
				sts, err := fetchOne(c, job, sh, part, node, plan, i, mapOuts[i], acct, sp)
				if err != nil {
					errMu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					errMu.Unlock()
					continue
				}
				perMap[i] = sts
			}
		}()
	}
	for i := range mapOuts {
		idxCh <- i
	}
	close(idxCh)
	wg.Wait()
	var streams []kvio.Stream
	for _, sts := range perMap {
		streams = append(streams, sts...)
	}
	if firstErr != nil {
		return nil, errors.Join(firstErr, closeStreams(streams))
	}
	return streams, nil
}

// closeStreams closes every stream, joining their errors.
func closeStreams(streams []kvio.Stream) error {
	var errs []error
	for _, st := range streams {
		errs = append(errs, st.Close())
	}
	return errors.Join(errs...)
}

// fetchOne resolves partition part of map output i's runs for a reduce
// attempt. An injected fault at the fetch site is absorbed by bounded
// retry with the runner's jittered backoff — the attempt survives; only
// real node death reaches the caller. A source node found dead triggers
// in-attempt lost-map-output recovery and a refetch of every run from the
// refreshed snapshot: a re-run's runs are not the lost attempt's. The
// copier workers that call it touch only acct.tm, which is safe for
// concurrent use; the plain counts of acct belong to the reduce goroutine,
// which is the one that reads the returned streams.
func fetchOne(c *cluster.Cluster, job *Job, sh *shuffleEnv, part, node int, plan *chaos.Plan, i int, mo mapOutput, acct *reduceAccount, sp spanner) ([]kvio.Stream, error) {
	acquireStart := time.Now()
	for try := 0; ; try++ {
		if job.cancel.Load() {
			return nil, errJobCanceled
		}
		err := plan.Check(chaos.SiteShuffleFetch)
		if err == nil {
			break
		}
		if !errors.Is(err, chaos.ErrInjected) || try >= maxFetchRetries {
			return nil, err
		}
		sh.svc.noteRetry()
		t0 := time.Now()
		time.Sleep(backoffFor(i, try+1))
		slept := time.Since(t0)
		acct.tm.Inc(metrics.CtrShuffleRetryWaitNS, int64(slept))
		sp.tr.Complete(trace.KindWaitRetry, trace.LaneReduce, sp.node, sp.task, sp.slot, t0, slept)
	}
	for try := 0; ; try++ {
		streams, err := openRuns(c, sh, part, node, mo, acct, sp)
		if err == nil {
			sh.svc.tm.Observe(metrics.HistShuffleFetchNS, int64(time.Since(acquireStart)))
			return streams, nil
		}
		if !errors.Is(err, chaos.ErrNodeDead) || sh.resnapshot == nil || try >= maxFetchRetries {
			return nil, err
		}
		snap := sh.resnapshot()
		if i < len(snap) {
			mo = snap[i]
		}
	}
}

// openRuns opens partition part of each of mo's runs, in spill order: a
// staged segment from the staging service, any other by a positioned read
// of its run on the source disk. A direct-fetched segment's source→node
// hop is charged here whole, before the merge reads a record of it, as
// Hadoop's reduce copies a segment before merging it; a dead source thus
// fails the fetch, where fetchOne refetches. Once every run is open, the
// segments' run-index lengths — the bytes each took across the fabric, or
// read on the same node — are counted as the attempt's shuffle volume. On
// an error it closes what it opened.
func openRuns(c *cluster.Cluster, sh *shuffleEnv, part, node int, mo mapOutput, acct *reduceAccount, sp spanner) ([]kvio.Stream, error) {
	var (
		streams []kvio.Stream
		fetched int64
	)
	for _, run := range mo.runs {
		if part < len(run.Segments) && run.Segments[part].Len == 0 {
			continue
		}
		st, ok := sh.svc.take(part, run.Name, node, sp)
		if !ok {
			var err error
			if st, err = kvio.OpenRunPart(c.Disks[mo.node], run, part); err != nil {
				return nil, errors.Join(err, closeStreams(streams))
			}
			sh.svc.tm.Inc(metrics.CtrShuffleDirectFetches, 1)
			if err := sh.svc.hop(mo.node, node, run.Segments[part].Len, sp); err != nil {
				return nil, errors.Join(err, st.Close(), closeStreams(streams))
			}
		}
		streams = append(streams, st)
		fetched += run.Segments[part].Len
	}
	acct.tm.Inc(metrics.CtrShuffleBytes, fetched)
	return streams, nil
}

// reduceAccount is a reduce attempt's record-path accounting, owned by the
// reduce goroutine: plain counts of what passed since the last publish,
// and the two stopwatches of the reduce loop, which run only inside the
// groups the loop's sampler picks.
type reduceAccount struct {
	tm *metrics.TaskMetrics

	groups, values, outRecords, outBytes int64

	timed    bool          // the current group is a sampled one
	pull, io time.Duration // value pulls and output writes inside it
}

// publish moves the counts accumulated since the last publish into the
// task's metrics, one lock acquisition for the batch.
func (a *reduceAccount) publish() {
	a.tm.Publish(
		metrics.Count{Name: metrics.CtrReduceInputGroups, Delta: a.groups},
		metrics.Count{Name: metrics.CtrReduceInputValues, Delta: a.values},
		metrics.Count{Name: metrics.CtrOutputRecords, Delta: a.outRecords},
		metrics.Count{Name: metrics.CtrOutputBytes, Delta: a.outBytes},
	)
	a.groups, a.values, a.outRecords, a.outBytes = 0, 0, 0, 0
}

// groupValues adapts the Merger's current group to the user-facing
// ValueIter; one iterator serves every group of the task. Inside a sampled
// group it times value pulls as shuffle work, so user reduce() time is
// measured cleanly.
type groupValues struct {
	m    *kvio.Merger
	acct *reduceAccount
}

func (g *groupValues) Next() (value []byte, ok bool, err error) {
	a := g.acct
	if !a.timed {
		value, ok, err = g.m.NextValue()
	} else {
		t0 := a.tm.Now()
		value, ok, err = g.m.NextValue()
		a.pull += a.tm.Now().Sub(t0)
	}
	if ok {
		a.values++
	}
	return value, ok, err
}

// reduceCollector writes final output records through the job's format.
// Inside a sampled group it times the write as output I/O, separately
// from user reduce time.
type reduceCollector struct {
	job  *Job
	w    *serde.Writer
	bufw *bufio.Writer
	acct *reduceAccount
	plan *chaos.Plan
	line []byte // the format's buffer, reused for every record
}

func (rc *reduceCollector) Collect(key, value []byte) error {
	if rc.plan != nil {
		if err := rc.plan.Check(chaos.SiteReduceWrite); err != nil {
			return err
		}
	}
	a := rc.acct
	if !a.timed {
		return rc.write(key, value)
	}
	t0 := a.tm.Now()
	err := rc.write(key, value)
	a.io += a.tm.Now().Sub(t0)
	return err
}

func (rc *reduceCollector) write(key, value []byte) error {
	a := rc.acct
	a.outRecords++
	if rc.job.Format != nil {
		line, err := rc.job.Format(rc.line[:0], key, value)
		if err != nil {
			return fmt.Errorf("mr: formatting output: %w", err)
		}
		rc.line = line
		a.outBytes += int64(len(line))
		_, err = rc.bufw.Write(line)
		return err
	}
	a.outBytes += int64(serde.KVLen(len(key), len(value)))
	return rc.w.WriteKV(key, value)
}

// ReduceOutputName returns the DFS name of partition r's output file.
func ReduceOutputName(prefix string, r int) string {
	return fmt.Sprintf("%s-r-%05d", prefix, r)
}

// runReduceTask executes one attempt of a reduce task: fetch this
// partition of every run of every map output — from the pipelined
// shuffle's staging, or by a direct positioned read for a segment not
// staged — merge-sort, group, apply reduce(), and write the output to an
// attempt-scoped DFS temp file. On success the attempt commits by renaming
// the temp to the canonical output name; the DFS's fail-on-exist rename
// makes the first committer win, so a losing duplicate attempt returns
// won=false with its temp left in created for the runner to sweep. tm is
// the attempt's fresh metrics; every stopwatch of the attempt reads its
// clock.
func runReduceTask(c *cluster.Cluster, job *Job, tm *metrics.TaskMetrics, part, node, slot, attempt int, plan *chaos.Plan, sh *shuffleEnv, mapOuts []mapOutput) (outName string, won bool, created []string, rep TaskReport, err error) {
	if plan != nil {
		if d := plan.Delay(); d > 0 {
			time.Sleep(d) // manufactured straggler
		}
	}
	start := tm.Now()
	acct := &reduceAccount{tm: tm}
	report := TaskReport{Kind: "reduce", Index: part, Node: node}
	sp := spanner{tr: job.Trace, node: node, task: part, slot: slot, attempt: attempt}
	taskSpan := sp.start(trace.KindReduceTask, trace.LaneReduce)
	// finishReport closes the attempt's accounts on every exit: what the
	// reduce goroutine counted goes out before the counters are read back.
	finishReport := func() {
		acct.publish()
		report.Wall = tm.Now().Sub(start)
		report.ShuffleBytes = tm.Counter(metrics.CtrShuffleBytes)
		report.Metrics = tm.Snapshot()
		taskSpan.EndCounts(tm.Counter(metrics.CtrOutputRecords), tm.Counter(metrics.CtrOutputBytes))
	}
	fail := func(err error) (string, bool, []string, TaskReport, error) {
		finishReport()
		return "", false, created, report, fmt.Errorf("mr: reduce task %d attempt %d (node %d): %w", part, attempt, node, err)
	}
	// A panic in reduce() or the output formatter fails the attempt like any
	// other error; its temp file stays in created for the runner to sweep.
	defer func() {
		if r := recover(); r != nil {
			outName, won, created, rep, err = fail(panicError(r))
		}
	}()

	// Shuffle: resolve this partition's segment of every run.
	fetchSpan := sp.start(trace.KindShuffleFetch, trace.LaneReduce)
	streams, err := fetchConcurrent(c, job, sh, part, node, plan, mapOuts, acct, sp)
	if err != nil {
		fetchSpan.End()
		return fail(err)
	}
	merger, err := kvio.NewMerger(streams)
	if err != nil {
		fetchSpan.End()
		return fail(err)
	}
	defer merger.Close()
	fetchSpan.EndCounts(int64(len(streams)), 0)
	tm.Add(metrics.OpShuffle, tm.Now().Sub(start))

	tmpName := attemptReduceTempName(job.OutputPrefix, part, attempt)
	outFile, err := c.FS.Create(tmpName, node)
	if err != nil {
		return fail(err)
	}
	created = append(created, tmpName)
	bufw := bufio.NewWriterSize(outFile, 64<<10)
	rc := &reduceCollector{job: job, w: serde.NewWriter(bufw), bufw: bufw, acct: acct, plan: plan}
	values := &groupValues{m: merger, acct: acct}
	reducer := job.NewReducer()

	// The loop is timed per sampled group: only there do the merge step,
	// the value pulls and the output writes read the clock, and each such
	// group stands for the untimed ones since the previous sample. The
	// extrapolated shuffle/user/output split is then scaled to the loop's
	// measured wall, so the three operations sum to it exactly.
	sampler := metrics.DefaultSampler()
	var est [3]time.Duration // shuffle, user, output
	loopStart := tm.Now()
	for {
		if job.cancel.Load() {
			return fail(errors.Join(errJobCanceled, outFile.Close()))
		}
		w := sampler.Sample()
		acct.timed = w > 0
		var t0 time.Time
		if acct.timed {
			t0 = tm.Now()
		}
		key, ok, err := merger.NextGroup()
		if err != nil {
			return fail(errors.Join(err, outFile.Close()))
		}
		if !ok {
			break
		}
		acct.groups++
		if !acct.timed {
			err = reducer.Reduce(key, values, rc)
		} else {
			acct.pull, acct.io = 0, 0
			g0 := tm.Now()
			err = reducer.Reduce(key, values, rc)
			total := tm.Now().Sub(g0)
			est[0] += time.Duration(w) * (g0.Sub(t0) + acct.pull)
			est[1] += time.Duration(w) * (total - acct.pull - acct.io)
			est[2] += time.Duration(w) * acct.io
		}
		if err != nil {
			return fail(fmt.Errorf("reduce(): %w", errors.Join(err, outFile.Close())))
		}
	}
	acct.timed = false
	loopEnd := tm.Now()
	// With nothing sampled (a loop over no groups) the wall is all
	// shuffle's: the merge step that found the end.
	metrics.ScaleTo(loopEnd.Sub(loopStart), est[:])
	tm.Add(metrics.OpShuffle, est[0])
	tm.Add(metrics.OpReduceUser, est[1])
	tm.Add(metrics.OpOutputIO, est[2])

	if err := bufw.Flush(); err != nil {
		return fail(errors.Join(err, outFile.Close()))
	}
	if err := outFile.Close(); err != nil {
		return fail(err)
	}
	tm.Add(metrics.OpOutputIO, tm.Now().Sub(loopEnd))

	// Commit: rename the attempt temp onto the canonical output name.
	// ErrExist means a rival attempt already committed — not a failure,
	// just a lost race; the temp stays in created for the runner to sweep.
	finalName := ReduceOutputName(job.OutputPrefix, part)
	rerr := c.FS.Rename(tmpName, finalName)
	won = rerr == nil
	if won {
		created = nil
	} else if !errors.Is(rerr, vdisk.ErrExist) {
		return fail(rerr)
	}

	finishReport()
	return finalName, won, created, report, nil
}
