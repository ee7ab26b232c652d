package mr

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"

	"mrtext/internal/chaos"
	"mrtext/internal/cluster"
	"mrtext/internal/kvio"
	"mrtext/internal/metrics"
	"mrtext/internal/trace"
)

// Run executes a job on the cluster and blocks until completion. Each map
// task goes to the least-loaded node holding a replica of its split (see
// scheduler); reduce tasks are queued and pulled by per-node reduce slots.
// The paper's configuration of "12 mappers and 12 reducers on 6 machines"
// corresponds to 2 map + 2 reduce slots per node.
//
// Execution is attempt-based: each task runs as one or more (task,
// attempt) pairs writing attempt-scoped files — a map attempt's commit
// enters its runs in the job's map-output table, a reduce attempt's
// renames its output into place — so any attempt's failure is retried
// with jittered backoff (up to maxAttempts), nodes that keep failing
// attempts are blacklisted, and stragglers optionally get speculative
// backup attempts. Each phase is a value its workers run; committed map
// outputs lost to a node death are re-run by reopening the map phase, so
// a re-run is retried, placed and committed like any map attempt.
// Duplicate attempts of one task run to completion — the simulator has no
// task kill — and the first committer wins; losers are discarded and their
// temp files swept.
func Run(c *cluster.Cluster, spec *Job) (*Result, error) {
	return RunContext(context.Background(), c, spec)
}

// RunContext is Run with cancellation. When ctx ends mid-job, in-flight
// task attempts observe the job's cancel flag at their next record
// boundary (one atomic load per input line, reduce group or fetch retry —
// never a blocking wait on ctx), fail fast, and are swept by the normal
// attempt machinery; the run then removes any committed intermediates and
// returns the context's error wrapped in the job failure. Cancellation
// leaves no orphaned attempt temp files: every started attempt either
// commits (and its output is removed by the failure sweep) or is swept
// like any failed attempt.
func RunContext(ctx context.Context, c *cluster.Cluster, spec *Job) (*Result, error) {
	job, err := spec.withDefaults(c.TotalReduceSlots())
	if err != nil {
		return nil, err
	}
	splits, err := job.splits(c)
	if err != nil {
		return nil, err
	}
	tr := job.Trace

	// The job's fault source: the cluster injector unless the job carries
	// its own (a service running many jobs injects per job, so one
	// tenant's chaos never perturbs a neighbor). Armed for the duration
	// of the job only — dataset generation and everything else outside
	// RunContext stays fault-free — and arming is counted, so one job
	// finishing cannot disarm a shared injector under a concurrent job.
	inj := c.Chaos
	if job.Chaos != nil {
		inj = job.Chaos
	}
	if inj != nil {
		inj.Arm()
		defer inj.Disarm()
	}

	start := time.Now()
	res := &Result{Job: job.Name, MapTasks: len(splits), ReduceTasks: job.NumReducers}
	jobSpan := tr.Start(trace.KindJob, trace.LaneScheduler, -1, -1, 0)
	defer jobSpan.End()

	ft := newFTRun(c, job, splits)
	ft.inj = inj

	// The frequent-key sets the job's map tasks publish per node are keyed
	// by its run-unique prefix; nothing can ask for them once the run is
	// over, however it ends.
	defer func() {
		for _, cache := range c.FreqCaches {
			cache.Drop(job.filePrefix)
		}
	}()

	// The cancellation watcher: flip the job's cancel flag (which task
	// loops poll) and fail the run (which wakes workers blocked on the
	// scheduler condvar). The deferred close stops the watcher on normal
	// completion.
	if done := ctx.Done(); done != nil {
		stopWatch := make(chan struct{})
		defer close(stopWatch)
		go func() {
			select {
			case <-done:
				job.cancel.Store(true)
				ft.mu.Lock()
				ft.failLocked(fmt.Errorf("mr: job canceled: %w", context.Cause(ctx)))
				ft.mu.Unlock()
			case <-stopWatch:
			}
		}()
	}

	// The pipelined shuffle stages committed map outputs as they appear,
	// overlapping shuffle I/O with the rest of the map phase. The deferred
	// close covers early error returns; the success path closes it
	// explicitly before reading its counters.
	svc := newShuffleService(c, job)
	ft.shuffle = svc
	defer svc.close()

	// A failed phase leaves committed intermediates behind: stop the
	// copiers, then remove them.
	outputs := make([]string, job.NumReducers)
	fail := func(err error) (*Result, error) {
		svc.close()
		ft.sweepJobIntermediates(outputs)
		return nil, err
	}

	// ----- Map phase -----
	sched := newScheduler(c.Nodes(), c.MapSlots(), splits)
	mp := newPhase(len(splits), sched, c.MapSlots(), func(ph *phase, pa pendingAttempt, stolen bool, node, slot int) {
		if stolen {
			tr.Instant(trace.KindWorkSteal, trace.LaneScheduler, node, pa.task, int64(len(sched.holders[pa.task])))
		}
		if err := ft.mapAttempt(ph, pa, node, slot); err != nil {
			ft.attemptFailed(ph, pa, node, err)
		}
	})
	err = ft.runPhase(mp)
	// The spill regions of one map workspace per task the phase ran, at
	// most one per slot, wait for the next map phase, this cluster's next
	// job's or a concurrent one's; the rest of the workspaces is not kept
	// through the reduce phase.
	c.MapWorkspaces.Trim(shrinkWorkspace)
	if err != nil {
		return fail(err)
	}
	res.MapWall = time.Since(start)
	svc.markMapDone()

	// Reduce attempts see the pipelined shuffle through shuffleEnv; the
	// resnapshot closure lets an attempt that catches a source node death
	// mid-fetch recover the lost outputs in place and refetch.
	sh := &shuffleEnv{
		svc: svc,
		resnapshot: func() []mapOutput {
			ft.recoverLostMapOuts(mp)
			return ft.snapshotMapOuts()
		},
	}

	// ----- Reduce phase -----
	reduceStart := time.Now()
	reduceReports := make([]TaskReport, job.NumReducers)
	rp := newPhase(job.NumReducers, nil, c.ReduceSlots(), func(ph *phase, pa pendingAttempt, _ bool, node, slot int) {
		queueWait := time.Since(pa.enqueued)
		tr.Complete(trace.KindWaitQueue, trace.LaneReduce, node, pa.task, slot, pa.enqueued, queueWait)
		svc.tm.Observe(metrics.HistReduceQueueWaitNS, int64(queueWait))
		plan := ft.inj.Plan(node, pa.task, pa.attempt, chaos.ReduceSites())
		outName, won, created, rep, err := runReduceTask(c, job, metrics.NewTaskMetrics(), pa.task, node, slot, pa.attempt, plan, sh, ft.snapshotMapOuts())
		rep.QueueWait = queueWait
		switch {
		case err != nil:
			ft.sweep(c.FS.Remove, created)
			ft.recoverLostMapOuts(mp)
			ft.attemptFailed(ph, pa, node, err)
		case !won: // a rival attempt committed first: discard
			ft.sweep(c.FS.Remove, created)
			ft.mu.Lock()
			ft.noteEndLocked(ph, pa)
			ft.mu.Unlock()
		default:
			ft.mu.Lock()
			ft.noteEndLocked(ph, pa)
			outputs[pa.task], reduceReports[pa.task] = outName, rep
			ft.committedLocked(ph, pa, rep.Wall)
			ft.mu.Unlock()
			svc.release(pa.task)
		}
	})
	if err = ft.runPhase(rp); err != nil {
		return fail(err)
	}
	res.ReduceWall = time.Since(reduceStart)
	res.Wall = time.Since(start)
	res.Outputs = outputs
	svc.close() // stop the copiers before counter reads and disk cleanup

	// Committed map outputs are no longer needed.
	ft.sweepJobIntermediates(nil)

	res.Tasks = append(append([]TaskReport(nil), ft.mapReports...), reduceReports...)
	for _, t := range res.Tasks {
		res.Agg.Merge(t.Metrics)
	}
	res.Agg.Merge(svc.snapshot())
	ft.fillResult(res, sched)
	return res, nil
}

// attemptKind classifies why an attempt was started; every started
// attempt has exactly one kind, which is what makes the Result counter
// identity hold.
type attemptKind int

const (
	attemptBase        attemptKind = iota // a task's first attempt
	attemptRetry                          // requeued after a failed attempt
	attemptSpeculative                    // backup attempt for a straggler
	attemptRecovery                       // re-run of a committed map task after node death
)

// counter names the ledger counter an attempt of kind k adds to when it
// starts; a base attempt counts only as a map or reduce attempt.
func (k attemptKind) counter() string {
	switch k {
	case attemptRetry:
		return metrics.CtrTaskRetries
	case attemptSpeculative:
		return metrics.CtrSpeculativeTasks
	case attemptRecovery:
		return metrics.CtrRecoveredMapTasks
	}
	return ""
}

const (
	// nodeFailureLimit blacklists a node for the rest of the job after
	// this many failed attempts ran on it (Hadoop's
	// mapred.max.tracker.failures). Blacklisting never removes the last
	// live node.
	nodeFailureLimit = 4
	// retryBackoff is the base delay before a failed attempt is requeued and
	// between a reduce attempt's retries of a faulted fetch; backoffFor
	// jitters it per (task, attempt).
	retryBackoff = 2 * time.Millisecond
	// speculationSlowdown is the straggler threshold: a sole running
	// attempt older than this multiple of the median committed attempt
	// gets a backup.
	speculationSlowdown = 1.8
	// speculationQuorum is the fraction of a phase's tasks that must have
	// committed before backups launch: the median they give is the
	// yardstick a straggler is measured against.
	speculationQuorum = 0.6
)

// pendingAttempt is one schedulable unit of work: a (task, attempt) pair.
type pendingAttempt struct {
	task     int
	attempt  int
	kind     attemptKind
	enqueued time.Time
}

// runningInfo tracks one in-flight attempt for the speculation monitor.
type runningInfo struct {
	attempt int
	node    int
	start   time.Time
}

// ftTask is the runner's per-task fault-tolerance state within a phase.
type ftTask struct {
	committed   bool          // a winning attempt's output is published
	nextAttempt int           // next attempt number to hand out
	failures    int           // failed attempts so far (job fails at maxAttempts)
	backup      bool          // a speculative backup has been launched
	running     []runningInfo // in-flight attempts
	winDur      time.Duration // the winning attempt's wall time (speculation baseline)
}

// phase is one phase's scheduling state, built once per phase: its tasks,
// the queue of attempts ready to run, and the work each attempt is handed
// to. A map phase places its base attempts through sched; a reduce phase,
// whose sched is nil, queues every task's base attempt at the start.
// Lost-output recovery reopens the map phase and runs its workers again.
// All of it is guarded by ftRun.mu.
type phase struct {
	tasks         []*ftTask
	queue         []pendingAttempt
	sched         *scheduler // map placement; nil in the reduce phase
	done, total   int        // committed tasks, all tasks
	slots         int        // workers per node
	activeWorkers int        // workers not yet left for an unusable node
	work          func(ph *phase, pa pendingAttempt, stolen bool, node, slot int)
}

func newPhase(total int, sched *scheduler, slots int, work func(ph *phase, pa pendingAttempt, stolen bool, node, slot int)) *phase {
	ph := &phase{tasks: make([]*ftTask, total), sched: sched, total: total, slots: slots, work: work}
	now := time.Now()
	for t := range ph.tasks {
		ph.tasks[t] = &ftTask{}
		if sched == nil {
			ph.queue = append(ph.queue, pendingAttempt{task: t, kind: attemptBase, enqueued: now})
			ph.tasks[t].nextAttempt = 1
		}
	}
	return ph
}

// over reports whether every task of the phase has committed.
func (ph *phase) over() bool { return ph.done == ph.total }

// ftRun coordinates attempt-based execution for one job: it holds what
// outlives a phase — node deaths, the blacklist, the map-output table, the
// attempt ledger and the job's error — and layers retry, blacklisting,
// speculation and recovery over each phase it runs. All mutable state,
// the phases' included, is guarded by mu; cond wakes workers when new
// attempts become runnable or a phase ends.
type ftRun struct {
	c   *cluster.Cluster
	job *Job
	// inj is the job's fault source: the per-job injector when the job
	// carries one, the cluster injector otherwise. Task-site plans come
	// from here; node-death observation stays on c.Chaos (node death is
	// cluster-wide regardless of which job's injector is in play).
	inj  *chaos.Injector
	mu   sync.Mutex
	cond *sync.Cond

	aborted bool
	err     error

	nodeFailures []int
	blacklisted  []bool
	deadKnown    []bool
	recovering   bool // a lost-map-output recovery is in flight (singleflight)

	// The map phase's results, which the reduce phase fetches from and
	// lost-output recovery rewrites.
	splits     []Split
	mapOuts    []mapOutput
	mapReports []TaskReport

	// shuffle is the pipelined-shuffle service: map commits are offered to
	// its copier pools, and the reduce-phase queue prefers handing a
	// partition to its staging node.
	shuffle *shuffleService

	// ledger is the attempt accounting, keyed by metrics.Ctr* names;
	// fillResult merges it into the job aggregate.
	ledger map[string]int64
}

func newFTRun(c *cluster.Cluster, job *Job, splits []Split) *ftRun {
	ft := &ftRun{
		c:            c,
		job:          job,
		nodeFailures: make([]int, c.Nodes()),
		blacklisted:  make([]bool, c.Nodes()),
		deadKnown:    make([]bool, c.Nodes()),
		splits:       splits,
		mapOuts:      make([]mapOutput, len(splits)),
		mapReports:   make([]TaskReport, len(splits)),
		ledger:       map[string]int64{metrics.CtrMapAttempts: 0, metrics.CtrReduceAttempts: 0},
	}
	ft.cond = sync.NewCond(&ft.mu)
	return ft
}

// runPhase runs ph until every task of it has committed: ph.slots workers
// per node take attempts from next and hand each to ph.work, while the
// speculation monitor, when the job asks for backups, watches for
// stragglers. It returns once every worker has left, with the job's error
// if the job failed. Node state (deaths, blacklist) carries across phases
// and across runs of one phase: a dead node stays dead.
func (ft *ftRun) runPhase(ph *phase) error {
	nodes := ft.c.Nodes()
	ft.mu.Lock()
	ph.activeWorkers = nodes * ph.slots
	ft.mu.Unlock()
	stop := make(chan struct{})
	var specWG, wg sync.WaitGroup
	if ft.job.Speculation {
		specWG.Add(1)
		go func() { defer specWG.Done(); ft.speculate(ph, stop) }()
	}
	for node := 0; node < nodes; node++ {
		for slot := 0; slot < ph.slots; slot++ {
			wg.Add(1)
			go func(node, slot int) {
				defer wg.Done()
				for {
					pa, stolen, ok := ft.next(ph, node)
					if !ok {
						return
					}
					ph.work(ph, pa, stolen, node, slot)
				}
			}(node, slot)
		}
	}
	wg.Wait()
	close(stop)
	specWG.Wait()
	ft.mu.Lock()
	defer ft.mu.Unlock()
	return ft.err
}

// next blocks until an attempt of ph is runnable on node, the phase ends,
// or the node becomes unusable (dead or blacklisted). stolen reports a
// base map attempt placed on a node holding no replica of its split.
func (ft *ftRun) next(ph *phase, node int) (pa pendingAttempt, stolen, ok bool) {
	ft.mu.Lock()
	defer ft.mu.Unlock()
	for {
		if ft.aborted || ph.over() {
			return pendingAttempt{}, false, false
		}
		if !ft.usableLocked(node) {
			ph.activeWorkers--
			if ph.activeWorkers == 0 {
				ft.failLocked(fmt.Errorf("mr: no live unblacklisted workers left (%d of %d tasks incomplete)", ph.total-ph.done, ph.total))
			}
			return pendingAttempt{}, false, false
		}
		if ph.sched == nil && ft.recovering {
			// Reduce attempts dispatched mid-recovery would fetch from a
			// map-output table still pointing at a dead node.
			ft.cond.Wait()
			continue
		}
		if ph.sched != nil {
			if task, stolen, ok := ph.sched.take(node, ft.usableLocked); ok {
				ts := ph.tasks[task]
				pa := pendingAttempt{task: task, attempt: ts.nextAttempt, kind: attemptBase, enqueued: time.Now()}
				ts.nextAttempt++
				ft.noteStartLocked(ph, pa, node)
				return pa, stolen, true
			}
		}
		for len(ph.queue) > 0 {
			// Staging affinity: prefer a reduce attempt whose partition is
			// staged on this node, so the staged hand-off is a local read.
			idx := 0
			if ph.sched == nil {
				for i, pa := range ph.queue {
					if !ph.tasks[pa.task].committed && ft.shuffle.home(pa.task) == node {
						idx = i
						break
					}
				}
			}
			pa := ph.queue[idx]
			ph.queue = append(ph.queue[:idx], ph.queue[idx+1:]...)
			if ph.tasks[pa.task].committed {
				continue // stale: a rival attempt won while this waited
			}
			ft.noteStartLocked(ph, pa, node)
			return pa, false, true
		}
		ft.cond.Wait()
	}
}

// noteStartLocked records an attempt start: counters are incremented here,
// at attempt start, so every started attempt is counted exactly once
// under its kind. A map attempt adds to its node's load, which can change
// where the waiting workers' tasks may go, so they are woken.
func (ft *ftRun) noteStartLocked(ph *phase, pa pendingAttempt, node int) {
	ts := ph.tasks[pa.task]
	ts.running = append(ts.running, runningInfo{attempt: pa.attempt, node: node, start: time.Now()})
	if ph.sched != nil {
		ft.ledger[metrics.CtrMapAttempts]++
		ph.sched.load[node]++
		ft.cond.Broadcast()
	} else {
		ft.ledger[metrics.CtrReduceAttempts]++
	}
	if pa.kind != attemptBase {
		ft.ledger[pa.kind.counter()]++
	}
}

func (ft *ftRun) noteEndLocked(ph *phase, pa pendingAttempt) {
	ts := ph.tasks[pa.task]
	for i, ri := range ts.running {
		if ri.attempt == pa.attempt {
			ts.running = append(ts.running[:i], ts.running[i+1:]...)
			if ph.sched != nil {
				ph.sched.load[ri.node]--
				ft.cond.Broadcast()
			}
			return
		}
	}
}

func (ft *ftRun) failLocked(err error) {
	if !ft.aborted {
		ft.aborted = true
		ft.err = err
	}
	ft.cond.Broadcast()
}

// usableLocked reports whether node is neither dead nor blacklisted.
func (ft *ftRun) usableLocked(node int) bool {
	return !ft.deadKnown[node] && !ft.blacklisted[node]
}

// usableNodesLocked counts nodes that are neither dead nor blacklisted.
func (ft *ftRun) usableNodesLocked() int {
	n := 0
	for i := range ft.blacklisted {
		if ft.usableLocked(i) {
			n++
		}
	}
	return n
}

// refreshDeadNodes folds newly observed chaos kills into scheduler state,
// emitting a node-death instant once per node.
func (ft *ftRun) refreshDeadNodes() {
	if ft.c.Chaos == nil {
		return
	}
	dead := ft.c.Chaos.DeadNodes()
	if len(dead) == 0 {
		return
	}
	ft.mu.Lock()
	for _, n := range dead {
		if !ft.deadKnown[n] {
			ft.deadKnown[n] = true
			ft.job.Trace.Instant(trace.KindNodeDeath, trace.LaneScheduler, n, -1, int64(n))
		}
	}
	ft.cond.Broadcast()
	ft.mu.Unlock()
}

// attemptFailed handles an attempt error: requeue with jittered backoff,
// blacklist the node if it keeps failing attempts, or fail the job once
// the task exhausts maxAttempts. A failure after a rival committed is
// moot — the task is done regardless.
func (ft *ftRun) attemptFailed(ph *phase, pa pendingAttempt, node int, err error) {
	ft.refreshDeadNodes()
	ft.mu.Lock()
	defer ft.mu.Unlock()
	ft.noteEndLocked(ph, pa)
	ft.ledger[metrics.CtrFailedAttempts]++
	ts := ph.tasks[pa.task]
	if ts.committed || ft.aborted {
		return
	}
	ts.failures++
	if !ft.deadKnown[node] {
		ft.nodeFailures[node]++
		if ft.nodeFailures[node] >= nodeFailureLimit && !ft.blacklisted[node] && ft.usableNodesLocked() > 1 {
			ft.blacklisted[node] = true
			ft.cond.Broadcast()
		}
	}
	if ts.failures >= ft.job.attemptLimit {
		ft.failLocked(fmt.Errorf("mr: task failed %d attempts, last: %w", ts.failures, err))
		return
	}
	attemptNo := ts.nextAttempt
	ts.nextAttempt++
	ft.job.Trace.Instant(trace.KindTaskRetry, trace.LaneScheduler, node, pa.task, int64(attemptNo))
	time.AfterFunc(backoffFor(pa.task, attemptNo), func() {
		ft.mu.Lock()
		defer ft.mu.Unlock()
		// A reopened task has a new record, so a retry armed before its
		// output was lost finds the old one committed.
		if ft.aborted || ts.committed {
			return
		}
		ph.queue = append(ph.queue, pendingAttempt{task: pa.task, attempt: attemptNo, kind: attemptRetry, enqueued: time.Now()})
		ft.cond.Broadcast()
	})
}

// mapAttempt runs attempt pa of a map task on node and commits it: each
// run is offered to the shuffle as soon as it is written, and the runs are
// entered in the map-output table. A failed attempt's files are swept and
// its error returned.
//
// The table entry is the commit, made under ft.mu, so an output is
// committed whole or not at all and the first committer wins: an attempt
// that finds its task committed, or the job failed, has lost, and its runs
// are swept. A recovery re-run commits the same way, replacing the entry
// of an output lost with its node.
func (ft *ftRun) mapAttempt(ph *phase, pa pendingAttempt, node, slot int) error {
	plan := ft.inj.Plan(node, pa.task, pa.attempt, chaos.MapSites())
	// A recovered output is offered like any other: its runs are new files,
	// staged beside whatever staging holds of the lost ones.
	publish := func(run kvio.RunIndex) { ft.shuffle.offer(pa.task, mapOutput{node: node, runs: []kvio.RunIndex{run}}) }
	out, rep, created, err := runMapTask(ft.c, ft.job, metrics.NewTaskMetrics(), pa.task, ft.splits[pa.task], node, slot, pa.attempt, plan, publish)
	if err != nil {
		ft.sweep(ft.c.Disks[node].Remove, created)
		return err
	}
	ft.mu.Lock()
	ft.noteEndLocked(ph, pa)
	if ph.tasks[pa.task].committed || ft.aborted {
		ft.mu.Unlock()
		ft.sweep(ft.c.Disks[node].Remove, created)
		return nil
	}
	ft.committedLocked(ph, pa, rep.Wall)
	ft.mapOuts[pa.task], ft.mapReports[pa.task] = out, rep
	ft.mu.Unlock()
	return nil
}

// committedLocked records the winning attempt of a task whose output is
// published, ending the phase with its last task.
func (ft *ftRun) committedLocked(ph *phase, pa pendingAttempt, wall time.Duration) {
	ts := ph.tasks[pa.task]
	ts.committed = true
	ts.winDur = wall
	if pa.kind == attemptSpeculative {
		ft.ledger[metrics.CtrSpeculativeWins]++
	}
	ph.done++
	ft.cond.Broadcast()
}

// removeAll removes the named files through remove, best-effort, and
// returns how many removals failed on a live node. A dead node's disk is
// gone with its node, so those removals are skipped silently; an empty
// name (a task with no committed output) is skipped too.
func removeAll(remove func(string) error, files []string) (errs int64) {
	for _, name := range files {
		if name == "" {
			continue
		}
		if err := remove(name); err != nil && !errors.Is(err, chaos.ErrNodeDead) {
			errs++
		}
	}
	return errs
}

// sweep removes a failed or losing attempt's surviving files, through the
// remover of the disk or DFS that holds them, and withdraws any of them
// the attempt offered to the shuffle.
func (ft *ftRun) sweep(remove func(string) error, files []string) {
	if len(files) == 0 {
		return
	}
	ft.shuffle.withdraw(files)
	errs := removeAll(remove, files)
	ft.mu.Lock()
	ft.ledger[metrics.CtrSweptAttemptDirs]++
	if errs > 0 {
		ft.ledger[metrics.CtrCleanupErrors] += errs
	}
	ft.mu.Unlock()
}

// errJobCanceled is what a task attempt fails with when it observes the
// job's cancel flag. The watcher has already failed the job by then, so
// attemptFailed absorbs these without scheduling retries.
var errJobCanceled = errors.New("mr: attempt canceled")

// sweepJobIntermediates removes what the job left committed: the runs of
// map outputs on node disks and the given committed reduce outputs on the
// DFS. A successful job passes no outputs — its map outputs are no longer
// needed; a failed or canceled one passes every output it committed.
// Attempt-scoped temp files are already swept by the attempt machinery,
// and staging holds memory only, so after a failure sweep a dead job
// leaves nothing on the cluster. Best-effort: dead nodes are skipped,
// live-node failures count as cleanup errors. Called only after all
// workers have joined.
func (ft *ftRun) sweepJobIntermediates(outputs []string) {
	errs := removeAll(ft.c.FS.Remove, outputs)
	for _, mo := range ft.mapOuts {
		if !ft.c.NodeDead(mo.node) {
			errs += removeAll(ft.c.Disks[mo.node].Remove, mo.files())
		}
	}
	if errs > 0 {
		ft.mu.Lock()
		ft.ledger[metrics.CtrCleanupErrors] += errs
		ft.mu.Unlock()
	}
}

// snapshotMapOuts copies the map-output table under the lock, so a reduce
// attempt's fetch set is consistent even while recovery rewrites entries.
func (ft *ftRun) snapshotMapOuts() []mapOutput {
	ft.mu.Lock()
	defer ft.mu.Unlock()
	return append([]mapOutput(nil), ft.mapOuts...)
}

// speculate is the per-phase straggler monitor: once a quorum of ph's
// tasks has committed, a task whose sole running attempt exceeds the
// slowdown multiple of the median committed duration gets one backup
// attempt.
func (ft *ftRun) speculate(ph *phase, stop <-chan struct{}) {
	tick := time.NewTicker(time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
		}
		ft.mu.Lock()
		if ft.aborted || ph.over() || ph.done == 0 ||
			float64(ph.done) < speculationQuorum*float64(ph.total) {
			ft.mu.Unlock()
			continue
		}
		durs := make([]time.Duration, 0, ph.done)
		for _, ts := range ph.tasks {
			if ts.committed {
				durs = append(durs, ts.winDur)
			}
		}
		sort.Slice(durs, func(i, j int) bool { return durs[i] < durs[j] })
		threshold := time.Duration(speculationSlowdown * float64(durs[len(durs)/2]))
		// Floor against tiny-task noise: sub-millisecond medians would
		// speculate on scheduler jitter.
		if threshold < 500*time.Microsecond {
			threshold = 500 * time.Microsecond
		}
		now := time.Now()
		launched := false
		for i, ts := range ph.tasks {
			if ts.committed || ts.backup || len(ts.running) != 1 || now.Sub(ts.running[0].start) <= threshold {
				continue
			}
			ts.backup = true
			attemptNo := ts.nextAttempt
			ts.nextAttempt++
			ph.queue = append(ph.queue, pendingAttempt{task: i, attempt: attemptNo, kind: attemptSpeculative, enqueued: now})
			ft.job.Trace.Instant(trace.KindSpeculativeLaunch, trace.LaneScheduler, ts.running[0].node, i, int64(attemptNo))
			launched = true
		}
		if launched {
			ft.cond.Broadcast()
		}
		ft.mu.Unlock()
	}
}

// reopen makes the committed tasks lost runnable again in an over phase:
// each gets a new record, which numbers its attempts on from the old one
// and counts no failure (a lost output is not the task's failure), and one
// recovery attempt on the queue. A retry armed for the old record finds it
// committed and queues nothing. Called under ftRun.mu.
func (ph *phase) reopen(lost []int) {
	ph.queue = ph.queue[:0] // the phase was over: whatever is queued is stale
	now := time.Now()
	for _, t := range lost {
		attemptNo := ph.tasks[t].nextAttempt
		ph.tasks[t] = &ftTask{nextAttempt: attemptNo + 1}
		ph.queue = append(ph.queue, pendingAttempt{task: t, attempt: attemptNo, kind: attemptRecovery, enqueued: now})
		ph.done--
	}
}

// recoverLostMapOuts re-runs committed map tasks whose output node died
// before every reducer fetched from it — Hadoop's "map output lost"
// re-execution: it reopens the map phase mp for them and runs mp's
// workers again until the phase is over, so a re-run is placed, retried,
// blacklisted against and committed like any map attempt. Called from a
// failing reduce worker's goroutine; singleflight, with the reduce
// phase's workers waiting so their attempts see the recovered outputs.
func (ft *ftRun) recoverLostMapOuts(mp *phase) {
	ft.refreshDeadNodes()
	lostLocked := func() []int {
		var lost []int
		for t := range ft.mapOuts {
			if ft.deadKnown[ft.mapOuts[t].node] {
				lost = append(lost, t)
			}
		}
		return lost
	}
	ft.mu.Lock()
	if len(lostLocked()) == 0 {
		ft.mu.Unlock()
		return
	}
	for ft.recovering {
		ft.cond.Wait()
	}
	// Re-check: the recovery just finished may have covered our losses,
	// or the job may have failed while we waited.
	lost := lostLocked()
	if len(lost) == 0 || ft.aborted {
		ft.mu.Unlock()
		return
	}
	ft.recovering = true
	mp.reopen(lost)
	ft.mu.Unlock()

	//mrlint:ignore droppederr a re-run that failed its last attempt failed the job, which the reduce phase reads
	ft.runPhase(mp)
	ft.mu.Lock()
	ft.recovering = false
	ft.cond.Broadcast()
	ft.mu.Unlock()
}

// fillResult merges the attempt ledger and the map placement counts into
// the job aggregate, then fills the Result's accounting fields from it.
// CleanupErrors thus also counts the removals map tasks failed.
func (ft *ftRun) fillResult(res *Result, sched *scheduler) {
	ft.mu.Lock()
	ft.ledger[metrics.CtrLocalMapTasks] += int64(sched.local)
	ft.ledger[metrics.CtrStolenMapTasks] += int64(sched.stolen)
	res.Agg.Merge(metrics.Snapshot{Counters: ft.ledger})
	for n, b := range ft.blacklisted {
		if b {
			res.BlacklistedNodes = append(res.BlacklistedNodes, n)
		}
	}
	ft.mu.Unlock()
	if ft.c.Chaos != nil {
		res.DeadNodes = ft.c.Chaos.DeadNodes()
	}
	ctr := func(name string) int { return int(res.Agg.Counters[name]) }
	res.LocalMapTasks, res.StolenMapTasks = ctr(metrics.CtrLocalMapTasks), ctr(metrics.CtrStolenMapTasks)
	res.MapAttempts, res.ReduceAttempts = ctr(metrics.CtrMapAttempts), ctr(metrics.CtrReduceAttempts)
	res.TaskRetries = ctr(metrics.CtrTaskRetries)
	res.SpeculativeTasks, res.SpeculativeWins = ctr(metrics.CtrSpeculativeTasks), ctr(metrics.CtrSpeculativeWins)
	res.RecoveredMapTasks = ctr(metrics.CtrRecoveredMapTasks)
	res.FailedAttempts = ctr(metrics.CtrFailedAttempts)
	res.SweptAttempts, res.CleanupErrors = ctr(metrics.CtrSweptAttemptDirs), ctr(metrics.CtrCleanupErrors)
	res.ShuffleEarlySegments = ctr(metrics.CtrShuffleEarlySegments)
	res.ShuffleFetchRetries = ctr(metrics.CtrShuffleFetchRetries)
	res.ShuffleStagingPeak = res.Agg.Counters[metrics.CtrShuffleStagingPeak]
}

// scheduler places base map attempts on one list of pending tasks. A
// task's holders are the nodes holding a replica of its split, and a task
// goes to its least-loaded holder: a node takes a task it holds unless
// another live holder with a free slot runs fewer map attempts, and a task
// it does not hold only when it runs fewer than every live holder with a
// free slot, or when no holder has one. Of the tasks it may take, a node
// prefers one it holds, then the longest (the list is kept longest first),
// then, among held tasks of one length, the one its other holders are
// least free to run. The scheduler is guarded by ftRun.mu, which keeps
// load current as map attempts start and end.
type scheduler struct {
	pending []int   // tasks not yet handed out, longest split first
	splits  []Split // per task: its split
	holders [][]int // per task: the nodes in range holding a replica
	load    []int   // per node: map attempts running
	slots   int     // map slots per node
	local   int     // tasks handed to one of their holders
	stolen  int     // tasks handed to a node holding no replica
}

func newScheduler(nodes, slots int, splits []Split) *scheduler {
	s := &scheduler{splits: splits, holders: make([][]int, len(splits)), load: make([]int, nodes), slots: slots}
	for t, sp := range splits {
		s.pending = append(s.pending, t)
		for _, h := range sp.Hosts {
			if h >= 0 && h < nodes {
				s.holders[t] = append(s.holders[t], h)
			}
		}
	}
	slices.SortStableFunc(s.pending, func(a, b int) int { return cmp.Compare(splits[b].Len, splits[a].Len) })
	return s
}

// take hands node the pending task the placement rule lets it run, if
// any; live says which other nodes can still run tasks. stolen reports a
// task node holds no replica of. A task with no holder in range may go
// anywhere and counts as neither local nor stolen.
func (s *scheduler) take(node int, live func(int) bool) (task int, stolen, ok bool) {
	pick, best := -1, 0 // best ranks the pick: 0 for a task node does not hold
	for i, t := range s.pending {
		holds, other := false, s.slots // least load of another live holder with a free slot
		for _, h := range s.holders[t] {
			if h == node {
				holds = true
			} else if live(h) && s.load[h] < other {
				other = s.load[h]
			}
		}
		gap := other - s.load[node] // a holder may tie, a non-holder must be less loaded
		if holds {
			gap++
		}
		if gap <= 0 || !holds && pick >= 0 {
			continue
		}
		if !holds {
			gap = 0
		}
		if pick < 0 || gap > best && (best == 0 || s.splits[t].Len == s.splits[s.pending[pick]].Len) {
			pick, best = i, gap
		}
	}
	if pick < 0 {
		return 0, false, false
	}
	task = s.pending[pick]
	s.pending = slices.Delete(s.pending, pick, pick+1)
	if best > 0 {
		s.local++
	} else if len(s.holders[task]) > 0 {
		s.stolen++
		stolen = true
	}
	return task, stolen, true
}
