package mrserve

import (
	"context"
	"sync"
	"time"

	"mrtext/internal/metrics"
	"mrtext/internal/mr"
)

// JobStatus is the lifecycle of a submitted job. Transitions are
// queued → running → {done, failed}, with canceled reachable from queued
// (dequeued without running) and from running (context cancellation
// threaded through the runtime).
type JobStatus string

const (
	// StatusQueued: admitted, waiting for a worker and DRR credit.
	StatusQueued JobStatus = "queued"
	// StatusRunning: executing on the cluster.
	StatusRunning JobStatus = "running"
	// StatusDone: finished successfully; output is readable.
	StatusDone JobStatus = "done"
	// StatusFailed: finished with an error.
	StatusFailed JobStatus = "failed"
	// StatusCanceled: canceled while queued or running.
	StatusCanceled JobStatus = "canceled"
)

// jobState is the server-side record of one submitted job. The immutable
// identity fields are set at submission; everything else is guarded by mu.
type jobState struct {
	ID     string
	Tenant string
	Spec   Spec
	cost   int64 // EstimatedInputBytes at submission, the DRR cost

	// cancel ends the job's run context; set when the job starts. The
	// canceled latch distinguishes user cancellation from other failures.
	cancelMu sync.Mutex
	cancel   context.CancelFunc
	canceled bool

	mu        sync.Mutex
	status    JobStatus
	submitted time.Time
	started   time.Time
	finished  time.Time
	// result is the finished job's digest, rendered once by finish: what
	// GET /jobs/{id} shows and, by its Outputs, what GET /jobs/{id}/output
	// reads. The Result it was rendered from, with its per-task reports,
	// is not kept.
	result *ResultView
	err    error

	done chan struct{} // closed when the job reaches a terminal status
}

func (j *jobState) setRunning() {
	j.mu.Lock()
	j.status = StatusRunning
	j.started = time.Now()
	j.mu.Unlock()
}

// finish records the terminal state. A canceled run surfaces as
// StatusCanceled regardless of which error the runtime returned with.
func (j *jobState) finish(res *mr.Result, err error) {
	var rv *ResultView
	if res != nil {
		rv = &ResultView{
			WallMS:           float64(res.Wall) / 1e6,
			MapWallMS:        float64(res.MapWall) / 1e6,
			ReduceWallMS:     float64(res.ReduceWall) / 1e6,
			MapTasks:         res.MapTasks,
			ReduceTasks:      res.ReduceTasks,
			Outputs:          res.Outputs,
			Metrics:          metrics.NewDump(res.Agg),
			DeadNodes:        res.DeadNodes,
			BlacklistedNodes: res.BlacklistedNodes,
		}
	}
	j.cancelMu.Lock()
	canceled := j.canceled
	j.cancelMu.Unlock()
	j.mu.Lock()
	j.finished = time.Now()
	j.result = rv
	j.err = err
	switch {
	case canceled:
		j.status = StatusCanceled
	case err != nil:
		j.status = StatusFailed
	default:
		j.status = StatusDone
	}
	j.mu.Unlock()
	close(j.done)
}

// requestCancel latches cancellation and ends the run context if the job
// already started. It reports whether this call was the first to cancel.
func (j *jobState) requestCancel() bool {
	j.cancelMu.Lock()
	defer j.cancelMu.Unlock()
	if j.canceled {
		return false
	}
	j.canceled = true
	if j.cancel != nil {
		j.cancel()
	}
	return true
}

// bindContext installs the run context's cancel func, honoring a
// cancellation that arrived while the job was still queued.
func (j *jobState) bindContext(cancel context.CancelFunc) (alreadyCanceled bool) {
	j.cancelMu.Lock()
	defer j.cancelMu.Unlock()
	j.cancel = cancel
	return j.canceled
}

// ResultView is the JSON digest of a completed job's Result. Metrics is
// the job's own aggregate — operation and wait times, counters (the
// attempt ledger and map placement among them) and latency summaries — in
// the shape mrrun -metrics-json writes.
type ResultView struct {
	WallMS           float64      `json:"wall_ms"`
	MapWallMS        float64      `json:"map_wall_ms"`
	ReduceWallMS     float64      `json:"reduce_wall_ms"`
	MapTasks         int          `json:"map_tasks"`
	ReduceTasks      int          `json:"reduce_tasks"`
	Outputs          []string     `json:"outputs"`
	Metrics          metrics.Dump `json:"metrics"`
	DeadNodes        []int        `json:"dead_nodes,omitempty"`
	BlacklistedNodes []int        `json:"blacklisted_nodes,omitempty"`
}

// JobView is the GET /jobs/{id} document.
type JobView struct {
	ID        string      `json:"id"`
	Tenant    string      `json:"tenant"`
	App       string      `json:"app"`
	Status    JobStatus   `json:"status"`
	Submitted time.Time   `json:"submitted"`
	Started   *time.Time  `json:"started,omitempty"`
	Finished  *time.Time  `json:"finished,omitempty"`
	Error     string      `json:"error,omitempty"`
	Result    *ResultView `json:"result,omitempty"`
}

func (j *jobState) view() JobView {
	j.mu.Lock()
	defer j.mu.Unlock()
	v := JobView{
		ID:        j.ID,
		Tenant:    j.Tenant,
		App:       j.Spec.App,
		Status:    j.status,
		Submitted: j.submitted,
	}
	if !j.started.IsZero() {
		t := j.started
		v.Started = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		v.Finished = &t
	}
	if j.err != nil {
		v.Error = j.err.Error()
	}
	v.Result = j.result
	return v
}

// snapshotStatus returns the status and, when terminal, the result digest.
func (j *jobState) snapshotStatus() (JobStatus, *ResultView) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.status, j.result
}
