package mrserve

import (
	"context"
	"fmt"
	"log"
	"sort"
	"sync"
	"time"

	"mrtext/internal/cluster"
	"mrtext/internal/mr"
	"mrtext/internal/trace"
)

// Config parameterizes a Server. The zero value of any field falls back
// to the documented default; Cluster is the only required field.
type Config struct {
	// Cluster is the shared substrate every job runs on. Constructed once
	// by the caller and outliving every job — the whole point of the
	// service versus one-shot mrrun.
	Cluster *cluster.Cluster
	// QueueDepth bounds queued (not yet running) jobs; submissions over
	// it are refused with 429 (default 16).
	QueueDepth int
	// AdmissionBytes bounds the total estimated input bytes of queued
	// jobs — the byte-budget half of admission control (default 1 GiB).
	AdmissionBytes int64
	// Quantum is the DRR credit each backlogged tenant accrues per round,
	// in input bytes per unit weight (default 4 MiB).
	Quantum int64
	// Workers is how many jobs run concurrently on the cluster
	// (default 2).
	Workers int
	// TenantWeights biases DRR credit; unlisted tenants weigh 1.
	TenantWeights map[string]int64
	// TraceCapacity sizes each job's private tracer in events
	// (default 16384).
	TraceCapacity int
	// Log receives service events; nil discards them.
	Log *log.Logger
}

// Server is the long-lived job service: a bounded multi-tenant queue in
// front of worker goroutines that run jobs on the shared cluster with
// per-job isolation (private tracer, private chaos injector, private
// histogram sink per job).
type Server struct {
	cfg   Config
	c     *cluster.Cluster
	queue *drrQueue
	data  *DatasetCache
	stats *tenantSet

	mu   sync.Mutex
	jobs map[string]*jobState
	ids  []string // submission order, for listing
	seq  int64

	baseCtx context.Context
	stop    context.CancelFunc
	wg      sync.WaitGroup
	started bool
}

// New builds a server over an existing cluster. Call Start to launch the
// workers and Close to drain them.
func New(cfg Config) (*Server, error) {
	if cfg.Cluster == nil {
		return nil, fmt.Errorf("mrserve: Config.Cluster is required")
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 16
	}
	if cfg.AdmissionBytes <= 0 {
		cfg.AdmissionBytes = 1 << 30
	}
	if cfg.Quantum <= 0 {
		cfg.Quantum = 4 << 20
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 2
	}
	if cfg.TraceCapacity <= 0 {
		cfg.TraceCapacity = 1 << 14
	}
	ctx, stop := context.WithCancel(context.Background())
	return &Server{
		cfg:     cfg,
		c:       cfg.Cluster,
		queue:   newDRRQueue(cfg.QueueDepth, cfg.AdmissionBytes, cfg.Quantum),
		data:    NewDatasetCache(),
		stats:   newTenantSet(),
		jobs:    make(map[string]*jobState),
		baseCtx: ctx,
		stop:    stop,
	}, nil
}

// Start launches the worker pool. Idempotent.
func (s *Server) Start() {
	s.mu.Lock()
	if s.started {
		s.mu.Unlock()
		return
	}
	s.started = true
	s.mu.Unlock()
	for i := 0; i < s.cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
}

// Close stops accepting work, cancels running jobs, and waits for the
// workers to drain.
func (s *Server) Close() {
	s.queue.close()
	s.stop()
	s.wg.Wait()
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Log != nil {
		s.cfg.Log.Printf(format, args...)
	}
}

func (s *Server) weight(tenant string) int64 {
	if w := s.cfg.TenantWeights[tenant]; w > 0 {
		return w
	}
	return 1
}

// Submit validates and admits one job. A nil error means the job is
// queued; ErrOverloaded means admission refused it (429); other errors
// are spec problems (400).
func (s *Server) Submit(tenant string, spec Spec) (*jobState, error) {
	if tenant == "" {
		return nil, fmt.Errorf("mrserve: submission needs a tenant")
	}
	spec.Normalize()
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	ts := s.stats.get(tenant)
	ts.submitted.Add(1)

	// The job is registered only once the queue has admitted it, under the
	// one hold of s.mu that also numbers it: a refused job never appears
	// in the table, so there is nothing to take back out — the old
	// register-push-unregister sequence trimmed whichever id was last,
	// which under concurrent submits was another, admitted, job's.
	s.mu.Lock()
	s.seq++
	j := &jobState{
		ID:        fmt.Sprintf("j-%06d", s.seq),
		Tenant:    tenant,
		Spec:      spec,
		cost:      spec.EstimatedInputBytes(),
		status:    StatusQueued,
		submitted: time.Now(),
		done:      make(chan struct{}),
	}
	admitted := s.queue.push(j, s.weight(tenant))
	if admitted {
		s.jobs[j.ID] = j
		s.ids = append(s.ids, j.ID)
	}
	s.mu.Unlock()
	if !admitted {
		ts.rejected.Add(1)
		return nil, ErrOverloaded
	}
	ts.admitted.Add(1)
	s.logf("mrserve: admitted %s tenant=%s app=%s est=%dB", j.ID, tenant, spec.App, j.cost)
	return j, nil
}

// ErrOverloaded is returned by Submit when admission control refuses the
// job; the HTTP layer maps it to 429.
var ErrOverloaded = fmt.Errorf("mrserve: queue full or byte budget exhausted")

// Job looks up a submitted job by ID.
func (s *Server) Job(id string) (*jobState, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// Cancel requests cancellation of a job: a queued job is unqueued and
// finalized immediately; a running job's context is canceled and the
// runtime unwinds it (task loops observe the flag at their next record
// boundary, attempts are swept, intermediates removed).
func (s *Server) Cancel(j *jobState) {
	first := j.requestCancel()
	if s.queue.remove(j) {
		// Never started: finalize here. The latch guarantees the worker
		// can't also finalize it (it never pops).
		j.finish(nil, context.Canceled)
		s.stats.get(j.Tenant).noteFinished(StatusCanceled, 0)
		s.logf("mrserve: canceled %s while queued", j.ID)
		return
	}
	if first {
		s.logf("mrserve: canceling %s", j.ID)
	}
}

// Jobs returns all submitted jobs in submission order.
func (s *Server) Jobs() []*jobState {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*jobState, 0, len(s.ids))
	for _, id := range s.ids {
		if j, ok := s.jobs[id]; ok {
			out = append(out, j)
		}
	}
	return out
}

// worker pops and runs jobs until the queue closes.
func (s *Server) worker() {
	defer s.wg.Done()
	for {
		j, ok := s.queue.pop()
		if !ok {
			return
		}
		s.runJob(j)
	}
}

// runJob executes one admitted job with full per-job isolation: its own
// run context (cancellation), its own tracer, its own chaos injector
// (from the spec), and its own histogram sink, merged into the process
// registry only after the run so concurrent jobs never interleave.
func (s *Server) runJob(j *jobState) {
	ctx, cancel := context.WithCancel(s.baseCtx)
	defer cancel()
	if j.bindContext(cancel) {
		// Canceled while queued but popped before the remove — rare race;
		// finalize without running.
		j.finish(nil, context.Canceled)
		s.stats.get(j.Tenant).noteFinished(StatusCanceled, 0)
		return
	}
	j.setRunning()
	s.logf("mrserve: running %s", j.ID)

	res, err := s.execute(ctx, j)

	j.finish(res, err)
	status, _ := j.snapshotStatus()
	var wall time.Duration
	if res != nil {
		wall = res.Wall
	}
	s.stats.get(j.Tenant).noteFinished(status, wall)
	s.logf("mrserve: %s %s (wall %s)", j.ID, status, wall)
}

func (s *Server) execute(ctx context.Context, j *jobState) (*mr.Result, error) {
	if err := EnsureDatasets(s.c, s.data, &j.Spec); err != nil {
		return nil, err
	}
	job, err := j.Spec.BuildJob(s.c.Nodes())
	if err != nil {
		return nil, err
	}
	tr := trace.New(s.cfg.TraceCapacity)
	j.mu.Lock()
	j.tracer = tr
	j.mu.Unlock()
	job.Trace = tr
	hists := mr.NewHists()
	job.Hists = hists
	res, err := mr.RunContext(ctx, s.c, job)
	// The private sink joins the service-level aggregate whether the job
	// succeeded or not; a failed job's latencies are still real latencies.
	hists.MergeIntoRegistry()
	return res, err
}

// QueueDepth returns current queue occupancy for exposition.
func (s *Server) QueueDepth() (int, int64) { return s.queue.depthBytes() }

// TenantViews renders the per-tenant accounting, sorted by tenant name.
func (s *Server) TenantViews() []TenantView {
	qs := s.queue.stats()
	st := s.stats.snapshot()
	names := make(map[string]bool, len(st))
	for n := range st {
		names[n] = true
	}
	for n := range qs {
		names[n] = true
	}
	out := make([]TenantView, 0, len(names))
	for n := range names {
		t := st[n]
		if t == nil {
			t = newTenantStats()
		}
		q := qs[n]
		w := q.Weight
		if w == 0 {
			w = s.weight(n)
		}
		out = append(out, TenantView{
			Tenant:    n,
			Submitted: t.submitted.Load(),
			Admitted:  t.admitted.Load(),
			Rejected:  t.rejected.Load(),
			Completed: t.completed.Load(),
			Failed:    t.failed.Load(),
			Canceled:  t.canceled.Load(),
			Queued:    q.Queued,
			Grants:    q.Grants,
			Weight:    w,
			WallMS:    float64(t.wallNS.Load()) / 1e6,
			P95WallMS: float64(t.wall.Snapshot().Quantile(0.95)) / 1e6,
		})
	}
	sort.Slice(out, func(i, k int) bool { return out[i].Tenant < out[k].Tenant })
	return out
}
