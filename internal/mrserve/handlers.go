package mrserve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"

	"mrtext/internal/metrics"
	"mrtext/internal/pprofserve"
)

// SubmitRequest is the POST /jobs body: which tenant the job bills to and
// what to run.
type SubmitRequest struct {
	Tenant string `json:"tenant"`
	Spec   Spec   `json:"spec"`
}

// Handler returns the service's HTTP API:
//
//	POST /jobs              submit (202 queued, 400 bad spec, 413 body over 1 MiB, 429 refused)
//	GET  /jobs              list all jobs, submission order
//	GET  /jobs/{id}         status, metrics, attempt ledger
//	POST /jobs/{id}/cancel  cancel queued or running
//	GET  /jobs/{id}/output  concatenated job output
//	GET  /tenants           per-tenant accounting
//	GET  /metrics           Prometheus text: service counters + runtime registry
//	/debug/                 pprof and expvar (pprofserve)
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", s.handleSubmit)
	mux.HandleFunc("GET /jobs", s.handleList)
	mux.HandleFunc("GET /jobs/{id}", s.handleJob)
	mux.HandleFunc("POST /jobs/{id}/cancel", s.handleCancel)
	mux.HandleFunc("GET /jobs/{id}/output", s.handleOutput)
	mux.HandleFunc("GET /tenants", s.handleTenants)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.Handle("/debug/", pprofserve.Handler())
	return mux
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	//mrlint:ignore droppederr a failed response write means the client went away; nothing to report
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}

// maxSubmitBody bounds a POST /jobs body; a spec is a few hundred bytes.
const maxSubmitBody = 1 << 20

// handleSubmit decodes exactly one SubmitRequest object: a body over
// maxSubmitBody, a field the Spec does not have (a misspelt or retired
// knob would otherwise be silently ignored) or anything after the object
// is refused.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req SubmitRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSubmitBody))
	dec.DisallowUnknownFields()
	err := dec.Decode(&req)
	if err == nil {
		if _, terr := dec.Token(); terr != io.EOF {
			err = errors.New("trailing data after the request object")
		}
	}
	if err != nil {
		code := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			code = http.StatusRequestEntityTooLarge
		}
		writeError(w, code, fmt.Errorf("mrserve: bad submit body: %w", err))
		return
	}
	j, err := s.Submit(req.Tenant, req.Spec)
	if err != nil {
		if errors.Is(err, ErrOverloaded) {
			w.Header().Set("Retry-After", "1")
			writeError(w, http.StatusTooManyRequests, err)
			return
		}
		writeError(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusAccepted, j.view())
}

func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	jobs := s.Jobs()
	views := make([]JobView, 0, len(jobs))
	for _, j := range jobs {
		views = append(views, j.view())
	}
	writeJSON(w, http.StatusOK, views)
}

func (s *Server) job(w http.ResponseWriter, r *http.Request) (*jobState, bool) {
	j, ok := s.Job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("mrserve: no job %q", r.PathValue("id")))
	}
	return j, ok
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	if j, ok := s.job(w, r); ok {
		writeJSON(w, http.StatusOK, j.view())
	}
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(w, r)
	if !ok {
		return
	}
	s.Cancel(j)
	writeJSON(w, http.StatusOK, j.view())
}

func (s *Server) handleOutput(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(w, r)
	if !ok {
		return
	}
	status, res := j.snapshotStatus()
	if status != StatusDone || res == nil {
		writeError(w, http.StatusConflict,
			fmt.Errorf("mrserve: job %s is %s; output exists only for done jobs", j.ID, status))
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	for _, name := range res.Outputs {
		b, err := s.c.FS.ReadFile(name)
		if err != nil {
			// Headers are gone; the best we can do is truncate mid-stream.
			s.logf("mrserve: reading output %s of %s: %v", name, j.ID, err)
			return
		}
		if _, err := w.Write(b); err != nil {
			return
		}
	}
}

func (s *Server) handleTenants(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.TenantViews())
}

// handleMetrics writes the service-level Prometheus lines (per-tenant
// admission/fairness counters, queue occupancy, per-tenant wall-time
// histograms) followed by the process-wide runtime registry. The service
// lines are built in memory and written once; a write failure means the
// scrape client went away.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	var b strings.Builder
	depth, bytes := s.QueueDepth()
	fmt.Fprintf(&b, "# TYPE mrserve_queue_depth gauge\nmrserve_queue_depth %d\n", depth)
	fmt.Fprintf(&b, "# TYPE mrserve_queue_bytes gauge\nmrserve_queue_bytes %d\n", bytes)

	views := s.TenantViews()
	qs := s.queue.stats()
	counter := func(name, help string, pick func(TenantView) int64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s counter\n", name, help, name)
		for _, v := range views {
			fmt.Fprintf(&b, "%s{tenant=%q} %d\n", name, v.Tenant, pick(v))
		}
	}
	counter("mrserve_jobs_submitted_total", "jobs submitted", func(v TenantView) int64 { return v.Submitted })
	counter("mrserve_jobs_admitted_total", "jobs admitted past the queue bound", func(v TenantView) int64 { return v.Admitted })
	counter("mrserve_jobs_rejected_total", "jobs refused with 429", func(v TenantView) int64 { return v.Rejected })
	counter("mrserve_jobs_completed_total", "jobs finished successfully", func(v TenantView) int64 { return v.Completed })
	counter("mrserve_jobs_failed_total", "jobs finished with an error", func(v TenantView) int64 { return v.Failed })
	counter("mrserve_jobs_canceled_total", "jobs canceled", func(v TenantView) int64 { return v.Canceled })
	counter("mrserve_drr_grants_total", "DRR dequeues granted", func(v TenantView) int64 { return v.Grants })

	fmt.Fprintf(&b, "# HELP mrserve_drr_credit_rounds_total DRR credit rounds a tenant backlog waited through\n")
	fmt.Fprintf(&b, "# TYPE mrserve_drr_credit_rounds_total counter\n")
	names := make([]string, 0, len(qs))
	for n := range qs {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(&b, "mrserve_drr_credit_rounds_total{tenant=%q} %d\n", n, qs[n].CreditRounds)
	}

	fmt.Fprintf(&b, "# HELP mrserve_job_wall_ms job wall time per tenant\n")
	fmt.Fprintf(&b, "# TYPE mrserve_job_wall_ms summary\n")
	for _, v := range views {
		fmt.Fprintf(&b, "mrserve_job_wall_ms{tenant=%q,quantile=\"0.95\"} %g\n", v.Tenant, v.P95WallMS)
		fmt.Fprintf(&b, "mrserve_job_wall_ms_sum{tenant=%q} %g\n", v.Tenant, v.WallMS)
		fmt.Fprintf(&b, "mrserve_job_wall_ms_count{tenant=%q} %d\n", v.Tenant, v.Completed+v.Failed)
	}

	if _, err := io.WriteString(w, b.String()); err != nil {
		return
	}
	//mrlint:ignore droppederr a failed exposition write means the scrape client went away; nothing to report
	_ = metrics.WritePrometheus(w)
}
