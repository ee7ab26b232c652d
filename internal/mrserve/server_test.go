package mrserve_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"mrtext/internal/cluster"
	"mrtext/internal/metrics"
	"mrtext/internal/mrserve"
)

func newTestServer(t *testing.T, cfg mrserve.Config) (*mrserve.Server, *httptest.Server) {
	t.Helper()
	if cfg.Cluster == nil {
		cc := cluster.Fast(3)
		cc.BlockSize = 128 << 10
		c, err := cluster.New(cc)
		if err != nil {
			t.Fatalf("cluster: %v", err)
		}
		cfg.Cluster = c
	}
	s, err := mrserve.New(cfg)
	if err != nil {
		t.Fatalf("server: %v", err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

func submit(t *testing.T, ts *httptest.Server, tenant string, spec map[string]any) (*http.Response, mrserve.JobView) {
	t.Helper()
	body, err := json.Marshal(map[string]any{"tenant": tenant, "spec": spec})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	defer resp.Body.Close()
	var view mrserve.JobView
	if resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
			t.Fatalf("decoding submit response: %v", err)
		}
	} else {
		//mrlint:ignore droppederr best-effort body drain of an error response
		_, _ = io.Copy(io.Discard, resp.Body)
	}
	return resp, view
}

func getJob(t *testing.T, ts *httptest.Server, id string) mrserve.JobView {
	t.Helper()
	resp, err := http.Get(ts.URL + "/jobs/" + id)
	if err != nil {
		t.Fatalf("get job: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /jobs/%s: %d", id, resp.StatusCode)
	}
	var view mrserve.JobView
	if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
		t.Fatalf("decoding job view: %v", err)
	}
	return view
}

// pollUntil polls the job until pred holds or the deadline passes.
func pollUntil(t *testing.T, ts *httptest.Server, id string, timeout time.Duration, pred func(mrserve.JobView) bool) mrserve.JobView {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		view := getJob(t, ts, id)
		if pred(view) {
			return view
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck at %s after %s", id, view.Status, timeout)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func isTerminal(v mrserve.JobView) bool {
	switch v.Status {
	case mrserve.StatusDone, mrserve.StatusFailed, mrserve.StatusCanceled:
		return true
	}
	return false
}

// TestServeEndToEnd: two tenants submit over HTTP, jobs complete, output
// is readable, tenant accounting and metrics reflect the runs.
func TestServeEndToEnd(t *testing.T) {
	s, ts := newTestServer(t, mrserve.Config{Workers: 2})
	s.Start()

	specWC := map[string]any{"app": "wordcount", "input_mb": 1}
	specSyn := map[string]any{"app": "syntext", "input_mb": 1, "syntext_cpu": 1}
	resp1, j1 := submit(t, ts, "alice", specWC)
	resp2, j2 := submit(t, ts, "bob", specSyn)
	for i, resp := range []*http.Response{resp1, resp2} {
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d: status %d, want 202", i, resp.StatusCode)
		}
	}
	if j1.ID == j2.ID {
		t.Fatalf("both submissions got id %s", j1.ID)
	}

	v1 := pollUntil(t, ts, j1.ID, 60*time.Second, isTerminal)
	v2 := pollUntil(t, ts, j2.ID, 60*time.Second, isTerminal)
	for _, v := range []mrserve.JobView{v1, v2} {
		if v.Status != mrserve.StatusDone {
			t.Fatalf("job %s finished %s (%s), want done", v.ID, v.Status, v.Error)
		}
		if v.Result == nil || v.Result.WallMS <= 0 || v.Result.MapTasks == 0 {
			t.Fatalf("job %s has an empty result: %+v", v.ID, v.Result)
		}
		if got := v.Result.Metrics.Counters[metrics.CtrMapAttempts]; got < int64(v.Result.MapTasks) {
			t.Errorf("job %s has %d map attempts, inconsistent with %d map tasks",
				v.ID, got, v.Result.MapTasks)
		}
		// The job's own metrics: counters, op times and its latency
		// histograms, one fetch per (map task, partition).
		m := v.Result.Metrics
		if m.Counters[metrics.CtrMapInputRecords] == 0 || m.OpsNS["map"] == 0 {
			t.Errorf("job %s view carries no metrics: %+v", v.ID, m)
		}
		fetches := map[string]uint64{}
		for _, h := range m.Histograms {
			fetches[h.Name] = h.Count
		}
		if got, want := fetches[metrics.HistShuffleFetchNS], uint64(v.Result.MapTasks*v.Result.ReduceTasks); got != want {
			t.Errorf("job %s fetch histogram has %d records, want %d", v.ID, got, want)
		}
	}

	// Output is the concatenated reduce partitions.
	resp, err := http.Get(ts.URL + "/jobs/" + j1.ID + "/output")
	if err != nil {
		t.Fatal(err)
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("output: status %d err %v", resp.StatusCode, err)
	}
	if len(out) == 0 || !bytes.Contains(out, []byte("\n")) {
		t.Fatalf("output is empty or unformatted (%d bytes)", len(out))
	}

	// Tenant accounting.
	tresp, err := http.Get(ts.URL + "/tenants")
	if err != nil {
		t.Fatal(err)
	}
	var tenants []mrserve.TenantView
	if err := json.NewDecoder(tresp.Body).Decode(&tenants); err != nil {
		t.Fatal(err)
	}
	tresp.Body.Close()
	byName := map[string]mrserve.TenantView{}
	for _, tv := range tenants {
		byName[tv.Tenant] = tv
	}
	for _, name := range []string{"alice", "bob"} {
		tv, ok := byName[name]
		if !ok {
			t.Fatalf("tenant %s missing from /tenants: %+v", name, tenants)
		}
		if tv.Submitted != 1 || tv.Admitted != 1 || tv.Completed != 1 {
			t.Errorf("tenant %s accounting %+v, want 1/1/1", name, tv)
		}
		if tv.WallMS <= 0 {
			t.Errorf("tenant %s wall time %v, want > 0", name, tv.WallMS)
		}
	}

	// Metrics exposition carries the per-tenant counters.
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mbody, err := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	metricsText := string(mbody)
	// The runtime section is the two finished jobs' Results merged.
	var wantReduce uint64
	for _, v := range []mrserve.JobView{v1, v2} {
		wantReduce += uint64(v.Result.Metrics.Counters[metrics.CtrReduceAttempts])
	}
	for _, want := range []string{
		`mrserve_jobs_completed_total{tenant="alice"} 1`,
		`mrserve_jobs_completed_total{tenant="bob"} 1`,
		`mrserve_drr_grants_total{tenant="alice"} 1`,
		"mrserve_queue_depth 0",
		`mrtext_counter_total{name="map.input.records"}`,
		fmt.Sprintf("mrtext_reduce_queue_wait_ns_count %d\n", wantReduce),
	} {
		if !strings.Contains(metricsText, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestServeAdmissionControl: with no workers draining, the depth bound
// turns into 429s, and the byte bound refuses an oversized backlog.
func TestServeAdmissionControl(t *testing.T) {
	_, ts := newTestServer(t, mrserve.Config{
		Workers:        1,
		QueueDepth:     2,
		AdmissionBytes: 64 << 20,
	})
	// Server deliberately not started: jobs queue, nothing drains.

	spec := map[string]any{"app": "wordcount", "input_mb": 1}
	for i := 0; i < 2; i++ {
		resp, _ := submit(t, ts, "alice", spec)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d: status %d, want 202", i, resp.StatusCode)
		}
	}
	resp, _ := submit(t, ts, "alice", spec)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("submit over depth bound: status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 carries no Retry-After")
	}

	_, ts2 := newTestServer(t, mrserve.Config{
		Workers:        1,
		QueueDepth:     100,
		AdmissionBytes: 3 << 20,
	})
	if resp, _ := submit(t, ts2, "bob", map[string]any{"app": "wordcount", "input_mb": 2}); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first byte-bound submit: %d", resp.StatusCode)
	}
	if resp, _ := submit(t, ts2, "bob", map[string]any{"app": "wordcount", "input_mb": 2}); resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("submit over byte bound: status %d, want 429", resp.StatusCode)
	}

	// Rejections are visible per tenant.
	tresp, err := http.Get(ts2.URL + "/tenants")
	if err != nil {
		t.Fatal(err)
	}
	var tenants []mrserve.TenantView
	if err := json.NewDecoder(tresp.Body).Decode(&tenants); err != nil {
		t.Fatal(err)
	}
	tresp.Body.Close()
	if len(tenants) != 1 || tenants[0].Rejected != 1 {
		t.Errorf("tenant views %+v, want bob with 1 rejection", tenants)
	}
}

// TestServeBadRequests: malformed body, unknown spec field, trailing
// data, oversized body, unknown app, missing tenant, unknown job id.
func TestServeBadRequests(t *testing.T) {
	srv, ts := newTestServer(t, mrserve.Config{})

	resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed body: status %d, want 400", resp.StatusCode)
	}

	// A field the Spec does not have is refused by name, not ignored (a
	// misspelt knob, or a retired one even at its old default), and a field
	// that sizes an allocation is refused out of range, before any job
	// state exists.
	for field, val := range map[string]string{
		"no_such_knob":      "true",
		"shuffle_buffer_mb": "32",
		"ingest_chunk_kb":   "1024",
		"reducers":          "50000000",
		"spill_buffer_kb":   "-1",
	} {
		resp, err = http.Post(ts.URL+"/jobs", "application/json",
			strings.NewReader(`{"tenant":"alice","spec":{"app":"wordcount","`+field+`":`+val+`}}`))
		if err != nil {
			t.Fatal(err)
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(msg), field) {
			t.Errorf("%s %s: status %d body %s, want 400 naming the field", field, val, resp.StatusCode, msg)
		}
	}
	if n := len(srv.Jobs()); n != 0 {
		t.Errorf("%d jobs registered by refused submissions", n)
	}

	resp, err = http.Post(ts.URL+"/jobs", "application/json",
		strings.NewReader(`{"tenant":"alice","spec":{"app":"wordcount"}} {"tenant":"bob"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("trailing data after the object: status %d, want 400", resp.StatusCode)
	}

	// An oversized body is refused at the limit, not read to its end.
	body := strings.NewReader(`{"tenant":"` + strings.Repeat("0", 4<<20) + `"}`)
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest("POST", "/jobs", body))
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized body: status %d, want 413", rec.Code)
	}
	if body.Len() < 2<<20 {
		t.Errorf("oversized body: handler left %d of %d bytes unread before refusing", body.Len(), body.Size())
	}

	if resp, _ := submit(t, ts, "alice", map[string]any{"app": "sortbenchmark"}); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown app: status %d, want 400", resp.StatusCode)
	}
	if resp, _ := submit(t, ts, "", map[string]any{"app": "wordcount"}); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("missing tenant: status %d, want 400", resp.StatusCode)
	}

	gresp, err := http.Get(ts.URL + "/jobs/j-999999")
	if err != nil {
		t.Fatal(err)
	}
	gresp.Body.Close()
	if gresp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job: status %d, want 404", gresp.StatusCode)
	}
}

// TestServeCancelQueued: canceling a job that never started finalizes it
// as canceled without running it.
func TestServeCancelQueued(t *testing.T) {
	_, ts := newTestServer(t, mrserve.Config{QueueDepth: 4})
	// Not started: the job stays queued.
	resp, view := submit(t, ts, "alice", map[string]any{"app": "wordcount", "input_mb": 1})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d", resp.StatusCode)
	}
	if view.Status != mrserve.StatusQueued {
		t.Fatalf("fresh job is %s, want queued", view.Status)
	}
	cresp, err := http.Post(ts.URL+"/jobs/"+view.ID+"/cancel", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	cresp.Body.Close()
	if cresp.StatusCode != http.StatusOK {
		t.Fatalf("cancel: %d", cresp.StatusCode)
	}
	final := getJob(t, ts, view.ID)
	if final.Status != mrserve.StatusCanceled {
		t.Fatalf("canceled queued job is %s, want canceled", final.Status)
	}
	// Output of a canceled job is a conflict, not a 200.
	oresp, err := http.Get(ts.URL + "/jobs/" + view.ID + "/output")
	if err != nil {
		t.Fatal(err)
	}
	oresp.Body.Close()
	if oresp.StatusCode != http.StatusConflict {
		t.Errorf("output of canceled job: status %d, want 409", oresp.StatusCode)
	}
}

// TestServeCancelRunning: canceling mid-run unwinds the job promptly and
// surfaces it as canceled.
func TestServeCancelRunning(t *testing.T) {
	s, ts := newTestServer(t, mrserve.Config{Workers: 1})
	s.Start()

	// A CPU-heavy app so the running window is seconds wide.
	resp, view := submit(t, ts, "alice", map[string]any{
		"app": "wordpostag", "input_mb": 2, "pos_iterations": 20000,
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d", resp.StatusCode)
	}
	pollUntil(t, ts, view.ID, 60*time.Second, func(v mrserve.JobView) bool {
		return v.Status == mrserve.StatusRunning
	})
	canceledAt := time.Now()
	cresp, err := http.Post(ts.URL+"/jobs/"+view.ID+"/cancel", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	cresp.Body.Close()
	final := pollUntil(t, ts, view.ID, 10*time.Second, isTerminal)
	if final.Status != mrserve.StatusCanceled {
		t.Fatalf("canceled running job is %s (%s), want canceled", final.Status, final.Error)
	}
	if elapsed := time.Since(canceledAt); elapsed > 5*time.Second {
		t.Errorf("cancellation took %s to settle", elapsed)
	}
}

// TestServeFairSchedulingCounters: an eager tenant and a light tenant
// both make progress; DRR grants land for both.
func TestServeFairSchedulingCounters(t *testing.T) {
	s, ts := newTestServer(t, mrserve.Config{Workers: 1, QueueDepth: 32})
	// Queue everything before starting the worker so DRR, not arrival
	// order, decides the schedule.
	for i := 0; i < 3; i++ {
		if resp, _ := submit(t, ts, "eager", map[string]any{"app": "wordcount", "input_mb": 1}); resp.StatusCode != http.StatusAccepted {
			t.Fatalf("eager submit %d refused", i)
		}
	}
	if resp, _ := submit(t, ts, "light", map[string]any{"app": "wordcount", "input_mb": 1}); resp.StatusCode != http.StatusAccepted {
		t.Fatal("light submit refused")
	}
	s.Start()

	deadline := time.Now().Add(60 * time.Second)
	for {
		resp, err := http.Get(ts.URL + "/jobs")
		if err != nil {
			t.Fatal(err)
		}
		var views []mrserve.JobView
		if err := json.NewDecoder(resp.Body).Decode(&views); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		doneCount := 0
		for _, v := range views {
			if v.Status == mrserve.StatusDone {
				doneCount++
			} else if isTerminal(v) {
				t.Fatalf("job %s finished %s: %s", v.ID, v.Status, v.Error)
			}
		}
		if doneCount == 4 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d/4 jobs done", doneCount)
		}
		time.Sleep(50 * time.Millisecond)
	}

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mbody, err := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	text := string(mbody)
	for _, want := range []string{
		`mrserve_drr_grants_total{tenant="eager"} 3`,
		`mrserve_drr_grants_total{tenant="light"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q\n%s", want, grepLines(text, "mrserve_drr"))
		}
	}
}

func grepLines(text, substr string) string {
	var out []string
	for _, line := range strings.Split(text, "\n") {
		if strings.Contains(line, substr) {
			out = append(out, line)
		}
	}
	return strings.Join(out, "\n")
}

// TestSpecValidation exercises the shared validation gate directly.
func TestSpecValidation(t *testing.T) {
	cases := []struct {
		name string
		spec mrserve.Spec
		ok   bool
	}{
		{"known app", mrserve.Spec{App: "WordCount"}, true},
		{"unknown app", mrserve.Spec{App: "terasort"}, false},
		{"bad storage", mrserve.Spec{App: "syntext", SynTextStorage: 2}, false},
		{"bad chaos rate", mrserve.Spec{App: "wordcount", Chaos: &mrserve.ChaosSpec{FailRate: 1.5}}, false},
		{"chaos ok", mrserve.Spec{App: "wordcount", Chaos: &mrserve.ChaosSpec{Seed: 3, FailRate: 0.2}}, true},
		// The spec mrrun builds from -reducers, -buffer-kb and friends.
		{"reducers at cap", mrserve.Spec{App: "wordcount", Reducers: 4096}, true},
		{"reducers over cap", mrserve.Spec{App: "wordcount", Reducers: 4097}, false},
		{"negative reducers", mrserve.Spec{App: "wordcount", Reducers: -1}, false},
		{"negative spill buffer", mrserve.Spec{App: "wordcount", SpillBufferKB: -1}, false},
	}
	for _, tc := range cases {
		spec := tc.spec
		spec.Normalize()
		err := spec.Validate()
		if (err == nil) != tc.ok {
			t.Errorf("%s: Validate() = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
	var s mrserve.Spec
	s.App = "wordcount"
	s.Normalize()
	if s.InputMB != 16 {
		t.Errorf("default InputMB = %d, want 16", s.InputMB)
	}
	if s.EstimatedInputBytes() != 16<<20 {
		t.Errorf("EstimatedInputBytes = %d", s.EstimatedInputBytes())
	}
}

// TestSubmitOverloadKeepsAdmittedJobs races 64 submissions against a
// depth-1 queue nobody drains: exactly one is admitted, and refusing the
// other 63 must not take the admitted job out of the job list.
func TestSubmitOverloadKeepsAdmittedJobs(t *testing.T) {
	for round := 0; round < 20; round++ {
		s, _ := newTestServer(t, mrserve.Config{Workers: 1, QueueDepth: 1})
		// Server deliberately not started: the admitted job stays queued.
		const submitters = 64
		var (
			wg       sync.WaitGroup
			mu       sync.Mutex
			admitted = map[string]bool{}
			start    = make(chan struct{})
		)
		for i := 0; i < submitters; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				j, err := s.Submit("alice", mrserve.Spec{App: "wordcount", InputMB: 1})
				if err == nil {
					mu.Lock()
					admitted[j.ID] = true
					mu.Unlock()
				} else if !errors.Is(err, mrserve.ErrOverloaded) {
					t.Errorf("submit: %v", err)
				}
			}()
		}
		close(start)
		wg.Wait()
		if len(admitted) != 1 {
			t.Fatalf("round %d: %d jobs admitted to a depth-1 queue", round, len(admitted))
		}
		listed := s.Jobs()
		if len(listed) != 1 || !admitted[listed[0].ID] {
			ids := make([]string, len(listed))
			for i, j := range listed {
				ids[i] = j.ID
			}
			t.Fatalf("round %d: Jobs() = %v, admitted %v", round, ids, admitted)
		}
		if j, ok := s.Job(listed[0].ID); !ok || j != listed[0] {
			t.Fatalf("round %d: admitted job %s not found by id", round, listed[0].ID)
		}
	}
}
