package mr

import "mrtext/internal/metrics"

// Hists bundles the latency histograms the runtime records for one job:
//
//   - ShuffleFetch: wall time to acquire one source segment on the
//     reduce side (staged hand-off or direct fetch, retries included).
//   - QueueWait: reduce attempts' time between enqueue and worker
//     pickup.
//
// A one-shot CLI run records straight into the process-wide registry
// instruments (the defaultHists set withDefaults installs when Job.Hists
// is nil), so /metrics and the JSON dumps keep working unchanged. A job
// service running concurrent jobs hands each job a private NewHists set
// instead, so one job's tail latencies never interleave with another's,
// and folds the set into the registry after the job completes.
type Hists struct {
	ShuffleFetch *metrics.Histogram
	QueueWait    *metrics.Histogram
}

// NewHists returns a private histogram set for one job, unregistered so
// concurrent jobs' observations stay isolated. Fold it into the
// process-wide registry with MergeIntoRegistry once the job is done.
func NewHists() *Hists {
	return &Hists{
		ShuffleFetch: metrics.NewHistogram(metrics.HistShuffleFetchNS),
		QueueWait:    metrics.NewHistogram(metrics.HistReduceQueueWaitNS),
	}
}

// defaultHists returns the registry-backed set: every Record lands
// directly on the process-wide instruments. The registry hands out
// stable pointers, so the hot paths resolve each histogram once per job
// and Record with no lookup, no lock, and no allocation.
func defaultHists() *Hists {
	return &Hists{
		ShuffleFetch: metrics.GetHistogram(metrics.HistShuffleFetchNS),
		QueueWait:    metrics.GetHistogram(metrics.HistReduceQueueWaitNS),
	}
}

// MergeIntoRegistry folds a private set's observations into the
// process-wide registry histograms of the same names. Calling it on the
// defaultHists set would double-count; only private NewHists sets should
// be merged.
func (h *Hists) MergeIntoRegistry() {
	metrics.MergeIntoRegistry(h.ShuffleFetch)
	metrics.MergeIntoRegistry(h.QueueWait)
}
