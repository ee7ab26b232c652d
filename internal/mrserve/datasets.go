package mrserve

import (
	"sync"

	"mrtext/internal/cluster"
)

// DatasetCache deduplicates dataset generation on a shared cluster. The
// dataset names are deterministic functions of their parameters, so two
// jobs wanting "corpus-16mb.txt" want the same bytes; the cache makes the
// first submitter generate while the rest wait (singleflight), and makes
// every later job a lookup. A generation failure is cached too — the
// input would be identically broken on retry, so resubmission reports the
// original error instead of thrashing the DFS.
type DatasetCache struct {
	mu       sync.Mutex
	inflight map[string]chan struct{}
	done     map[string]error
}

// NewDatasetCache returns an empty cache.
func NewDatasetCache() *DatasetCache {
	return &DatasetCache{
		inflight: make(map[string]chan struct{}),
		done:     make(map[string]error),
	}
}

// ensure generates ds on the cluster unless it already exists (in the
// cache or, for datasets predating this cache, on the DFS itself).
func (dc *DatasetCache) ensure(c *cluster.Cluster, ds Dataset) error {
	for {
		dc.mu.Lock()
		if err, ok := dc.done[ds.Name]; ok {
			dc.mu.Unlock()
			return err
		}
		if ch, ok := dc.inflight[ds.Name]; ok {
			dc.mu.Unlock()
			<-ch
			continue // re-check the result under the lock
		}
		ch := make(chan struct{})
		dc.inflight[ds.Name] = ch
		dc.mu.Unlock()

		err := dc.generate(c, ds)
		dc.mu.Lock()
		dc.done[ds.Name] = err
		delete(dc.inflight, ds.Name)
		dc.mu.Unlock()
		close(ch)
		return err
	}
}

func (dc *DatasetCache) generate(c *cluster.Cluster, ds Dataset) error {
	if c.FS.Exists(ds.Name) {
		return nil // already on the DFS (e.g. generated by an earlier process)
	}
	return c.FS.WriteWith(ds.Name, ds.generate)
}
