package mr_test

import (
	"bytes"
	"context"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"mrtext/internal/cluster"
	"mrtext/internal/mr"
	"mrtext/internal/textgen"
	"mrtext/internal/vdisk"
)

// Cancellation suite: RunContext must unwind a running job when its
// context ends — promptly (within 2s) and cleanly (zero attempt temp
// files, map outputs, or reduce outputs left on any disk).

// diskSnapshot captures every file name on every node disk, so a
// cancel-and-sweep can be checked by set equality: whatever the canceled
// job created must be gone, whatever predated it must remain.
func diskSnapshot(t *testing.T, c *cluster.Cluster) map[string]bool {
	t.Helper()
	files := map[string]bool{}
	for i, d := range c.Disks {
		mem, ok := d.(*vdisk.Mem)
		if !ok {
			t.Fatalf("disk %d is %T, want *vdisk.Mem (use an unthrottled, chaos-free cluster)", i, d)
		}
		for _, name := range mem.List() {
			files[string(rune('0'+i))+":"+name] = true
		}
	}
	return files
}

func diffSnapshots(before, after map[string]bool) []string {
	var leaked []string
	for name := range after {
		if !before[name] {
			leaked = append(leaked, name)
		}
	}
	sort.Strings(leaked)
	return leaked
}

// signalMapper emits (word, 1) per word, closes started on its first
// record, and then dawdles so the job is reliably mid-map when the test
// cancels it.
type signalMapper struct {
	once    *sync.Once
	started chan<- struct{}
}

func (m *signalMapper) Map(_ int64, line []byte, out mr.Collector) error {
	m.once.Do(func() { close(m.started) })
	time.Sleep(200 * time.Microsecond)
	for _, w := range bytes.Fields(line) {
		if err := out.Collect(w, []byte("1")); err != nil {
			return err
		}
	}
	return nil
}

// signalReducer signals on its first group and then slows each group so
// the job is reliably mid-reduce when canceled.
type signalReducer struct {
	once    *sync.Once
	started chan<- struct{}
}

func (r *signalReducer) Reduce(key []byte, values mr.ValueIter, out mr.Collector) error {
	r.once.Do(func() { close(r.started) })
	time.Sleep(100 * time.Microsecond)
	var n int64
	for {
		_, ok, err := values.Next()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		n++
	}
	var buf [20]byte
	return out.Collect(key, appendInt(buf[:0], n))
}

func appendInt(b []byte, n int64) []byte {
	if n == 0 {
		return append(b, '0')
	}
	var tmp [20]byte
	i := len(tmp)
	for n > 0 {
		i--
		tmp[i] = byte('0' + n%10)
		n /= 10
	}
	return append(b, tmp[i:]...)
}

type countReduce struct{}

func (countReduce) Reduce(key []byte, values mr.ValueIter, out mr.Collector) error {
	var n int64
	for {
		_, ok, err := values.Next()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		n++
	}
	var buf [20]byte
	return out.Collect(key, appendInt(buf[:0], n))
}

func newCancelCluster(t *testing.T) *cluster.Cluster {
	t.Helper()
	cfg := cluster.Fast(3)
	cfg.BlockSize = 32 << 10
	c, err := cluster.New(cfg)
	if err != nil {
		t.Fatalf("cluster: %v", err)
	}
	w, err := c.FS.Create("corpus.txt", 0)
	if err != nil {
		t.Fatalf("create corpus: %v", err)
	}
	gen := textgen.CorpusConfig{Vocabulary: 2000, Alpha: 1.0, WordsPerLine: 8, Seed: 5}
	if _, err := textgen.Corpus(w, gen, 256<<10); err != nil {
		t.Fatalf("generate corpus: %v", err)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("close corpus: %v", err)
	}
	return c
}

// runCanceled runs job under a context canceled as soon as started
// closes, and asserts the prompt-and-clean contract.
func runCanceled(t *testing.T, c *cluster.Cluster, job *mr.Job, started <-chan struct{}) {
	t.Helper()
	before := diskSnapshot(t, c)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	type outcome struct {
		res *mr.Result
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := mr.RunContext(ctx, c, job)
		done <- outcome{res, err}
	}()

	select {
	case <-started:
	case <-time.After(30 * time.Second):
		t.Fatal("job never reached the signal point")
	}
	canceledAt := time.Now()
	cancel()

	var out outcome
	select {
	case out = <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("RunContext did not return after cancellation")
	}
	if elapsed := time.Since(canceledAt); elapsed > 2*time.Second {
		t.Errorf("RunContext took %s to unwind after cancel, want <= 2s", elapsed)
	}
	if out.err == nil {
		t.Fatal("canceled job returned nil error")
	}
	if !strings.Contains(out.err.Error(), "canceled") {
		t.Errorf("canceled job's error = %q, want it to say canceled", out.err)
	}
	if out.res != nil {
		t.Errorf("canceled job returned a non-nil Result")
	}
	if leaked := diffSnapshots(before, diskSnapshot(t, c)); len(leaked) != 0 {
		t.Errorf("canceled job leaked %d files:\n  %s", len(leaked), strings.Join(leaked, "\n  "))
	}
	assertRegionsHome(t, c)
}

// TestCancelMidMap cancels while map attempts are mid-split.
func TestCancelMidMap(t *testing.T) {
	c := newCancelCluster(t)
	started := make(chan struct{})
	var once sync.Once
	job := &mr.Job{
		Name:   "cancel-map",
		Inputs: []string{"corpus.txt"},
		NewMapper: func() mr.Mapper {
			return &signalMapper{once: &once, started: started}
		},
		NewReducer:       func() mr.Reducer { return countReduce{} },
		NumReducers:      3,
		SpillBufferBytes: 16 << 10,
	}
	runCanceled(t, c, job, started)
}

// TestCancelMidReduce cancels after the first reduce group, so in-flight
// shuffle fetches and the reduce NextGroup loop both observe the flag.
func TestCancelMidReduce(t *testing.T) {
	c := newCancelCluster(t)
	started := make(chan struct{})
	var once sync.Once
	job := &mr.Job{
		Name:   "cancel-reduce",
		Inputs: []string{"corpus.txt"},
		NewMapper: func() mr.Mapper {
			return mr.MapperFunc(func(_ int64, line []byte, out mr.Collector) error {
				for _, w := range bytes.Fields(line) {
					if err := out.Collect(w, []byte("1")); err != nil {
						return err
					}
				}
				return nil
			})
		},
		NewReducer: func() mr.Reducer {
			return &signalReducer{once: &once, started: started}
		},
		NumReducers:      3,
		SpillBufferBytes: 16 << 10,
	}
	runCanceled(t, c, job, started)
}

// TestCancelBeforeStart: a context canceled before RunContext is called
// fails immediately without starting any attempt.
func TestCancelBeforeStart(t *testing.T) {
	c := newCancelCluster(t)
	before := diskSnapshot(t, c)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	job := &mr.Job{
		Name:   "cancel-early",
		Inputs: []string{"corpus.txt"},
		NewMapper: func() mr.Mapper {
			return mr.MapperFunc(func(_ int64, line []byte, out mr.Collector) error { return nil })
		},
		NewReducer:  func() mr.Reducer { return countReduce{} },
		NumReducers: 2,
	}
	if _, err := mr.RunContext(ctx, c, job); err == nil {
		t.Fatal("pre-canceled context ran to completion")
	}
	if leaked := diffSnapshots(before, diskSnapshot(t, c)); len(leaked) != 0 {
		t.Errorf("pre-canceled job leaked files: %v", leaked)
	}
}
