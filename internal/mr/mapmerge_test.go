package mr

import (
	"errors"
	"io"
	"strings"
	"sync"
	"testing"

	"mrtext/internal/kvio"
	"mrtext/internal/metrics"
	"mrtext/internal/trace"
	"mrtext/internal/vdisk"
)

// spillWatch is shared by the watched disks of one cluster: it counts the
// reads opened on spill runs, fails the failAt-th of them (0: none), and
// keeps every reader it let through to see whether it was closed.
type spillWatch struct {
	mu      sync.Mutex
	failAt  int
	opens   int
	failed  string // the run whose open was refused
	readers []*watchedReader
}

var errSpillOpen = errors.New("injected spill open failure")

// admit counts one open of a spill run and says whether it may proceed.
func (w *spillWatch) admit(name string) error {
	if !strings.Contains(name, "/spill") {
		return nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	w.opens++
	if w.opens == w.failAt {
		w.failed = name
		return errSpillOpen
	}
	return nil
}

func (w *spillWatch) track(name string, rc io.ReadCloser) io.ReadCloser {
	if !strings.Contains(name, "/spill") {
		return rc
	}
	r := &watchedReader{ReadCloser: rc, w: w}
	w.mu.Lock()
	w.readers = append(w.readers, r)
	w.mu.Unlock()
	return r
}

// unclosed counts the spill readers handed out and never closed.
func (w *spillWatch) unclosed() (open, total int) {
	w.mu.Lock()
	defer w.mu.Unlock()
	for _, r := range w.readers {
		if !r.closed {
			open++
		}
	}
	return open, len(w.readers)
}

type watchedReader struct {
	io.ReadCloser
	w      *spillWatch
	closed bool
}

func (r *watchedReader) Close() error {
	r.w.mu.Lock()
	r.closed = true
	r.w.mu.Unlock()
	return r.ReadCloser.Close()
}

// watchedDisk routes a node disk's opens through a spillWatch.
type watchedDisk struct {
	vdisk.Disk
	w *spillWatch
}

func (d watchedDisk) Open(name string) (io.ReadCloser, error) {
	if err := d.w.admit(name); err != nil {
		return nil, err
	}
	rc, err := d.Disk.Open(name)
	if err != nil {
		return nil, err
	}
	return d.w.track(name, rc), nil
}

func (d watchedDisk) OpenSection(name string, off, length int64) (io.ReadCloser, error) {
	if err := d.w.admit(name); err != nil {
		return nil, err
	}
	rc, err := d.Disk.OpenSection(name, off, length)
	if err != nil {
		return nil, err
	}
	return d.w.track(name, rc), nil
}

// TestMapMergeOpensEachRunOnce pins the map-side merge's open count: a
// task of k spill runs and r partitions opens k files for reading, not
// k·r sections, and closes each of them.
func TestMapMergeOpensEachRunOnce(t *testing.T) {
	c, split := oneSplit(t, wordsInput(4000, 8, 3000))
	w := &spillWatch{}
	c.Disks[0] = watchedDisk{Disk: c.Disks[0], w: w}
	job := acctJob(t, sumValues, 64<<10, nil)
	job.NumReducers = 6
	before := c.Disks[0].Stats().Opens
	out, rep, _, err := runMapTask(c, job, metrics.NewTaskMetrics(), 0, split, 0, 0, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	runs := rep.Spill.Spills
	if runs < 3 || len(out.index.Segments) != 6 || out.index.TotalRecords() != 3000 {
		t.Fatalf("%d runs merged into %d partitions of %d records; want several runs, 6 partitions, 3000 records", runs, len(out.index.Segments), out.index.TotalRecords())
	}
	if w.opens != runs {
		t.Errorf("the merge of %d runs over 6 partitions opened spill runs %d times, want %d", runs, w.opens, runs)
	}
	// Everything else the task opened on its node disk is its input split.
	if got := c.Disks[0].Stats().Opens - before; got > int64(runs)+1 {
		t.Errorf("the map task opened %d files on its disk, want its %d runs and at most one input block", got, runs)
	}
	if open, total := w.unclosed(); open != 0 || total != runs {
		t.Errorf("%d of %d spill readers left open", open, total)
	}
}

// TestMapMergeOpenFailure: the second spill-run open of the job fails. The
// attempt that met it closes the run it had already opened, ends its merge
// span, and fails; its retry succeeds and the job's output is the
// reference executor's. On the parent the first run's reader stayed open
// and the failed attempt's merge span was never recorded.
func TestMapMergeOpenFailure(t *testing.T) {
	c := buildFS(t, wordsInput(6000, 8, 2500), 128<<10)
	w := &spillWatch{failAt: 2}
	for i := range c.Disks {
		c.Disks[i] = watchedDisk{Disk: c.Disks[i], w: w}
	}
	want, err := RunReference(c, wordSumSpec("merge-open-ref"))
	if err != nil {
		t.Fatal(err)
	}
	job := wordSumSpec("merge-open")
	job.Trace = trace.New(1 << 14)
	res, err := Run(c, job)
	if err != nil {
		t.Fatalf("one failed spill open failed the job: %v", err)
	}
	if w.failed == "" || res.FailedAttempts != 1 {
		t.Fatalf("refused open %q, %d failed attempts; want one of each", w.failed, res.FailedAttempts)
	}
	if open, total := w.unclosed(); open != 0 || total == 0 {
		t.Errorf("%d of %d spill readers left open", open, total)
	}
	var failedSpans, mergeSpans int
	for _, ev := range job.Trace.Events() {
		if ev.Kind != trace.KindMerge {
			continue
		}
		mergeSpans++
		if ev.Records == 0 && ev.Arg == 0 {
			failedSpans++
		}
	}
	if failedSpans != 1 || mergeSpans < 2 {
		t.Errorf("%d merge spans, %d of them the failed first attempt's; want its span closed and the retry's beside it", mergeSpans, failedSpans)
	}
	assertReferenceOutput(t, c, res, want)
}

// TestMergeSpillRunsClosesOnEveryExit: a stream error in the middle of the
// merge (a run file cut short) leaves no run open either.
func TestMergeSpillRunsClosesOnEveryExit(t *testing.T) {
	c, _ := oneSplit(t, []byte("x\n"))
	w := &spillWatch{}
	disk := watchedDisk{Disk: c.Disks[0], w: w}
	job := acctJob(t, nil, 64<<10, nil)
	var runs []kvio.RunIndex
	for i, name := range []string{"t/spill0000", "t/spill0001"} {
		sink, err := kvio.NewRunSink(disk, name, 2, false)
		if err != nil {
			t.Fatal(err)
		}
		for p := 0; p < 2; p++ {
			if err := sink.Append(p, []byte{'k', byte('0' + i)}, one); err != nil {
				t.Fatal(err)
			}
		}
		idx, err := sink.Close()
		if err != nil {
			t.Fatal(err)
		}
		runs = append(runs, idx)
	}
	runs[1].Segments[1].Len += 10 // the index promises bytes the file does not hold
	out, err := kvio.NewRunSink(disk, "t/out", 2, false)
	if err != nil {
		t.Fatal(err)
	}
	tm := metrics.NewTaskMetrics()
	_, err = mergeSpillRuns(job, disk, runs, out, nil, tm, spanner{})
	if !errors.Is(err, io.ErrUnexpectedEOF) || !strings.Contains(err.Error(), "t/spill0001") {
		t.Errorf("merge over a cut run: %v; want io.ErrUnexpectedEOF naming it", err)
	}
	if open, total := w.unclosed(); open != 0 || total != 2 {
		t.Errorf("%d of %d spill readers left open", open, total)
	}
}
