package mr

import (
	"errors"
	"fmt"
	"io"
	"slices"
	"strings"
	"sync"
	"testing"

	"mrtext/internal/chaos"
	"mrtext/internal/kvio"
	"mrtext/internal/metrics"
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

// TestShuffleReadsEachRunOnce: a map task of several spill runs over r
// partitions opens none of them — no map-side merge reads them back — and
// the shuffle's copiers then stage every partition of every run with one
// open per run, where a read per (run, partition) made r; the reduce side
// takes every segment from staging, with no open at all, and every reader
// is closed.
func TestShuffleReadsEachRunOnce(t *testing.T) {
	c, split := oneSplit(t, wordsInput(4000, 8, 3000))
	w := &spillWatch{}
	c.Disks[0] = watchedDisk{Disk: c.Disks[0], w: w}
	job := acctJob(t, sumValues, 64<<10, nil)
	job.NumReducers = 6
	out, rep, _, err := runMapTask(c, job, metrics.NewTaskMetrics(), 0, split, 0, 0, 0, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	runs := len(out.runs)
	if runs < 3 || runs != rep.Spill.Spills {
		t.Fatalf("%d runs from %d spills; want several, one per spill", runs, rep.Spill.Spills)
	}
	var records, segs int64
	for _, run := range out.runs {
		records += run.TotalRecords()
		for _, seg := range run.Segments {
			if seg.Len > 0 {
				segs++
			}
		}
	}
	if records < 3000 {
		t.Fatalf("the runs hold %d records of 3000 words", records)
	}
	if w.opens != 0 {
		t.Errorf("the map task opened its spill runs %d times, want none", w.opens)
	}

	svc := newShuffleService(c, job)
	defer svc.close()
	svc.offer(0, out)
	waitStagedSegments(t, svc, segs)
	if w.opens != runs {
		t.Errorf("staging %d runs over 6 partitions opened them %d times, want %d", runs, w.opens, runs)
	}
	for p := 0; p < job.NumReducers; p++ {
		acct := &reduceAccount{tm: metrics.NewTaskMetrics()}
		streams, err := fetchConcurrent(c, job, &shuffleEnv{svc: svc}, p, 0, nil, []mapOutput{out}, acct, spanner{})
		if err != nil {
			t.Fatal(err)
		}
		if err := closeStreams(streams); err != nil {
			t.Fatal(err)
		}
	}
	if hits := svc.tm.Counter(metrics.CtrShuffleStagedHits); hits != segs || w.opens != runs {
		t.Errorf("%d of %d segments taken from staging, %d opens of %d runs; want every segment staged and no open by the reduce side", hits, segs, w.opens, runs)
	}
	if open, total := w.unclosed(); open != 0 || total != runs {
		t.Errorf("%d of %d spill readers left open", open, total)
	}
}

// TestRunOpenFailure: with nothing staged, the second spill-run open of the
// job — a reduce attempt's direct fetch — fails. The attempt that met it
// closes the runs it had already opened and fails; its retry succeeds and
// the job's output is the reference executor's.
func TestRunOpenFailure(t *testing.T) {
	c := buildFS(t, wordsInput(6000, 8, 2500), 128<<10)
	w := &spillWatch{failAt: 2}
	for i := range c.Disks {
		c.Disks[i] = watchedDisk{Disk: c.Disks[i], w: w}
	}
	want, err := RunReference(c, wordSumSpec("run-open-ref"))
	if err != nil {
		t.Fatal(err)
	}
	job := wordSumSpec("run-open")
	job.stagingBytes = 1 // every segment is direct-fetched
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
	assertReferenceOutput(t, c, res, want)
}

// TestRecoveryRefetchesEveryRun: a reduce attempt whose source node is
// found dead mid-fetch — one run of the lost output already taken from
// staging, the next on the dead disk — drops what it had of the lost
// output and fetches every run of the re-run, which cut its spills
// elsewhere: its streams are the re-run's runs, none of the lost
// attempt's, staged or not.
func TestRecoveryRefetchesEveryRun(t *testing.T) {
	c := newUnitCluster(t, &chaos.Config{KillNode: -1})
	lost := writeUnitMapOuts(t, c, false)[1] // two runs on node 1
	rerun := mapOutput{node: 0}
	for r := 0; r < 3; r++ { // the same records, cut into three runs
		sink, err := kvio.NewRunSink(c.Disks[0], fmt.Sprintf("rerun-r%d", r), unitParts, false)
		if err != nil {
			t.Fatal(err)
		}
		for p := 0; p < unitParts; p++ {
			for i := r; i < 50 && p != 2; i += 3 {
				if err := sink.Append(p, []byte(fmt.Sprintf("k%d-%03d", p, i)), []byte("m1")); err != nil {
					t.Fatal(err)
				}
			}
		}
		idx, err := sink.Close()
		if err != nil {
			t.Fatal(err)
		}
		rerun.runs = append(rerun.runs, idx)
	}
	job := unitShuffleJob(1 << 20)
	svc := newShuffleService(c, job)
	defer svc.close()
	svc.offer(1, mapOutput{node: lost.node, runs: lost.runs[:1]}) // stage the first run only
	waitStagedSegments(t, svc, unitParts-1)

	c.Chaos.Arm()
	defer c.Chaos.Disarm()
	c.Chaos.Kill(lost.node)
	resnapshots := 0
	sh := &shuffleEnv{svc: svc, resnapshot: func() []mapOutput {
		resnapshots++
		return []mapOutput{rerun}
	}}
	const part = 1
	acct := &reduceAccount{tm: metrics.NewTaskMetrics()}
	streams, err := fetchConcurrent(c, job, sh, part, 0, nil, []mapOutput{lost}, acct, spanner{})
	if err != nil {
		t.Fatalf("fetch across the node death: %v", err)
	}
	if resnapshots != 1 {
		t.Errorf("%d resnapshots, want 1", resnapshots)
	}
	want, _ := wantStreams(t, c.Disks, []mapOutput{rerun}, part)
	if len(streams) != len(want) {
		t.Fatalf("%d streams after recovery, want the re-run's %d runs", len(streams), len(want))
	}
	var wantBytes int64
	for _, run := range rerun.runs {
		wantBytes += run.Segments[part].Len
	}
	if got := acct.tm.Counter(metrics.CtrShuffleBytes); got != wantBytes {
		t.Errorf("counted %d shuffle bytes, the re-run's segments hold %d", got, wantBytes)
	}
	for i, st := range streams {
		if got := drainStream(t, st); !slices.Equal(got, want[i]) {
			t.Errorf("stream %d: %q, the re-run's run %d holds %q", i, got, i, want[i])
		}
	}
}

// TestLosingMapAttemptLeavesNoRun: two attempts of one map task finish,
// as a slow original and its speculative backup would. The first commits
// its runs; the second finds the task committed and loses, and none of
// its runs is left on the disk or in staging, where it offered each as it
// wrote it.
func TestLosingMapAttemptLeavesNoRun(t *testing.T) {
	c, split := oneSplit(t, wordsInput(4000, 8, 3000))
	job := acctJob(t, sumValues, 64<<10, nil)
	ft := newFTRun(c, job, []Split{split})
	ft.shuffle = newShuffleService(c, job)
	defer ft.shuffle.close()
	ph := newPhase(1, newScheduler(c.Nodes(), c.MapSlots(), ft.splits), c.MapSlots(), nil)
	for _, pa := range []pendingAttempt{{task: 0, attempt: 0}, {task: 0, attempt: 1, kind: attemptSpeculative}} {
		if err := ft.mapAttempt(ph, pa, 0, pa.attempt); err != nil {
			t.Fatal(err)
		}
	}
	won := ft.mapOuts[0]
	if len(won.runs) < 2 || !strings.Contains(won.runs[0].Name, "/a00/") {
		t.Fatalf("committed output %v: want the first attempt's runs, several of them", won.files())
	}
	files := slices.DeleteFunc(c.Disks[0].(*vdisk.Mem).List(), func(name string) bool { return strings.HasPrefix(name, "dfs/") })
	slices.Sort(files)
	want := won.files()
	slices.Sort(want)
	if !slices.Equal(files, want) {
		t.Errorf("node disk holds %v, want only the committed runs %v", files, want)
	}
	if ft.ledger[metrics.CtrSweptAttemptDirs] != 1 {
		t.Errorf("%d attempts swept, want the losing one", ft.ledger[metrics.CtrSweptAttemptDirs])
	}
	assertStagingHolds(t, ft.shuffle, won)
}
