package mr

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"sync/atomic"
	"testing"
	"time"

	"mrtext/internal/chaos"
	"mrtext/internal/cluster"
	"mrtext/internal/kvio"
	"mrtext/internal/metrics"
	"mrtext/internal/serde"
)

// Tests of the record path's accounting contract: the clock is read per
// spill, per sampled record and per task, never per record; counters are
// exact on every exit of a task, the failing ones included; and the
// per-record pieces of the reduce loop allocate nothing.

// countingClock is a task clock that counts its readings.
type countingClock struct{ reads atomic.Int64 }

func (c *countingClock) now() time.Time {
	c.reads.Add(1)
	return time.Now()
}

var one = serde.EncodeInt64(1)

// sumValues is the suite's combiner and, through sumReduce, its reducer.
func sumValues(key []byte, vals [][]byte, emit func(k, v []byte) error) error {
	var sum int64
	for _, v := range vals {
		n, err := serde.DecodeInt64(v)
		if err != nil {
			return err
		}
		sum += n
	}
	return emit(key, serde.EncodeInt64(sum))
}

func sumReduce(key []byte, values ValueIter, out Collector) error {
	var sum int64
	for {
		v, ok, err := values.Next()
		if err != nil {
			return err
		}
		if !ok {
			return out.Collect(key, serde.EncodeInt64(sum))
		}
		n, err := serde.DecodeInt64(v)
		if err != nil {
			return err
		}
		sum += n
	}
}

// wordsInput is lines × perLine words drawn round-robin from a vocabulary
// of vocab words, so every word occurs equally often.
func wordsInput(lines, perLine, vocab int) []byte {
	var b bytes.Buffer
	for i := 0; i < lines*perLine; i++ {
		fmt.Fprintf(&b, "w%05d", (i*7919)%vocab)
		if i%perLine == perLine-1 {
			b.WriteByte('\n')
		} else {
			b.WriteByte(' ')
		}
	}
	return b.Bytes()
}

// acctJob is a WordCount-shaped job over file "f" (the applications
// package imports this one, so the suite brings its own). mapper, when
// non-nil, replaces the word-splitting map function.
func acctJob(t *testing.T, combine CombineFunc, spillBytes int64, mapper MapperFunc) *Job {
	t.Helper()
	if mapper == nil {
		mapper = func(_ int64, line []byte, out Collector) error {
			for _, w := range bytes.Fields(line) {
				if err := out.Collect(w, one); err != nil {
					return err
				}
			}
			return nil
		}
	}
	spec := &Job{
		Name:             "acct",
		Inputs:           []string{"f"},
		NewMapper:        func() Mapper { return mapper },
		NewReducer:       func() Reducer { return ReducerFunc(sumReduce) },
		Combine:          combine,
		NumReducers:      2,
		SpillBufferBytes: spillBytes,
	}
	job, err := spec.withDefaults(2)
	if err != nil {
		t.Fatal(err)
	}
	return job
}

// wordSumSpec is an undefaulted WordCount-shaped job over file "f", with
// a combiner and a spill buffer small enough for several runs per task.
func wordSumSpec(name string) *Job {
	return &Job{
		Name:   name,
		Inputs: []string{"f"},
		NewMapper: func() Mapper {
			return MapperFunc(func(_ int64, line []byte, out Collector) error {
				for _, word := range bytes.Fields(line) {
					if err := out.Collect(word, one); err != nil {
						return err
					}
				}
				return nil
			})
		},
		NewReducer:       func() Reducer { return ReducerFunc(sumReduce) },
		Combine:          sumValues,
		NumReducers:      4,
		SpillBufferBytes: 32 << 10,
	}
}

// assertReferenceOutput requires every output partition of res to hold the
// reference executor's bytes.
func assertReferenceOutput(t *testing.T, c *cluster.Cluster, res *Result, want map[int][]byte) {
	t.Helper()
	for p, data := range want {
		got, err := c.FS.ReadFile(res.Outputs[p])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data) {
			t.Errorf("partition %d differs from the reference", p)
		}
	}
}

// oneSplit returns a cluster holding data as the single-block file "f",
// and its one split.
func oneSplit(t *testing.T, data []byte) (*cluster.Cluster, Split) {
	t.Helper()
	c := buildFS(t, data, int64(len(data)))
	splits, err := computeSplits(c.FS, []string{"f"})
	if err != nil {
		t.Fatal(err)
	}
	if len(splits) != 1 {
		t.Fatalf("%d splits, want 1", len(splits))
	}
	return c, splits[0]
}

// TestClockBudget: a map task of N records and S spills reads the clock at
// most N/16 + 8·S times, a reduce task of N values at most N/16 times plus
// its handful of per-task readings — where a stopwatch around every
// Append and every value pull reads it at least 2·N times.
func TestClockBudget(t *testing.T) {
	const lines, perLine, vocab = 12500, 8, 2000
	const n = lines * perLine // 100 000 records
	c, split := oneSplit(t, wordsInput(lines, perLine, vocab))

	t.Run("map", func(t *testing.T) {
		clk := &countingClock{}
		job := acctJob(t, sumValues, 768<<10, nil)
		_, rep, _, err := runMapTask(c, job, metrics.NewTaskMetricsClock(clk.now), 0, split, 0, 0, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got := rep.Metrics.Counters[metrics.CtrMapOutputRecords]; got != n {
			t.Fatalf("map emitted %d records, want %d", got, n)
		}
		spills := int64(rep.Spill.Spills)
		if spills < 3 {
			t.Fatalf("%d spills: the task is meant to spill several times", spills)
		}
		reads, budget := clk.reads.Load(), n/16+8*spills
		t.Logf("map task: %d records, %d spills, %d clock reads (budget %d)", n, spills, reads, budget)
		if reads > budget {
			t.Errorf("map task of %d records and %d spills read the clock %d times, budget %d", n, spills, reads, budget)
		}
		// Every operation the task performed is still reported.
		ops := rep.Metrics.Ops
		for op, d := range ops {
			if d < 0 {
				t.Errorf("%v is negative: %v", metrics.Op(op), d)
			}
		}
		if ops[metrics.OpMapUser] <= 0 || ops[metrics.OpEmit] <= 0 || ops[metrics.OpSort] <= 0 ||
			ops[metrics.OpCombineUser] <= 0 || ops[metrics.OpSpillIO] <= 0 || ops[metrics.OpMerge] <= 0 {
			t.Errorf("an operation the task performed has no time: %v", ops)
		}
	})

	t.Run("reduce", func(t *testing.T) {
		// No combiner: the map output carries all 100 000 values, 50 per
		// group, to the one partition.
		job := acctJob(t, nil, 8<<20, nil)
		job.NumReducers = 1
		out, _, _, err := runMapTask(c, job, metrics.NewTaskMetrics(), 0, split, 0, 0, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		clk := &countingClock{}
		svc := newShuffleService(c, job)
		defer svc.close()
		_, won, _, rep, err := runReduceTask(c, job, metrics.NewTaskMetricsClock(clk.now), 0, 0, 0, 0, nil, &shuffleEnv{svc: svc}, []mapOutput{out})
		if err != nil || !won {
			t.Fatalf("reduce: won=%v err=%v", won, err)
		}
		ctr := rep.Metrics.Counters
		if ctr[metrics.CtrReduceInputValues] != n || ctr[metrics.CtrReduceInputGroups] != vocab || ctr[metrics.CtrOutputRecords] != vocab {
			t.Fatalf("reduce saw %d values in %d groups and wrote %d records, want %d, %d, %d",
				ctr[metrics.CtrReduceInputValues], ctr[metrics.CtrReduceInputGroups], ctr[metrics.CtrOutputRecords], n, vocab, vocab)
		}
		if rep.ShuffleBytes != ctr[metrics.CtrShuffleBytes] || rep.ShuffleBytes != int64(n*(6+len(one)+4)) {
			t.Errorf("ShuffleBytes %d, counter %d, want %d", rep.ShuffleBytes, ctr[metrics.CtrShuffleBytes], n*(6+len(one)+4))
		}
		const perTask = 8 // start, shuffle end, loop start and end, output close, report
		reads, budget := clk.reads.Load(), int64(n/16+perTask)
		t.Logf("reduce task: %d values, %d clock reads (budget %d)", n, reads, budget)
		if reads > budget {
			t.Errorf("reduce task of %d values read the clock %d times, budget %d", n, reads, budget)
		}
		// Shuffle, reduce and output time tile the task's wall: they are
		// the measured stretches, split by the sampled proportions.
		ops := rep.Metrics.Ops
		sum := ops[metrics.OpShuffle] + ops[metrics.OpReduceUser] + ops[metrics.OpOutputIO]
		if ops[metrics.OpShuffle] <= 0 || ops[metrics.OpReduceUser] <= 0 || ops[metrics.OpOutputIO] <= 0 {
			t.Errorf("an operation the task performed has no time: %v", ops)
		}
		if sum > rep.Wall || sum < rep.Wall/2 {
			t.Errorf("shuffle+reduce+output = %v, task wall %v", sum, rep.Wall)
		}
	})
}

// TestFailedAttemptReportsWhatItDid: the counts a task keeps in plain
// locals reach its report on the failure exits too — both what was
// published at earlier spill boundaries and the remainder since.
func TestFailedAttemptReportsWhatItDid(t *testing.T) {
	const lines, perLine = 4000, 8
	c, split := oneSplit(t, wordsInput(lines, perLine, 500))
	errBoom := errors.New("boom")

	// counted wraps the word mapper: it counts the lines it was handed and
	// the Collects that succeeded, and fails the line after failAfter.
	type counts struct{ lines, records, bytes int64 }
	counted := func(got *counts, failAfter int64) MapperFunc {
		return func(_ int64, line []byte, out Collector) error {
			if got.lines == failAfter {
				return errBoom
			}
			got.lines++
			for _, w := range bytes.Fields(line) {
				if err := out.Collect(w, one); err != nil {
					return err
				}
				got.records++
				got.bytes += int64(len(w) + len(one) + 16)
			}
			return nil
		}
	}
	check := func(t *testing.T, rep TaskReport, got *counts, input int64) {
		t.Helper()
		ctr := rep.Metrics.Counters
		if ctr[metrics.CtrMapInputRecords] != input || ctr[metrics.CtrMapOutputRecords] != got.records || ctr[metrics.CtrMapOutputBytes] != got.bytes {
			t.Errorf("failed attempt reports %d lines in, %d records / %d bytes out; it read %d and emitted %d / %d",
				ctr[metrics.CtrMapInputRecords], ctr[metrics.CtrMapOutputRecords], ctr[metrics.CtrMapOutputBytes], input, got.records, got.bytes)
		}
	}

	t.Run("map-error-after-spills", func(t *testing.T) {
		var got counts
		job := acctJob(t, sumValues, 64<<10, counted(&got, 3000))
		_, rep, _, err := runMapTask(c, job, metrics.NewTaskMetrics(), 0, split, 0, 0, 0, nil)
		if !errors.Is(err, errBoom) {
			t.Fatalf("err = %v, want the mapper's", err)
		}
		if rep.Metrics.Counters[metrics.CtrSpillCount] < 2 {
			t.Fatalf("%d spills before the failure: the case needs counts published at spill boundaries", rep.Metrics.Counters[metrics.CtrSpillCount])
		}
		check(t, rep, &got, got.lines+1) // the failing line was read too
	})

	t.Run("injected-emit-fault", func(t *testing.T) {
		inj, err := chaos.New(chaos.Config{Seed: 1, FailRate: 1, KillNode: -1}, 3)
		if err != nil {
			t.Fatal(err)
		}
		inj.Arm()
		defer inj.Disarm()
		plan := inj.Plan(0, 0, 0, []chaos.Site{chaos.SiteEmit})
		var got counts
		job := acctJob(t, sumValues, 64<<10, counted(&got, -1))
		_, rep, _, err := runMapTask(c, job, metrics.NewTaskMetrics(), 0, split, 0, 0, 0, plan)
		if !errors.Is(err, chaos.ErrInjected) {
			t.Fatalf("err = %v, want an injected fault", err)
		}
		check(t, rep, &got, got.lines)
	})

	t.Run("reduce-error", func(t *testing.T) {
		job := acctJob(t, sumValues, 8<<20, nil)
		job.NumReducers = 1
		out, _, _, err := runMapTask(c, job, metrics.NewTaskMetrics(), 0, split, 0, 0, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		var groups, outBytes int64
		job.NewReducer = func() Reducer {
			return ReducerFunc(func(key []byte, values ValueIter, out Collector) error {
				if groups == 300 {
					return errBoom
				}
				groups++
				outBytes += int64(serde.KVLen(len(key), len(one)))
				return sumReduce(key, values, out)
			})
		}
		job.Format = nil
		svc := newShuffleService(c, job)
		defer svc.close()
		_, _, _, rep, err := runReduceTask(c, job, metrics.NewTaskMetrics(), 0, 0, 0, 0, nil, &shuffleEnv{svc: svc}, []mapOutput{out})
		if !errors.Is(err, errBoom) {
			t.Fatalf("err = %v, want the reducer's", err)
		}
		ctr := rep.Metrics.Counters
		// The failing group was merged to (it counts as input) but wrote
		// nothing.
		if ctr[metrics.CtrReduceInputGroups] != groups+1 || ctr[metrics.CtrOutputRecords] != groups {
			t.Errorf("failed reduce reports %d groups in, %d records out; it saw %d and wrote %d",
				ctr[metrics.CtrReduceInputGroups], ctr[metrics.CtrOutputRecords], groups+1, groups)
		}
		if rep.ShuffleBytes == 0 || rep.ShuffleBytes != ctr[metrics.CtrShuffleBytes] {
			t.Errorf("ShuffleBytes %d, counter %d", rep.ShuffleBytes, ctr[metrics.CtrShuffleBytes])
		}
	})
}

// TestGroundTruthReduceLoop pins the //mrlint:hotpath annotations on the
// reduce loop's per-record pieces to the real compiler: pulling a value
// and collecting an output record allocate nothing, whether or not the
// current group is a sampled one.
func TestGroundTruthReduceLoop(t *testing.T) {
	recs := make([]kvio.Record, 5000)
	for i := range recs {
		recs[i] = kvio.Record{Key: []byte("key"), Value: one}
	}
	m, err := kvio.NewMerger([]kvio.Stream{&fakeStream{recs: recs}})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, err := m.NextGroup(); !ok || err != nil {
		t.Fatalf("NextGroup: ok=%v err=%v", ok, err)
	}
	acct := &reduceAccount{tm: metrics.NewTaskMetrics()}
	values := &groupValues{m: m, acct: acct}
	bufw := bufio.NewWriter(io.Discard)
	rc := &reduceCollector{job: &Job{}, w: serde.NewWriter(bufw), bufw: bufw, acct: acct}
	key, value := []byte("key"), []byte("value")

	for _, timed := range []bool{false, true} {
		acct.timed = timed
		pulls := testing.AllocsPerRun(1000, func() {
			if _, ok, err := values.Next(); !ok || err != nil {
				t.Fatalf("Next: ok=%v err=%v", ok, err)
			}
		})
		writes := testing.AllocsPerRun(1000, func() {
			if err := rc.Collect(key, value); err != nil {
				t.Fatal(err)
			}
		})
		if (pulls != 0 || writes != 0) && !raceEnabled {
			t.Errorf("timed=%v: groupValues.Next %.2f allocs, reduceCollector.Collect %.2f allocs, want 0", timed, pulls, writes)
		}
	}
	if acct.values != 2*1001 || acct.outRecords != 2*1001 {
		t.Errorf("counted %d values and %d output records over 2002 calls each", acct.values, acct.outRecords)
	}
}

// TestRunningTaskPublishesAtSpillBoundaries: a running map task's record
// counters are not bumped per record, but they do not wait for the task's
// end either — they reach its metrics (and with them the live aggregate)
// once a spill has been handed off.
func TestRunningTaskPublishesAtSpillBoundaries(t *testing.T) {
	const lines, perLine = 4000, 8
	c, split := oneSplit(t, wordsInput(lines, perLine, 500))
	tm := metrics.NewTaskMetrics()
	var emitted, maxSeen int64
	job := acctJob(t, sumValues, 64<<10, func(_ int64, line []byte, out Collector) error {
		seen := tm.Counter(metrics.CtrMapOutputRecords)
		if seen > emitted {
			t.Errorf("metrics show %d records emitted, the mapper has emitted %d", seen, emitted)
		}
		maxSeen = max(maxSeen, seen)
		for _, w := range bytes.Fields(line) {
			if err := out.Collect(w, one); err != nil {
				return err
			}
			emitted++
		}
		return nil
	})
	_, rep, _, err := runMapTask(c, job, tm, 0, split, 0, 0, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Spill.Spills < 3 {
		t.Fatalf("%d spills, want several", rep.Spill.Spills)
	}
	if maxSeen == 0 {
		t.Errorf("no emitted record was visible in the task's metrics before it ended, over %d spills", rep.Spill.Spills)
	}
	if got := rep.Metrics.Counters[metrics.CtrMapOutputRecords]; got != emitted {
		t.Errorf("final count %d, emitted %d", got, emitted)
	}
}
