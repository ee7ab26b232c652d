package mr

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"strings"
	"testing"

	"mrtext/internal/kvio"
	"mrtext/internal/metrics"
	"mrtext/internal/serde"
	"mrtext/internal/vdisk"
)

// TestSumKernelsRejectMalformedValue: a declared SumInt64 job whose mapper
// emits a value that is not exactly one varint fails, without a panic,
// with an ErrCorrupt error — whichever kernel meets the value first: the
// spill writer's (the value in a run of its key) or the frequency
// buffer's (the key frequent and the table optimizing), which fail the map
// task naming the key, or, the key once in its spill, so that the spill
// passes it through and no map-side kernel sees it, the reducer at the
// end of the reduce-side merge, which fails the reduce task.
func TestSumKernelsRejectMalformedValue(t *testing.T) {
	const lines, perLine = 4000, 8
	c, split := oneSplit(t, wordsInput(lines, perLine, 500))
	junk := []byte("\x02junk")
	// mapper emits the words, and with them "bad" carrying value(line) on
	// the lines value returns one for.
	mapper := func(value func(line int) []byte) MapperFunc {
		line := 0
		return func(_ int64, text []byte, out Collector) error {
			defer func() { line++ }()
			for _, w := range bytes.Fields(text) {
				if err := out.Collect(w, one); err != nil {
					return err
				}
			}
			if v := value(line); v != nil {
				return out.Collect([]byte("bad"), v)
			}
			return nil
		}
	}
	for _, tc := range []struct {
		name     string
		spill    int64
		freq     bool
		value    func(line int) []byte
		where    string // a phrase of the failing kernel's error
		notWhere string
	}{
		{"spill", 8 << 20, false, func(line int) []byte {
			if line < 2 {
				return junk
			}
			return nil
		}, "combine during spill", "map():"},
		{"merge", 64 << 10, false, func(line int) []byte {
			if line == 0 {
				return junk
			}
			return nil
		}, "reduce():", "combine during spill"},
		{"freqbuf", 8 << 20, true, func(line int) []byte {
			if line == lines-1 {
				return junk
			}
			return one
		}, "map():", "combine during spill"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			job := acctJob(t, SumInt64, tc.spill, mapper(tc.value))
			if tc.freq {
				job.FreqBuf = &FreqBufConfig{K: 10, SampleFraction: 0.05, MemFraction: 0.3}
			}
			out, rep, _, err := runMapTask(c, job, metrics.NewTaskMetrics(), 0, split, 0, 0, 0, nil, nil)
			if tc.name == "merge" {
				if err != nil {
					t.Fatalf("map task: %v", err)
				}
				svc := newShuffleService(c, job)
				_, _, _, _, err = runReduceTask(c, job, metrics.NewTaskMetrics(), DefaultPartitioner([]byte("bad"), job.NumReducers), 0, 0, 0, nil, &shuffleEnv{svc: svc}, []mapOutput{out})
				svc.close()
			}
			if err == nil {
				t.Fatal("a malformed value went through")
			}
			msg := err.Error()
			if !errors.Is(err, serde.ErrCorrupt) || strings.Contains(msg, "panicked") {
				t.Fatalf("err = %v: want ErrCorrupt, and no panic", err)
			}
			if tc.name != "merge" && !strings.Contains(msg, `key "bad"`) {
				t.Fatalf("err = %v: want it naming key \"bad\"", err)
			}
			if !strings.Contains(msg, tc.where) || strings.Contains(msg, tc.notWhere) {
				t.Errorf("err = %v: not the %s kernel's", err, tc.name)
			}
			if tc.name == "merge" && rep.Spill.Spills < 2 {
				t.Errorf("%d spills: the merge case needs several", rep.Spill.Spills)
			}
			if tc.freq && rep.Metrics.Counters[metrics.CtrFreqHits] == 0 {
				t.Error("the frequency buffer absorbed nothing before the malformed value")
			}
		})
	}
}

// TestSpillKernelCountsLikeCombiner: on one fixed spill — runs of one to
// many equal keys over three partitions, values from one to ten bytes —
// the spill writer's kernel for a declared SumInt64 writes the run the
// generic path writes through a wrapper it cannot recognise, byte for byte,
// and counts the same records into and out of the combiner.
func TestSpillKernelCountsLikeCombiner(t *testing.T) {
	wrapped := func(key []byte, values [][]byte, emit func(k, v []byte) error) error {
		return SumInt64(key, values, emit)
	}
	region := func() kvio.Region {
		rng := rand.New(rand.NewSource(5))
		var r kvio.Region
		for i := 0; i < 5000; i++ {
			key := fmt.Appendf(nil, "k%d", int(300*rng.Float64()*rng.Float64()))
			r.Append(len(key)%3, key, serde.EncodeInt64(rng.Int63n(1<<uint(rng.Intn(60)))-1<<20))
		}
		return r
	}
	disk := vdisk.NewMem()
	var runs [2][]byte
	var counts [2][2]int64
	for i, combine := range []CombineFunc{SumInt64, wrapped} {
		job := &Job{Combine: combine}
		tm := metrics.NewTaskMetrics()
		name := fmt.Sprintf("spill-%d", i)
		if _, err := writeSpillRun(disk, name, 3, region(), &spillScratch{}, job, newCombineTimer(metrics.DefaultSampler(), tm), tm, spanner{}); err != nil {
			t.Fatal(err)
		}
		f, err := disk.Open(name)
		if err != nil {
			t.Fatal(err)
		}
		if runs[i], err = io.ReadAll(f); err != nil {
			t.Fatal(err)
		}
		f.Close()
		ctr := tm.Snapshot().Counters
		counts[i] = [2]int64{ctr[metrics.CtrCombineInRecords], ctr[metrics.CtrCombineOutRecords]}
	}
	if !bytes.Equal(runs[0], runs[1]) {
		t.Error("the kernel's spill run differs from the wrapper's")
	}
	if counts[0] != counts[1] || counts[0][0] == 0 || counts[0][1] >= counts[0][0] {
		t.Errorf("combine records in/out: kernel %v, wrapper %v; want equal, and fewer out than in", counts[0], counts[1])
	}
}
