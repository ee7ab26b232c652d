package mr_test

import (
	"bytes"
	"fmt"
	"testing"

	"mrtext/internal/apps"
	"mrtext/internal/kvio"
	"mrtext/internal/metrics"
	"mrtext/internal/mr"
	"mrtext/internal/textgen"
)

// TestSumKernelMatchesGenericPath runs WordCount and AccessLogSum twice per
// configuration: once declaring mr.SumInt64, which the spill writer, the
// map-side merge and the frequency buffer fold in place, and once with a
// func that only calls it, which the runtime cannot recognise and so calls
// on the generic path. Over a 64 KiB and the default spill buffer, with and
// without the paper's text frequency-buffering setting, both runs must
// match RunReference byte for byte.
//
// Both must also count the same records into and out of the spill path's
// combiner. Those counts depend on where spills are cut, and a spill is cut
// when the support goroutine is free again — sooner after a kernel than
// after combine calls — so they are compared in the cells whose map tasks
// spill once, at the end of their input. TestSpillKernelCountsLikeCombiner
// compares them on one fixed spill of many runs.
func TestSumKernelMatchesGenericPath(t *testing.T) {
	c, corpus := newTextCluster(t, 3, 512<<10)
	w, err := c.FS.Create("visits.log", 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := textgen.UserVisits(w, textgen.LogConfig{URLs: 500, Alpha: 0.8, Seed: 7}, 256<<10); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	wrapped := func(key []byte, values [][]byte, emit func(k, v []byte) error) error {
		return mr.SumInt64(key, values, emit)
	}
	if kvio.IsSumInt64(wrapped) || !kvio.IsSumInt64(mr.SumInt64) {
		t.Fatal("IsSumInt64 must recognise mr.SumInt64 and only it")
	}
	compared := 0
	for _, app := range []struct {
		name string
		job  func() *mr.Job
	}{
		{"wordcount", func() *mr.Job { return apps.WordCount(corpus) }},
		{"accesslogsum", func() *mr.Job { return apps.AccessLogSum("visits.log") }},
	} {
		for _, spill := range []int64{64 << 10, 0} {
			for _, freq := range []bool{false, true} {
				name := fmt.Sprintf("%s/spill=%d/freqbuf=%v", app.name, spill, freq)
				t.Run(name, func(t *testing.T) {
					var res [2]*mr.Result
					for i, combine := range []mr.CombineFunc{mr.SumInt64, wrapped} {
						job := app.job()
						if !kvio.IsSumInt64(job.Combine) {
							t.Fatalf("%s does not declare mr.SumInt64", app.name)
						}
						job.Name = fmt.Sprintf("sum-%s-%d", app.name, i)
						job.Combine = combine
						job.SpillBufferBytes = spill
						if freq {
							job.FreqBuf = mr.DefaultFreqBufText()
						}
						res[i] = runAgainstReference(t, c, job)
					}
					declared, generic := readOutputs(t, c, res[0]), readOutputs(t, c, res[1])
					for p := range generic {
						if !bytes.Equal(declared[p], generic[p]) {
							t.Errorf("partition %d: the declared sum's output differs from the wrapper's", p)
						}
					}
					oneSpill := func(r *mr.Result) bool { return r.Agg.Counters[metrics.CtrSpillCount] == int64(r.MapTasks) }
					if oneSpill(res[0]) && oneSpill(res[1]) {
						compared++
						for _, ctr := range []string{metrics.CtrCombineInRecords, metrics.CtrCombineOutRecords} {
							if d, g := res[0].Agg.Counters[ctr], res[1].Agg.Counters[ctr]; d != g {
								t.Errorf("%s: declared sum %d, wrapper %d", ctr, d, g)
							}
						}
					}
					if spill != 0 && res[0].Agg.Counters[metrics.CtrCombineInRecords] == 0 {
						t.Error("no spill-path combine ran: the cell proved nothing about the spill kernel")
					}
					if fs := res[0].FreqStats(); freq && (fs.Hits == 0 || fs.Combines != 0) {
						t.Errorf("the declared sum's frequency buffer absorbed %d records with %d combine calls: want some, folded without a call", fs.Hits, fs.Combines)
					}
				})
			}
		}
	}
	if compared < 2 {
		t.Errorf("combine counters compared in %d cells: the default buffer was meant to spill each map task once", compared)
	}
}
