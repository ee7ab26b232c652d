package main

import (
	"bytes"
	"fmt"
	"io"
	"time"

	"mrtext"
	"mrtext/internal/core/freqbuf"
	"mrtext/internal/fastparse"
	"mrtext/internal/kvio"
	"mrtext/internal/mr"
	"mrtext/internal/spillbuf"
	"mrtext/internal/vdisk"
)

const (
	// drillMin is how long a drill repeats its body for, so that a body of
	// a few milliseconds is not a single noisy sample.
	drillMin = 40 * time.Millisecond
	// drillBytes caps the slice of the input the byte-oriented drills work
	// on; throttled clusters charge modeled time per byte.
	drillBytes = 4 << 20
	// captureRecords caps the map output captured from the first split.
	captureRecords = 1 << 20
	// maxDrillRuns caps the fan-in of the merge drills.
	maxDrillRuns = 16
)

// driller calls each layer's public functions directly on one workload's
// data, single goroutine, and times the calls from outside. Each drill is
// also a span of the traced pass.
type driller struct {
	e   *env
	job *mrtext.Job // the workload's job, unwrapped
	log *spanLog
	run int32
	m   map[string]float64
}

// timed runs body repeatedly for at least drillMin and returns the mean of
// the durations it reports; body times only the part it wants measured and
// may prepare fresh state before it.
func (d *driller) timed(name string, body func() (time.Duration, error)) (time.Duration, error) {
	t0 := d.log.now()
	var sum time.Duration
	n := 0
	for n == 0 || sum < drillMin {
		dt, err := body()
		if err != nil {
			return 0, fmt.Errorf("drill %s: %w", name, err)
		}
		sum += dt
		n++
	}
	d.log.add("drill:"+name, d.run, 0, 0, t0, d.log.now())
	return sum / time.Duration(n), nil
}

func mibPerSec(bytes int64, d time.Duration) float64 {
	return ratio(float64(bytes)/mib, d.Seconds())
}

func nsPer(d time.Duration, n int) float64 { return ratio(float64(d), float64(n)) }

// runDrills fills in every D metric that needs no extra job run.
func runDrills(e *env, job *mrtext.Job, seed int64, spillsPerTask float64, jobCPU time.Duration, log *spanLog, m map[string]float64) error {
	d := &driller{e: e, job: job, log: log, run: log.newRun(), m: m}

	data, err := d.storage(seed)
	if err != nil {
		return err
	}
	if err := d.ingest(data); err != nil {
		return err
	}
	if err := d.naive(data, jobCPU); err != nil {
		return err
	}
	recs, parts, err := d.capture()
	if err != nil {
		return err
	}
	if err := d.collectPath(recs); err != nil {
		return err
	}
	return d.kvio(recs, parts, spillsPerTask)
}

// storage drills textgen and the DFS, and returns the input's bytes.
func (d *driller) storage(seed int64) ([]byte, error) {
	n := d.e.inputBytes
	if n > drillBytes {
		n = drillBytes
	}
	dt, err := d.timed("textgen", func() (time.Duration, error) {
		t0 := time.Now()
		err := d.e.w.writeInput(io.Discard, seed, n)
		return time.Since(t0), err
	})
	if err != nil {
		return nil, err
	}
	d.m["textgen.gen_mb_per_s"] = mibPerSec(n, dt)

	var data []byte
	dt, err = d.timed("dfs.read", func() (time.Duration, error) {
		t0 := time.Now()
		var err error
		data, err = d.e.c.FS.ReadFile(d.e.input)
		return time.Since(t0), err
	})
	if err != nil {
		return nil, err
	}
	d.m["dfs.read_mb_per_s"] = mibPerSec(int64(len(data)), dt)

	dt, err = d.timed("dfs.write", func() (time.Duration, error) {
		t0 := time.Now()
		if err := d.e.c.FS.WriteFile("drill.tmp", data[:n]); err != nil {
			return 0, err
		}
		dt := time.Since(t0)
		return dt, d.e.c.FS.Remove("drill.tmp")
	})
	if err != nil {
		return nil, err
	}
	d.m["dfs.write_mb_per_s"] = mibPerSec(n, dt)
	return data, nil
}

// ingest drains every split through the batched block reader, then runs the
// application's tokenizer over the lines of the input's head.
func (d *driller) ingest(data []byte) error {
	fs := d.e.c.FS
	var lines, consumed int64
	dt, err := d.timed("ingest", func() (time.Duration, error) {
		lines, consumed = 0, 0
		t0 := time.Now()
		splits, err := mr.SplitsOf(fs, []string{d.e.input})
		if err != nil {
			return 0, err
		}
		for _, sp := range splits {
			r, err := mr.OpenSplitBatched(fs, sp, sp.Hosts[0], int(d.job.IngestChunkBytes))
			if err != nil {
				return 0, err
			}
			for {
				_, _, ok, err := r.Next()
				if err != nil {
					return 0, err
				}
				if !ok {
					break
				}
				lines++
			}
			consumed += r.Consumed()
			if err := r.Close(); err != nil {
				return 0, err
			}
		}
		return time.Since(t0), nil
	})
	if err != nil {
		return err
	}
	d.m["ingest.mb_per_s"] = mibPerSec(consumed, dt)
	d.m["ingest.lines_per_s"] = ratio(float64(lines), dt.Seconds())

	head := data
	if len(head) > drillBytes {
		head = head[:drillBytes]
	}
	split := bytes.Split(bytes.TrimSuffix(head, []byte("\n")), []byte("\n"))
	var scratch [][]byte
	dt, err = d.timed("fastparse", func() (time.Duration, error) {
		t0 := time.Now()
		for _, line := range split {
			if d.e.w.app != appLogSum {
				scratch = fastparse.Fields(scratch[:0], line)
				continue
			}
			scratch = fastparse.SplitByte(scratch[:0], line, '|')
			if len(scratch) > 3 {
				if _, err := fastparse.ParseInt(scratch[3]); err != nil && len(scratch) == 7 {
					return 0, err
				}
			}
		}
		return time.Since(t0), nil
	})
	if err != nil {
		return err
	}
	d.m["fastparse.ns_per_line"] = nsPer(dt, len(split))
	return nil
}

// naive times the naive program over the whole input; the job's CPU time
// over the naive program's is the abstraction cost.
func (d *driller) naive(data []byte, jobCPU time.Duration) error {
	dt, err := d.timed("naive", func() (time.Duration, error) {
		c0 := cpuTime()
		_, err := d.e.w.app.naive(data)
		return cpuTime() - c0, err
	})
	if err != nil {
		return err
	}
	d.m["apps.naive_cpu_s"] = dt.Seconds()
	d.m["apps.abstraction_cost_x"] = ratio(jobCPU.Seconds(), dt.Seconds())
	return nil
}

// capture runs the job's mapper over the first split and keeps its output,
// partitioned as the runtime would, in a harness-owned batch.
func (d *driller) capture() (kvio.PackedRecords, int, error) {
	var recs kvio.PackedRecords
	parts := d.job.NumReducers
	if parts <= 0 {
		parts = d.e.c.TotalReduceSlots()
	}
	fs := d.e.c.FS
	splits, err := mr.SplitsOf(fs, []string{d.e.input})
	if err != nil {
		return recs, 0, err
	}
	r, err := mr.OpenSplitBatched(fs, splits[0], splits[0].Hosts[0], 0)
	if err != nil {
		return recs, 0, err
	}
	defer r.Close()
	mapper := d.job.NewMapper()
	keep := mr.CollectorFunc(func(key, value []byte) error {
		recs.Append(mr.DefaultPartitioner(key, parts), key, value)
		return nil
	})
	for recs.Len() < captureRecords {
		off, line, ok, err := r.Next()
		if err != nil {
			return recs, 0, err
		}
		if !ok {
			break
		}
		if err := mapper.Map(off, line, keep); err != nil {
			return recs, 0, err
		}
	}
	if recs.Len() == 0 {
		return recs, 0, fmt.Errorf("drill capture: first split emitted no records")
	}
	return recs, parts, nil
}

// collectPath drills the two buffers a collected record passes through.
func (d *driller) collectPath(recs kvio.PackedRecords) error {
	n := recs.Len()
	bufBytes := d.job.SpillBufferBytes
	if bufBytes <= 0 {
		bufBytes = 4 << 20
	}

	d.m["freqbuf.offer_ns_per_record"] = 0
	if d.job.Combine != nil {
		fb := d.job.FreqBuf
		if fb == nil {
			fb = mrtext.FreqBufText()
		}
		dt, err := d.timed("freqbuf.offer", func() (time.Duration, error) {
			b, err := freqbuf.New(freqbuf.Config{
				K:               fb.K,
				MemoryBytes:     int64(float64(bufBytes) * fb.MemFraction),
				SampleFraction:  fb.SampleFraction,
				ValuesPerKeyCap: fb.ValuesPerKeyCap,
				ExpectedRecords: func() int64 { return int64(n) },
			}, d.job.Combine)
			if err != nil {
				return 0, err
			}
			t0 := time.Now()
			for i := 0; i < n; i++ {
				if _, _, err := b.Offer(recs.Part(i), recs.Key(i), recs.Value(i)); err != nil {
					return 0, err
				}
			}
			return time.Since(t0), nil
		})
		if err != nil {
			return err
		}
		d.m["freqbuf.offer_ns_per_record"] = nsPer(dt, n)
	}

	dt, err := d.timed("spillbuf.append", func() (time.Duration, error) {
		buf, err := spillbuf.New(bufBytes, nil, nil)
		if err != nil {
			return 0, err
		}
		drained := make(chan struct{})
		go func() {
			defer close(drained)
			for {
				s, ok := buf.NextSpill()
				if !ok {
					return
				}
				buf.Release(s, 0)
			}
		}()
		t0 := time.Now()
		var appendErr error
		for i := 0; i < n && appendErr == nil; i++ {
			_, appendErr = buf.Append(recs.Part(i), recs.Key(i), recs.Value(i))
		}
		dt := time.Since(t0)
		buf.Close()
		<-drained
		return dt, appendErr
	})
	if err != nil {
		return err
	}
	d.m["spillbuf.append_ns_per_record"] = nsPer(dt, n)
	return nil
}

// writeRuns cuts recs, in emit order, into k spills and writes each as a
// sorted run on disk, as a map task's support goroutine would.
func writeRuns(disk vdisk.Disk, prefix string, recs kvio.PackedRecords, k, parts int, compressed bool) ([]kvio.RunIndex, error) {
	n := recs.Len()
	runs := make([]kvio.RunIndex, 0, k)
	for r := 0; r < k; r++ {
		lo, hi := r*n/k, (r+1)*n/k
		chunk := kvio.PackedRecords{Meta: append([]kvio.Meta(nil), recs.Meta[lo:hi]...), Arena: recs.Arena}
		kvio.SortPacked(chunk)
		sink, err := kvio.NewRunSink(disk, fmt.Sprintf("%s-%d", prefix, r), parts, compressed)
		if err != nil {
			return nil, err
		}
		for i := 0; i < chunk.Len(); i++ {
			if err := sink.Append(chunk.Part(i), chunk.Key(i), chunk.Value(i)); err != nil {
				return nil, err
			}
		}
		idx, err := sink.Close()
		if err != nil {
			return nil, err
		}
		runs = append(runs, idx)
	}
	return runs, nil
}

func clampRuns(k float64) int {
	switch {
	case k < 2:
		return 2
	case k > maxDrillRuns:
		return maxDrillRuns
	}
	return int(k + 0.5)
}

// kvio drills the sort, the run writer, the map-side merge, the reduce-side
// merge and the segment compressor on the captured records.
func (d *driller) kvio(recs kvio.PackedRecords, parts int, spillsPerTask float64) error {
	n := recs.Len()
	compressed := d.job.CompressRuns

	sorted := kvio.PackedRecords{Arena: recs.Arena}
	dt, err := d.timed("kvio.sort", func() (time.Duration, error) {
		sorted.Meta = append(sorted.Meta[:0], recs.Meta...)
		t0 := time.Now()
		kvio.SortPacked(sorted)
		return time.Since(t0), nil
	})
	if err != nil {
		return err
	}
	d.m["kvio.sort_ns_per_record"] = nsPer(dt, n)

	var written int64
	dt, err = d.timed("kvio.runwrite", func() (time.Duration, error) {
		t0 := time.Now()
		sink, err := kvio.NewRunSink(vdisk.NewMem(), "drill-run", parts, compressed)
		if err != nil {
			return 0, err
		}
		for i := 0; i < n; i++ {
			if err := sink.Append(sorted.Part(i), sorted.Key(i), sorted.Value(i)); err != nil {
				return 0, err
			}
		}
		idx, err := sink.Close()
		written = idx.TotalBytes()
		return time.Since(t0), err
	})
	if err != nil {
		return err
	}
	d.m["kvio.runwrite_mb_per_s"] = mibPerSec(written, dt)

	// Map-side merge: as many runs as the traced tasks spilled, merged
	// partition by partition into one output run with the job's combiner.
	disk := vdisk.NewMem()
	spills, err := writeRuns(disk, "spill", recs, clampRuns(spillsPerTask), parts, compressed)
	if err != nil {
		return err
	}
	dt, err = d.timed("kvio.merge", func() (time.Duration, error) {
		t0 := time.Now()
		out, err := kvio.NewRunSink(vdisk.NewMem(), "drill-merged", parts, compressed)
		if err != nil {
			return 0, err
		}
		for p := 0; p < parts; p++ {
			streams := make([]kvio.Stream, 0, len(spills))
			for _, run := range spills {
				s, err := kvio.OpenRunPart(disk, run, p)
				if err != nil {
					return 0, err
				}
				streams = append(streams, s)
			}
			if _, _, err := kvio.MergeInto(streams, p, out, d.job.Combine); err != nil {
				return 0, err
			}
		}
		_, err = out.Close()
		return time.Since(t0), err
	})
	if err != nil {
		return err
	}
	d.m["kvio.merge_ns_per_record"] = nsPer(dt, n)

	// Reduce-side merge: one segment per map task, each partition merged
	// and iterated group by group as a reduce task does.
	mapTasks := float64((d.e.inputBytes + d.e.c.FS.BlockSize() - 1) / d.e.c.FS.BlockSize())
	outputs, err := writeRuns(disk, "mapout", recs, clampRuns(mapTasks), parts, compressed)
	if err != nil {
		return err
	}
	segments := make([][][]byte, parts)
	var raw, wire int64
	for p := range segments {
		for _, run := range outputs {
			seg, err := kvio.ReadSegment(disk, run, p)
			if err != nil {
				return err
			}
			segments[p] = append(segments[p], seg)
		}
	}
	dt, err = d.timed("kvio.reduce_merge", func() (time.Duration, error) {
		t0 := time.Now()
		for p := range segments {
			streams := make([]kvio.Stream, 0, len(segments[p]))
			for _, seg := range segments[p] {
				streams = append(streams, kvio.NewBytesSegmentStream(seg, compressed))
			}
			mg, err := kvio.NewMerger(streams)
			if err != nil {
				return 0, err
			}
			for {
				_, ok, err := mg.NextGroup()
				if err != nil {
					return 0, err
				}
				if !ok {
					break
				}
				for {
					_, ok, err := mg.NextValue()
					if err != nil {
						return 0, err
					}
					if !ok {
						break
					}
				}
			}
			if err := mg.Close(); err != nil {
				return 0, err
			}
		}
		return time.Since(t0), nil
	})
	if err != nil {
		return err
	}
	d.m["kvio.reduce_merge_ns_per_record"] = nsPer(dt, n)

	// Wire compression applies to uncompressed runs only.
	d.m["kvio.compress_ratio"] = 0
	if !compressed {
		_, err = d.timed("kvio.compress", func() (time.Duration, error) {
			raw, wire = 0, 0
			t0 := time.Now()
			for p := range segments {
				for _, seg := range segments[p] {
					out, err := kvio.CompressSegment(seg)
					if err != nil {
						return 0, err
					}
					raw += int64(len(seg))
					wire += int64(len(out))
				}
			}
			return time.Since(t0), nil
		})
		if err != nil {
			return err
		}
		d.m["kvio.compress_ratio"] = ratio(float64(wire), float64(raw))
	}
	return nil
}
