package mr

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"runtime"
	"strings"
	"testing"

	"mrtext/internal/cluster"
	"mrtext/internal/kvio"
	"mrtext/internal/metrics"
	"mrtext/internal/spillbuf"
	"mrtext/internal/vdisk"
)

// oneSlotCluster returns a one-node cluster with one map slot, so every
// map attempt takes the same workspace, holding data as file "f" in
// blocks of blockSize.
func oneSlotCluster(t *testing.T, data []byte, blockSize int64) *cluster.Cluster {
	t.Helper()
	c, err := cluster.New(cluster.Config{Nodes: 1, BlockSize: blockSize, Replication: 1,
		MapSlotsPerNode: 1, ReduceSlotsPerNode: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.FS.WriteFile("f", data); err != nil {
		t.Fatal(err)
	}
	return c
}

// longLinesInput is a word corpus whose every seventh line is about a
// thousand bytes long: longer than a tiny ingest chunk by far, so a
// scanner on one grows its arena.
func longLinesInput(lines int) []byte {
	var b bytes.Buffer
	for i := 0; i < lines; i++ {
		words := 4
		if i%7 == 3 {
			words = 100 + i%100
		}
		for w := 0; w < words; w++ {
			if w > 0 {
				b.WriteByte(' ')
			}
			fmt.Fprintf(&b, "w%04d", (i*31+w*17)%900)
		}
		b.WriteByte('\n')
	}
	return b.Bytes()
}

// held returns how many spill regions ws holds.
func held(ws *mapWorkspace) int {
	n := 0
	for _, r := range ws.regions {
		if cap(r.Arena) > 0 {
			n++
		}
	}
	return n
}

// peekWorkspace returns the cluster's one kept workspace without taking it
// for good.
func peekWorkspace(t *testing.T, c *cluster.Cluster) *mapWorkspace {
	t.Helper()
	if n := c.MapWorkspaces.Free(); n != 1 {
		t.Fatalf("cluster keeps %d map workspaces, want its one slot's", n)
	}
	ws := c.MapWorkspaces.Get().(*mapWorkspace)
	c.MapWorkspaces.Put(ws)
	return ws
}

// TestMapWorkspaceReuse: a map attempt takes over the workspace of the
// attempt before it on the slot — an arena that still holds that task's
// bytes, grown or not — in both orders of a tiny ingest chunk that long
// lines make the arena outgrow and the default chunk, and writes the same
// map output as an attempt on a fresh workspace. Whole jobs that start on
// such a workspace, and whose tasks then take each other's, write the
// reference executor's output, and leave the workspace with its two spill
// regions and nothing else when their map phase ends. Failed, panicking and
// canceled attempts return their workspace too, and a combiner's panic
// leaves both spill regions in it.
func TestMapWorkspaceReuse(t *testing.T) {
	data := longLinesInput(1000)
	blockSize := int64(len(data) / 4)
	mapJob := func(t *testing.T, chunk int64) *Job {
		spec := wordSumSpec(fmt.Sprintf("wc-chunk%d", chunk))
		spec.IngestChunkBytes = chunk
		job, err := spec.withDefaults(2)
		if err != nil {
			t.Fatal(err)
		}
		return job
	}
	// attempt runs one map attempt of split i and returns its output: its
	// runs merged under the job's combiner, partition by partition, into
	// one run — what the reduce side reads of them, wherever the spills
	// were cut.
	attempt := func(t *testing.T, c *cluster.Cluster, chunk int64, i int) []byte {
		t.Helper()
		splits, err := SplitsOf(c.FS, []string{"f"})
		if err != nil {
			t.Fatal(err)
		}
		job := mapJob(t, chunk)
		mo, _, _, err := runMapTask(c, job, metrics.NewTaskMetrics(), i, splits[i], 0, 0, 0, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		merged := vdisk.NewMem()
		sink, err := kvio.NewRunSink(merged, "merged", job.NumReducers, false)
		if err != nil {
			t.Fatal(err)
		}
		for p := 0; p < job.NumReducers; p++ {
			var streams []kvio.Stream
			for _, run := range mo.runs {
				s, err := kvio.OpenRunPart(c.Disks[0], run, p)
				if err != nil {
					t.Fatal(err)
				}
				streams = append(streams, s)
			}
			if _, _, err := kvio.MergeInto(streams, p, sink, job.Combine); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := sink.Close(); err != nil {
			t.Fatal(err)
		}
		r, err := merged.Open("merged")
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		out, err := io.ReadAll(r)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	run := func(t *testing.T, c *cluster.Cluster, chunk int64) {
		t.Helper()
		job := wordSumSpec(fmt.Sprintf("wc-job-chunk%d", chunk))
		job.IngestChunkBytes = chunk
		want, err := RunReference(c, job)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(c, job)
		if err != nil {
			t.Fatal(err)
		}
		if res.MapTasks < 2 {
			t.Fatalf("%d map tasks: the case needs several on the one slot", res.MapTasks)
		}
		assertReferenceOutput(t, c, res, want)
		ws := peekWorkspace(t, c)
		if held(ws) != spillbuf.RegionsPerBuffer || ws.scanner.buf != nil || ws.scratch.runBuf != nil {
			t.Errorf("the map phase's cut left a workspace with %d spill regions, a %d-byte ingest arena and run buffer %p; want both regions and nothing else",
				held(ws), cap(ws.scanner.buf), ws.scratch.runBuf)
		}
	}

	for _, order := range [][]int64{{64, 0, 64}, {0, 64, 0}} {
		t.Run(fmt.Sprintf("chunks%v", order), func(t *testing.T) {
			c := oneSlotCluster(t, data, blockSize)
			var prev *byte
			prevCap := 0
			for i, chunk := range order {
				got := attempt(t, c, chunk, i)
				if want := attempt(t, oneSlotCluster(t, data, blockSize), chunk, i); !bytes.Equal(got, want) {
					t.Fatalf("attempt %d (chunk %d) on a warm workspace wrote %d bytes of map output that differ from a fresh one's %d", i, chunk, len(got), len(want))
				}
				arena := peekWorkspace(t, c).scanner.buf
				if !bytes.Contains(arena[:cap(arena)], []byte("w0")) {
					t.Fatalf("attempt %d left an arena without its input's bytes", i)
				}
				// An arena is taken over when it has room for the chunk: a
				// 64-byte chunk fits any, the default chunk only one a
				// default-chunk attempt made.
				reused := &arena[:1][0] == prev
				if wantReuse := i > 0 && (chunk == 64 || prevCap >= defaultIngestChunk); reused != wantReuse {
					t.Errorf("attempt %d (chunk %d): arena reused %v, want %v", i, chunk, reused, wantReuse)
				}
				if chunk == 64 && cap(arena) < 1024 {
					t.Errorf("attempt %d: long lines left a %d-byte arena", i, cap(arena))
				}
				prev, prevCap = &arena[:1][0], cap(arena)
			}
			// The first job starts on the last attempt's workspace.
			run(t, c, order[1])
			run(t, c, order[0])
		})
	}

	t.Run("failed-panicked-canceled", func(t *testing.T) {
		c := oneSlotCluster(t, data, blockSize)
		splits, err := SplitsOf(c.FS, []string{"f"})
		if err != nil {
			t.Fatal(err)
		}
		errBoom := errors.New("boom")
		mappers := map[string]MapperFunc{
			"failed": func(int64, []byte, Collector) error { return errBoom },
			"panicked": func(int64, []byte, Collector) error {
				panic("boom")
			},
			"canceled": nil,
			"combiner-panicked": func(_ int64, _ []byte, out Collector) error {
				return out.Collect([]byte("key"), one) // one key: every spill calls the combiner
			},
		}
		// The combiner's panic leaves both regions home, where every later
		// attempt, failing before it collects a record, puts back the one it
		// started on.
		regions := 0
		for _, name := range []string{"combiner-panicked", "failed", "panicked", "canceled"} {
			if strings.HasSuffix(name, "panicked") && debugBuild {
				continue // a debug build re-raises the panic (see panicError)
			}
			combine := sumValues
			if name == "combiner-panicked" {
				combine = func([]byte, [][]byte, func(k, v []byte) error) error { panic("boom") }
				regions = spillbuf.RegionsPerBuffer
			}
			job := acctJob(t, combine, 4<<10, mappers[name])
			job.IngestChunkBytes = 64
			if name == "canceled" {
				job.cancel.Store(true)
			}
			_, _, _, err := runMapTask(c, job, metrics.NewTaskMetrics(), 0, splits[0], 0, 0, 0, nil, nil)
			if err == nil {
				t.Fatalf("%s attempt succeeded", name)
			}
			if n := held(peekWorkspace(t, c)); n != regions {
				t.Errorf("after a %s attempt the workspace holds %d spill regions, want %d", name, n, regions)
			}
		}
		run(t, c, 0)
	})
}

// TestGroundTruthMapWorkspace pins what a warm workspace saves to the real
// allocator. Ingest: a scanner on a warm workspace allocates exactly what
// reading the split's DFS stream does, nothing of its own. Spill: writing
// a spill run with warm scratch allocates the run file's bytes and a
// fixed handful of structures, nothing that grows with the spill — no
// sort scratch, no value slice, no write buffer. Race instrumentation
// inflates allocation counts, so the assertions are relaxed under -race.
func TestGroundTruthMapWorkspace(t *testing.T) {
	data := wordsInput(4000, 8, 500)
	c := buildFS(t, data, int64(len(data)))
	splits, err := SplitsOf(c.FS, []string{"f"})
	if err != nil {
		t.Fatal(err)
	}
	sp := splits[0]

	t.Run("ingest", func(t *testing.T) {
		const chunk = 16 << 10
		warm := new(blockScanner)
		scan := func() {
			sc, err := openBlockLines(c.FS, sp, 0, chunk, warm)
			if err != nil {
				t.Fatal(err)
			}
			for {
				_, _, ok, err := sc.Next()
				if err != nil {
					t.Fatal(err)
				}
				if !ok {
					break
				}
			}
			if err := sc.Close(); err != nil {
				t.Fatal(err)
			}
		}
		buf := make([]byte, chunk)
		stream := func() {
			rc, err := c.FS.OpenFrom(sp.File, 0, sp.Offset)
			if err != nil {
				t.Fatal(err)
			}
			for {
				if _, err := rc.Read(buf); err == io.EOF {
					break
				} else if err != nil {
					t.Fatal(err)
				}
			}
			rc.Close()
		}
		scan() // warm the scanner
		scanned, streamed := testing.AllocsPerRun(10, scan), testing.AllocsPerRun(10, stream)
		if scanned != streamed && !raceEnabled {
			t.Errorf("scanning a split on a warm workspace: %.1f allocations; its DFS stream alone: %.1f", scanned, streamed)
		}
	})

	t.Run("spill", func(t *testing.T) {
		// A combiner that allocates nothing of its own: what the write
		// allocates is the framework's.
		first := func(k []byte, vals [][]byte, emit func(k, v []byte) error) error { return emit(k, vals[0]) }
		job := acctJob(t, first, 8<<20, nil)
		// Two copies of one spill, each in emit order, as the sort takes it.
		regions := make([]kvio.Region, 2)
		for r := range regions {
			for i, w := range strings.Fields(string(data)) {
				regions[r].Append(i%job.NumReducers, []byte(w), one)
			}
		}
		disk := vdisk.NewMem()
		var scratch spillScratch
		tm := metrics.NewTaskMetrics()
		ct := newCombineTimer(metrics.DefaultSampler(), tm)
		n := 0
		write := func() int64 {
			n++
			idx, err := writeSpillRun(disk, fmt.Sprintf("run%d", n), job.NumReducers, regions[n-1], &scratch, job, ct, tm, spanner{})
			if err != nil {
				t.Fatal(err)
			}
			if err := disk.Remove(idx.Name); err != nil {
				t.Fatal(err)
			}
			return idx.TotalBytes()
		}
		allocated := func(f func() int64) (alloc, file int64) {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			file = f()
			runtime.ReadMemStats(&after)
			return int64(after.TotalAlloc - before.TotalAlloc), file
		}
		cold, _ := allocated(write)
		warm, file := allocated(write)
		// The warm write's fixed structures (run writer, index, disk file)
		// and the run file's chunk rounding come to about a KiB; the cold
		// write also made a 64 KiB write buffer and the sort scratch.
		const fixed = 4 << 10
		t.Logf("spill of %d records: cold write allocated %d bytes, warm %d, file %d", regions[0].Len(), cold, warm, file)
		if warm > file+fixed && !raceEnabled {
			t.Errorf("warm spill write allocated %d bytes for a %d-byte run file: more than the file and %d bytes", warm, file, fixed)
		}
		if cold < warm+64<<10 {
			t.Errorf("cold spill write allocated %d bytes, warm %d: the scratch is not being kept", cold, warm)
		}
	})
}
