package mr_test

import (
	"testing"

	"mrtext/internal/apps"
	"mrtext/internal/core/freqbuf"
	"mrtext/internal/mr"
	"mrtext/internal/textgen"
)

// TestFreqBufMatchesReference runs every application with a combiner under
// frequency-buffering on a 64 KiB spill buffer, whose 30 % table is far too
// small for the frequent keys' values: hot keys are absorbed and combined in
// the table, and aggregates are evicted down the spill path over and over.
// InvertedIndex's combiner only concatenates, so its entries take the
// noCombine path. WordCount and AccessLogSum declare kvio.SumInt64, whose
// 8-byte accumulators never fill a 30 % table, so their table gets 5 % of
// the buffer, less than its keys' fixed charge: every hit then evicts the
// accumulators that hold a total. Each job's output must be RunReference's
// byte for byte, and the table must have absorbed and evicted, or the test
// proved nothing.
func TestFreqBufMatchesReference(t *testing.T) {
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
	for _, app := range []struct {
		name        string
		job         *mr.Job
		memFraction float64
	}{
		{"wordcount", apps.WordCount(corpus), 0.05},
		{"invertedindex", apps.InvertedIndex(corpus), 0.3},
		{"accesslogsum", apps.AccessLogSum("visits.log"), 0.05},
		{"wordpostag", apps.WordPOSTag(2, corpus), 0.3},
	} {
		t.Run(app.name, func(t *testing.T) {
			job := app.job
			job.Name = "freqbuf-" + app.name
			job.SpillBufferBytes = 64 << 10
			job.FreqBuf = &mr.FreqBufConfig{K: 100, SampleFraction: 0.05, MemFraction: app.memFraction}
			res := runAgainstReference(t, c, job)
			if fs := res.FreqStats(); fs.Hits == 0 || fs.Evictions == 0 {
				t.Errorf("frequency buffer absorbed %d records and evicted %d aggregates: want both above zero", fs.Hits, fs.Evictions)
			}
		})
	}
}

// TestFreqReportsOutliveDrain: a map task reads its frequency buffer's
// statistics after Drain has emptied the table, so the report must carry
// what the table was — the keys installed and its peak footprint, at least
// the installed keys' fixed charge — not what is left of it.
func TestFreqReportsOutliveDrain(t *testing.T) {
	c, corpus := newTextCluster(t, 3, 512<<10)
	job := apps.WordCount(corpus)
	job.Name = "freq-reports"
	job.FreqBuf = &mr.FreqBufConfig{K: 100, SampleFraction: 0.05, MemFraction: 0.3}
	res, err := mr.Run(c, job)
	if err != nil {
		t.Fatal(err)
	}
	optimized := 0
	for _, task := range res.Tasks {
		fs := task.FreqStats
		if task.Kind != "map" || fs.Stage != freqbuf.StageOptimize {
			continue
		}
		optimized++
		if fs.FrozenTableLen <= 0 || fs.FrozenTableLen > job.FreqBuf.K {
			t.Errorf("map task %d reports %d frequent keys installed, want 1 to %d", task.Index, fs.FrozenTableLen, job.FreqBuf.K)
		}
		if min := int64(49 * fs.FrozenTableLen); fs.TableBytes < min {
			t.Errorf("map task %d reports a table peak of %d bytes, below the %d its %d keys are charged empty", task.Index, fs.TableBytes, min, fs.FrozenTableLen)
		}
	}
	if optimized == 0 {
		t.Fatal("no map task reached the optimize stage")
	}
}
