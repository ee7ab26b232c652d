package kvio

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"testing"

	"mrtext/internal/core/zipfest"
	"mrtext/internal/textgen"
	"mrtext/internal/vdisk"
)

func benchRuns(b *testing.B, disk vdisk.Disk, nRuns, recsPerRun int, compressed bool) []RunIndex {
	b.Helper()
	idxs := make([]RunIndex, nRuns)
	for r := 0; r < nRuns; r++ {
		w, err := NewRunSink(disk, fmt.Sprintf("run%d-%v", r, compressed), 1, compressed)
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < recsPerRun; i++ {
			k := []byte(fmt.Sprintf("word/%06d", i*nRuns+r))
			if err := w.Append(0, k, []byte("v")); err != nil {
				b.Fatal(err)
			}
		}
		idx, err := w.Close()
		if err != nil {
			b.Fatal(err)
		}
		idxs[r] = idx
	}
	return idxs
}

func BenchmarkKWayMerge(b *testing.B) {
	disk := vdisk.NewMem()
	idxs := benchRuns(b, disk, 8, 4096, false)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		streams := make([]Stream, len(idxs))
		for j, idx := range idxs {
			s, err := OpenRunPart(disk, idx, 0)
			if err != nil {
				b.Fatal(err)
			}
			streams[j] = s
		}
		m, err := NewMerger(streams)
		if err != nil {
			b.Fatal(err)
		}
		n := 0
		for {
			_, ok, err := m.NextGroup()
			if err != nil {
				b.Fatal(err)
			}
			if !ok {
				break
			}
			for {
				_, ok, err := m.NextValue()
				if err != nil {
					b.Fatal(err)
				}
				if !ok {
					break
				}
				n++
			}
		}
		m.Close()
		if n != 8*4096 {
			b.Fatalf("merged %d records", n)
		}
	}
	b.SetBytes(8 * 4096)
}

func BenchmarkRunFormats(b *testing.B) {
	for _, compressed := range []bool{false, true} {
		name := "plain"
		if compressed {
			name = "prefix-compressed"
		}
		b.Run(name+"/write", func(b *testing.B) {
			disk := vdisk.NewMem()
			for i := 0; i < b.N; i++ {
				w, err := NewRunSink(disk, fmt.Sprintf("w%d-%v", i, compressed), 1, compressed)
				if err != nil {
					b.Fatal(err)
				}
				for j := 0; j < 4096; j++ {
					if err := w.Append(0, []byte(fmt.Sprintf("word/%06d", j)), []byte("v")); err != nil {
						b.Fatal(err)
					}
				}
				if _, err := w.Close(); err != nil {
					b.Fatal(err)
				}
			}
			b.SetBytes(4096)
		})
		b.Run(name+"/read", func(b *testing.B) {
			disk := vdisk.NewMem()
			idx := benchRuns(b, disk, 1, 4096, compressed)[0]
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s, err := OpenRunPart(disk, idx, 0)
				if err != nil {
					b.Fatal(err)
				}
				for {
					if _, _, err := s.Next(); err == io.EOF {
						break
					} else if err != nil {
						b.Fatal(err)
					}
				}
				s.Close()
			}
			b.SetBytes(4096)
		})
	}
}

func BenchmarkSortRecords(b *testing.B) {
	base := make([]Record, 1<<14)
	for i := range base {
		base[i] = Record{Part: i % 12, Key: []byte(fmt.Sprintf("k%05d", (i*2654435761)%9973))}
	}
	work := make([]Record, len(base))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(work, base)
		SortRecords(work)
	}
	b.SetBytes(int64(len(base)))
}

// BenchmarkSortPacked sorts batches shaped like the workloads' spills
// on a reused Sorter, as a map task does: uniform short keys; the words
// of a Zipf corpus, FNV-partitioned eight ways (wc_fast: hot keys, the
// radix on the cached prefix); URL keys that agree on their first twelve
// bytes (logsum_fast: the common-prefix skip, the arena-byte levels).
func BenchmarkSortPacked(b *testing.B) {
	fnvPart := func(key []byte, parts int) int {
		h := fnv.New32a()
		h.Write(key)
		return int(h.Sum32() % uint32(parts))
	}
	shapes := []struct {
		name string
		fill func(p *PackedRecords)
	}{
		{"uniform", func(p *PackedRecords) {
			for i := 0; i < 1<<14; i++ {
				p.Append(i%12, []byte(fmt.Sprintf("k%05d", (i*2654435761)%9973)), []byte("v"))
			}
		}},
		{"zipf-text", func(p *PackedRecords) {
			var text bytes.Buffer
			if _, err := textgen.Corpus(&text, textgen.DefaultCorpus(), 640<<10); err != nil {
				b.Fatal(err)
			}
			for _, w := range bytes.Fields(text.Bytes()) {
				p.Append(fnvPart(w, 8), w, []byte("1"))
			}
		}},
		{"shared-prefix", func(p *PackedRecords) {
			cfg := textgen.DefaultLog()
			ranks, err := zipfest.NewSampler(cfg.URLs, cfg.Alpha)
			if err != nil {
				b.Fatal(err)
			}
			rng := rand.New(rand.NewSource(cfg.Seed))
			for i := 0; i < 15000; i++ {
				url := []byte(textgen.URLForRank(ranks.Rank(rng.Float64())))
				p.Append(fnvPart(url, 8), url, []byte("12345"))
			}
		}},
	}
	for _, shape := range shapes {
		b.Run(shape.name, func(b *testing.B) {
			var base PackedRecords
			shape.fill(&base)
			work := PackedRecords{Meta: make([]Meta, base.Len()), Arena: base.Arena}
			var s Sorter
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				copy(work.Meta, base.Meta)
				s.Sort(work)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(base.Len()), "ns/record")
		})
	}
}

// BenchmarkReferenceMerge is the container/heap baseline that
// BenchmarkKWayMerge (which now exercises the loser tree through
// NewMerger) is compared against.
func BenchmarkReferenceMerge(b *testing.B) {
	disk := vdisk.NewMem()
	idxs := benchRuns(b, disk, 8, 4096, false)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		streams := make([]Stream, len(idxs))
		for j, idx := range idxs {
			s, err := OpenRunPart(disk, idx, 0)
			if err != nil {
				b.Fatal(err)
			}
			streams[j] = s
		}
		m, err := NewReferenceMerger(streams)
		if err != nil {
			b.Fatal(err)
		}
		n := 0
		for {
			_, ok, err := m.NextGroup()
			if err != nil {
				b.Fatal(err)
			}
			if !ok {
				break
			}
			for {
				_, ok, err := m.NextValue()
				if err != nil {
					b.Fatal(err)
				}
				if !ok {
					break
				}
				n++
			}
		}
		m.Close()
		if n != 8*4096 {
			b.Fatalf("merged %d records", n)
		}
	}
	b.SetBytes(8 * 4096)
}
