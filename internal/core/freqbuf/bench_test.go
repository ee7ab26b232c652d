package freqbuf

import (
	"fmt"
	"math/rand"
	"testing"

	"mrtext/internal/core/zipfest"
	"mrtext/internal/serde"
)

// BenchmarkOfferOptimizeStage measures the hot path: a frozen table of the
// 3000 most frequent of 50 000 Zipf(1) keys with a sum combiner, offered
//
//   - hits: frequent keys only, with a budget the table never fills;
//   - misses: infrequent keys only;
//   - evicting: the whole Zipfian stream with a 1 MiB budget, which the
//     table overflows over and over.
func BenchmarkOfferOptimizeStage(b *testing.B) {
	s, err := zipfest.NewSampler(50_000, 1.0)
	if err != nil {
		b.Fatal(err)
	}
	const k = 3000
	rng := rand.New(rand.NewSource(1))
	var all, hits, misses [][]byte
	for len(hits) < 1<<15 || len(misses) < 1<<15 {
		rank := s.Rank(rng.Float64())
		key := []byte(fmt.Sprintf("w%05d", rank))
		if len(all) < 1<<15 {
			all = append(all, key)
		}
		if rank <= k {
			hits = append(hits, key)
		} else {
			misses = append(misses, key)
		}
	}
	top := make([]string, 0, k)
	for i := int64(1); i <= k; i++ {
		top = append(top, fmt.Sprintf("w%05d", i))
	}
	one := serde.EncodeInt64(1)
	for _, bc := range []struct {
		name   string
		keys   [][]byte
		memory int64
	}{
		{"hits", hits, 64 << 20},
		{"misses", misses, 64 << 20},
		{"evicting", all, 1 << 20},
	} {
		b.Run(bc.name, func(b *testing.B) {
			buf, err := New(Config{
				K: k, MemoryBytes: bc.memory,
				ExpectedRecords: func() int64 { return 1 << 20 },
			}, sumCombine)
			if err != nil {
				b.Fatal(err)
			}
			buf.InstallTopK(top, func([]byte) int { return 0 })
			const n = 1 << 15
			keys := bc.keys[:n]
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := buf.Offer(0, keys[i&(n-1)], one); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(buf.Stats().Evictions)/float64(b.N), "evictions/op")
		})
	}
}
