package spillbuf

import (
	"testing"
	"time"

	"mrtext/internal/core/spillmatch"
)

// BenchmarkPipeline measures produce→consume throughput of the spill
// buffer under the two controllers.
func BenchmarkPipeline(b *testing.B) {
	for _, ctrl := range []struct {
		name string
		mk   func() spillmatch.Controller
	}{
		{"static-0.8", func() spillmatch.Controller { return spillmatch.NewStatic(0.8) }},
		{"matcher", func() spillmatch.Controller { return spillmatch.NewMatcher(spillmatch.DefaultConfig()) }},
	} {
		b.Run(ctrl.name, func(b *testing.B) {
			buf, err := New(256<<10, ctrl.mk(), nil)
			if err != nil {
				b.Fatal(err)
			}
			done := make(chan struct{})
			go func() {
				defer close(done)
				for {
					s, ok := buf.NextSpill()
					if !ok {
						return
					}
					buf.Release(s, time.Microsecond)
				}
			}()
			key := []byte("benchkey")
			val := make([]byte, 32)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := buf.Append(i%8, key, val); err != nil {
					b.Fatal(err)
				}
			}
			buf.Close()
			<-done
			b.SetBytes(RecordBytes(key, val))
		})
	}
}

// BenchmarkAppend measures the producer's side alone, in WordCount's
// record shape (a short word, a one-byte count) against the default 4 MiB
// buffer with a consumer that releases at once: ns and allocations per
// appended record.
func BenchmarkAppend(b *testing.B) {
	buf, err := New(4<<20, nil, nil)
	if err != nil {
		b.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			s, ok := buf.NextSpill()
			if !ok {
				return
			}
			buf.Release(s, 0)
		}
	}()
	key, val := []byte("because"), []byte{2}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := buf.Append(i%8, key, val); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	buf.Close()
	<-done
}
