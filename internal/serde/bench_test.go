package serde

import (
	"bytes"
	"fmt"
	"testing"
)

func BenchmarkAppendKV(b *testing.B) {
	key := []byte("benchmark-key")
	val := []byte("benchmark-value-0123456789")
	var dst []byte
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		dst = AppendKV(dst[:0], key, val)
	}
	b.SetBytes(int64(len(dst)))
}

func BenchmarkDecodeKV(b *testing.B) {
	frame := AppendKV(nil, []byte("benchmark-key"), []byte("benchmark-value-0123456789"))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, _, err := DecodeKV(frame); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(len(frame)))
}

func BenchmarkReaderThroughput(b *testing.B) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for i := 0; i < 10_000; i++ {
		w.WriteKV([]byte(fmt.Sprintf("key%06d", i)), []byte("value"))
	}
	data := buf.Bytes()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := NewReader(bytes.NewReader(data))
		for {
			_, _, err := r.Next()
			if err != nil {
				break
			}
		}
	}
	b.SetBytes(int64(len(data)))
}

func BenchmarkPostingsCodec(b *testing.B) {
	ps := make([]Posting, 256)
	for i := range ps {
		ps[i] = Posting{Doc: uint64(i / 4), Off: uint64(i * 37)}
	}
	enc := EncodePostings(ps)
	b.Run("encode", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			EncodePostings(ps)
		}
	})
	b.Run("decode", func(b *testing.B) {
		var dst []Posting
		for i := 0; i < b.N; i++ {
			var err error
			dst, err = DecodePostings(dst[:0], enc)
			if err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkMergedPostings merges 64 single-posting lists, the shape a hot
// word brings to a spill's combine, in order (one pass) and reversed (the
// sorting fallback).
func BenchmarkMergedPostings(b *testing.B) {
	var inOrder, reversed [][]byte
	for i := 0; i < 64; i++ {
		inOrder = append(inOrder, EncodePostings([]Posting{{Doc: uint64(i / 8), Off: uint64(i * 40)}}))
	}
	for i := len(inOrder) - 1; i >= 0; i-- {
		reversed = append(reversed, inOrder[i])
	}
	for _, c := range []struct {
		name  string
		lists [][]byte
	}{{"in-order", inOrder}, {"reversed", reversed}} {
		b.Run(c.name, func(b *testing.B) {
			var dst []byte
			var scratch []Posting
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var err error
				dst, scratch, err = AppendMergedPostings(dst[:0], c.lists, scratch)
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkCounterVecCodec(b *testing.B) {
	vec := make([]uint32, 12)
	for i := range vec {
		vec[i] = uint32(i * 100)
	}
	enc := EncodeCounterVec(vec)
	for i := 0; i < b.N; i++ {
		got, err := DecodeCounterVec(nil, enc)
		if err != nil {
			b.Fatal(err)
		}
		_ = AddCounterVecs(got, vec)
	}
}
