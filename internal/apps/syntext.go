package apps

import (
	"encoding/binary"
	"fmt"
	"strconv"

	"mrtext/internal/fastparse"
	"mrtext/internal/mr"
)

// SynText is the parameterizable synthetic text benchmark of §V-D/Fig. 10.
// It spans the space of text-centric applications along two axes:
//
//   - CPU-intensity: the volume of computation map() performs per word, as
//     a multiplicative factor over WordCount (factor 1 ≈ WordCount's cost;
//     large factors approach WordPOSTag).
//   - Storage-intensity: the average growth in value size when records are
//     aggregated by combine(). 0 means aggregates stay constant-size
//     (WordCount-like); 1 means aggregation doesn't shrink data at all
//     (InvertedIndex-like).
type SynTextConfig struct {
	// CPUFactor scales per-word map() computation (≥ 0; 0 = no extra work).
	CPUFactor int
	// Storage ∈ [0, 1] controls aggregate growth.
	Storage float64
	// PayloadBase is the single-record payload size in bytes (default 8).
	PayloadBase int
}

// synTextValue encodes (count, payload): a uvarint count followed by
// payloadSize(count) filler bytes. The payload depends only on the count,
// so aggregation is associative and deterministic.
func synTextValue(dst []byte, count uint64, cfg SynTextConfig) []byte {
	dst = binary.AppendUvarint(dst, count)
	size := synPayloadSize(count, cfg)
	for i := 0; i < size; i++ {
		dst = append(dst, 'x')
	}
	return dst
}

// synPayloadSize implements the storage-intensity model: a single record
// carries PayloadBase bytes; an aggregate of n records carries
// base·(1 + σ·(n−1)) bytes — σ=0 collapses to one record's size, σ=1 keeps
// the full concatenated size.
func synPayloadSize(count uint64, cfg SynTextConfig) int {
	base := cfg.PayloadBase
	if count <= 1 {
		return base
	}
	return base + int(cfg.Storage*float64(base)*float64(count-1))
}

func synTextCount(v []byte) (uint64, error) {
	n, k := binary.Uvarint(v)
	if k <= 0 {
		return 0, fmt.Errorf("apps: malformed SynText value")
	}
	return n, nil
}

type synTextMapper struct {
	cfg     SynTextConfig
	words   [][]byte // tokenizer scratch, reused across lines
	scratch []byte
	cpuSink uint64 // per-mapper: map tasks burn CPU concurrently
}

// Map implements the SynText map(): per-word CPU burn plus a count-1
// payload record, tokenized and encoded through reused scratch.
func (m *synTextMapper) Map(_ int64, line []byte, out mr.Collector) error {
	m.words = fastparse.Fields(m.words[:0], line)
	for _, w := range m.words {
		m.cpuSink += burnCPU(w, m.cfg.CPUFactor)
		m.scratch = synTextValue(m.scratch[:0], 1, m.cfg)
		if err := out.Collect(w, m.scratch); err != nil {
			return err
		}
	}
	return nil
}

// burnCPU performs factor rounds of hash mixing over the word — the
// CPU-intensity knob. The caller accumulates the result into a per-mapper
// sink so the work cannot be optimized away.
func burnCPU(word []byte, factor int) uint64 {
	var h uint64 = 1469598103934665603
	for r := 0; r < factor; r++ {
		for _, c := range word {
			h ^= uint64(c)
			h *= 1099511628211
			h ^= h >> 33
		}
	}
	return h
}

func synTextCombine(cfg SynTextConfig) mr.CombineFunc {
	return func(key []byte, values [][]byte, emit func(k, v []byte) error) error {
		var total uint64
		for _, v := range values {
			n, err := synTextCount(v)
			if err != nil {
				return err
			}
			total += n
		}
		return emit(key, synTextValue(nil, total, cfg))
	}
}

type synTextReducer struct {
	cfg SynTextConfig
}

func (r synTextReducer) Reduce(key []byte, values mr.ValueIter, out mr.Collector) error {
	var total uint64
	for {
		v, ok, err := values.Next()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		n, err := synTextCount(v)
		if err != nil {
			return err
		}
		total += n
	}
	return out.Collect(key, synTextValue(nil, total, r.cfg))
}

// synTextFormat renders "key<TAB>count\n".
func synTextFormat(dst, key, value []byte) ([]byte, error) {
	n, err := synTextCount(value)
	if err != nil {
		return dst, err
	}
	dst = append(dst, key...)
	dst = append(dst, '\t')
	dst = strconv.AppendUint(dst, n, 10)
	return append(dst, '\n'), nil
}

// SynText builds the synthetic benchmark job over a text corpus.
func SynText(cfg SynTextConfig, inputs ...string) *mr.Job {
	if cfg.PayloadBase <= 0 {
		cfg.PayloadBase = 8
	}
	if cfg.Storage < 0 {
		cfg.Storage = 0
	}
	if cfg.Storage > 1 {
		cfg.Storage = 1
	}
	return &mr.Job{
		Name:       fmt.Sprintf("syntext-c%d-s%02.0f", cfg.CPUFactor, cfg.Storage*100),
		Inputs:     inputs,
		NewMapper:  func() mr.Mapper { return &synTextMapper{cfg: cfg} },
		NewReducer: func() mr.Reducer { return synTextReducer{cfg: cfg} },
		Combine:    synTextCombine(cfg),
		Format:     synTextFormat,
	}
}
