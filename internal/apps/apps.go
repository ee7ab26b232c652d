// Package apps implements the paper's six benchmark applications (§II-B)
// plus the SynText parameterizable benchmark of §V-D against the mr
// runtime's public contract. Each constructor returns a ready job spec;
// callers flip the optimization switches (FreqBuf, SpillMatcher) on the
// returned Job. Catalogue lists every application once, with the dataset
// kinds it reads and its class's frequency-buffering preset; the service,
// mrrun, the experiments and the Go benchmarks build their jobs from it.
//
// All applications produce deterministic text output so any configuration
// can be byte-compared against the sequential reference executor.
package apps

import (
	"fmt"
	"strconv"
	"sync"

	"mrtext/internal/fastparse"
	"mrtext/internal/mr"
	"mrtext/internal/serde"
)

// Tokenization note: every mapper splits its line with fastparse.Fields
// (or fastparse.SplitByte for the '|'-delimited logs) into a per-mapper
// scratch slice, so the steady-state map loop performs zero heap
// allocations per record — the words are subslices of the split reader's
// arena and the field headers reuse the mapper's scratch capacity. This
// replaced the bytes.Fields-based splitWords helper, which allocated a
// fresh token slice per line.

// sumReducer reduces by summing int64 values and emitting the total,
// encoded into the reducer's own scratch.
type sumReducer struct {
	enc []byte
}

// Reduce implements the WordCount and AccessLogSum reduce().
func (r *sumReducer) Reduce(key []byte, values mr.ValueIter, out mr.Collector) error {
	var sum int64
	for {
		v, ok, err := values.Next()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		n, err := serde.DecodeInt64(v)
		if err != nil {
			return fmt.Errorf("apps: decoding count for %q: %w", key, err)
		}
		sum += n
	}
	r.enc = serde.AppendInt64(r.enc[:0], sum)
	return out.Collect(key, r.enc)
}

// textKVFormat renders "key<TAB>int64Value\n".
func textKVFormat(dst, key, value []byte) ([]byte, error) {
	n, err := serde.DecodeInt64(value)
	if err != nil {
		return dst, err
	}
	dst = append(dst, key...)
	dst = append(dst, '\t')
	dst = strconv.AppendInt(dst, n, 10)
	return append(dst, '\n'), nil
}

// ---------- WordCount ----------

var one = serde.EncodeInt64(1)

type wordCountMapper struct {
	words [][]byte // tokenizer scratch, reused across lines
}

// Map implements the WordCount map(): one (word, 1) per token.
func (m *wordCountMapper) Map(_ int64, line []byte, out mr.Collector) error {
	m.words = fastparse.Fields(m.words[:0], line)
	for _, w := range m.words {
		if err := out.Collect(w, one); err != nil {
			return err
		}
	}
	return nil
}

// WordCount counts occurrences of each distinct word in the corpus — the
// canonical text-centric MapReduce program.
func WordCount(inputs ...string) *mr.Job {
	return &mr.Job{
		Name:       "wordcount",
		Inputs:     inputs,
		NewMapper:  func() mr.Mapper { return &wordCountMapper{} },
		NewReducer: func() mr.Reducer { return &sumReducer{} },
		Combine:    mr.SumInt64,
		Format:     textKVFormat,
	}
}

// ---------- InvertedIndex ----------

// invIdxDocShift buckets line offsets into pseudo-documents of 64 KiB, so
// posting lists carry (doc, offset) locations as a real index would.
const invIdxDocShift = 16

type invertedIndexMapper struct {
	words   [][]byte // tokenizer scratch, reused across lines
	posting [1]serde.Posting
	scratch []byte
}

// Map implements the InvertedIndex map(): one single-posting list per
// token, encoded into the mapper's scratch.
func (m *invertedIndexMapper) Map(off int64, line []byte, out mr.Collector) error {
	m.words = fastparse.Fields(m.words[:0], line)
	if len(m.words) == 0 {
		return nil
	}
	m.posting[0] = serde.Posting{Doc: uint64(off) >> invIdxDocShift, Off: uint64(off)}
	m.scratch = serde.AppendPostings(m.scratch[:0], m.posting[:])
	for _, w := range m.words {
		if err := out.Collect(w, m.scratch); err != nil {
			return err
		}
	}
	return nil
}

// postingsScratch is one postingsCombine call's working memory. The
// combiner is a plain function run by many tasks' goroutines at once, so
// its scratch comes from a pool.
type postingsScratch struct {
	out []byte
	ps  []serde.Posting
}

var postingsPool = sync.Pool{New: func() any { return new(postingsScratch) }}

// postingsCombine merges posting lists — the value grows with every merge,
// which is what makes InvertedIndex the storage-intensive corner of
// Fig. 10. It emits from pooled scratch: emit copies what it is given.
func postingsCombine(key []byte, values [][]byte, emit func(k, v []byte) error) error {
	if len(values) == 1 {
		return emit(key, values[0])
	}
	s := postingsPool.Get().(*postingsScratch)
	defer postingsPool.Put(s)
	var err error
	s.out, s.ps, err = serde.AppendMergedPostings(s.out[:0], values, s.ps)
	if err != nil {
		return fmt.Errorf("apps: merging postings for %q: %w", key, err)
	}
	return emit(key, s.out)
}

// invertedIndexReducer merges a key's posting lists with the same kernel
// as the combiner. It owns its working memory: the group's values copied
// out of the iterator, their headers, the merged list and the sort scratch.
type invertedIndexReducer struct {
	arena []byte
	ends  []int
	lists [][]byte
	out   []byte
	ps    []serde.Posting
}

// Reduce implements the InvertedIndex reduce().
func (r *invertedIndexReducer) Reduce(key []byte, values mr.ValueIter, out mr.Collector) error {
	// A value is valid only until the next Next, so each is copied into the
	// arena, and sliced out of it only once the arena has stopped growing.
	r.arena, r.ends = r.arena[:0], r.ends[:0]
	for {
		v, ok, err := values.Next()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		r.arena = append(r.arena, v...)
		r.ends = append(r.ends, len(r.arena))
	}
	r.lists = r.lists[:0]
	lo := 0
	for _, hi := range r.ends {
		r.lists = append(r.lists, r.arena[lo:hi:hi])
		lo = hi
	}
	var err error
	r.out, r.ps, err = serde.AppendMergedPostings(r.out[:0], r.lists, r.ps)
	if err != nil {
		return fmt.Errorf("apps: decoding postings for %q: %w", key, err)
	}
	return out.Collect(key, r.out)
}

// invertedIndexFormat renders "word<TAB>doc:off doc:off ...\n".
func invertedIndexFormat(dst, key, value []byte) ([]byte, error) {
	dst = append(dst, key...)
	dst = append(dst, '\t')
	return serde.AppendPostingsText(dst, value)
}

// InvertedIndex builds, for each word, the list of all locations where it
// appears.
func InvertedIndex(inputs ...string) *mr.Job {
	return &mr.Job{
		Name:       "invertedindex",
		Inputs:     inputs,
		NewMapper:  func() mr.Mapper { return &invertedIndexMapper{} },
		NewReducer: func() mr.Reducer { return &invertedIndexReducer{} },
		Combine:    postingsCombine,
		Format:     invertedIndexFormat,
	}
}
