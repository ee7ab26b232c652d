package apps

import (
	"fmt"
	"strconv"

	"mrtext/internal/fastparse"
	"mrtext/internal/mr"
	"mrtext/internal/postag"
	"mrtext/internal/serde"
)

// DefaultPOSIterations is the rescoring depth that makes map() dominate
// runtime the way OpenNLP does in the paper (Fig. 2: WordPOSTag user code
// > 90% of all work).
const DefaultPOSIterations = 60

// wordPOSMapper tags each line and emits, per word, a counter vector with
// a 1 at the decoded tag's index — exactly the paper's description: "map()
// emits an array of counters, each counts the times this word is of a
// certain type".
type wordPOSMapper struct {
	tagger  *postag.Tagger
	words   [][]byte // tokenizer scratch, reused across lines
	scratch []uint32
	enc     []byte
}

func (m *wordPOSMapper) Map(_ int64, line []byte, out mr.Collector) error {
	m.words = fastparse.Fields(m.words[:0], line)
	words := m.words
	if len(words) == 0 {
		return nil
	}
	tags := m.tagger.Tag(words)
	if cap(m.scratch) < int(postag.NumTags) {
		m.scratch = make([]uint32, postag.NumTags)
	}
	for i, w := range words {
		vec := m.scratch[:postag.NumTags]
		for j := range vec {
			vec[j] = 0
		}
		vec[tags[i]] = 1
		m.enc = append(m.enc[:0], serde.EncodeCounterVec(vec)...)
		if err := out.Collect(w, m.enc); err != nil {
			return err
		}
	}
	return nil
}

// counterVecCombine sums counter vectors — combiner and reducer core.
func counterVecCombine(key []byte, values [][]byte, emit func(k, v []byte) error) error {
	var sum []uint32
	for _, v := range values {
		vec, err := serde.DecodeCounterVec(nil, v)
		if err != nil {
			return fmt.Errorf("apps: decoding counters for %q: %w", key, err)
		}
		sum = serde.AddCounterVecs(sum, vec)
	}
	return emit(key, serde.EncodeCounterVec(sum))
}

type wordPOSReducer struct{}

func (wordPOSReducer) Reduce(key []byte, values mr.ValueIter, out mr.Collector) error {
	var sum []uint32
	for {
		v, ok, err := values.Next()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		vec, err := serde.DecodeCounterVec(nil, v)
		if err != nil {
			return fmt.Errorf("apps: decoding counters for %q: %w", key, err)
		}
		sum = serde.AddCounterVecs(sum, vec)
	}
	return out.Collect(key, serde.EncodeCounterVec(sum))
}

// wordPOSFormat renders "word<TAB>TAG:n TAG:n ...\n" for non-zero tags.
func wordPOSFormat(dst, key, value []byte) ([]byte, error) {
	var counts [postag.NumTags]uint32
	vec, err := serde.DecodeCounterVec(counts[:0], value)
	if err != nil {
		return dst, err
	}
	dst = append(dst, key...)
	dst = append(dst, '\t')
	first := true
	for i, c := range vec {
		if c == 0 {
			continue
		}
		if !first {
			dst = append(dst, ' ')
		}
		first = false
		dst = append(dst, postag.Tag(i).String()...)
		dst = append(dst, ':')
		dst = strconv.AppendUint(dst, uint64(c), 10)
	}
	return append(dst, '\n'), nil
}

// WordPOSTag computes per-word part-of-speech statistics over the corpus
// with a CPU-intensive tagging map(). iterations controls the tagger's
// rescoring depth (CPU intensity); pass 0 for the paper-like default.
func WordPOSTag(iterations int, inputs ...string) *mr.Job {
	if iterations <= 0 {
		iterations = DefaultPOSIterations
	}
	return &mr.Job{
		Name:       "wordpostag",
		Inputs:     inputs,
		NewMapper:  func() mr.Mapper { return &wordPOSMapper{tagger: postag.New(iterations)} },
		NewReducer: func() mr.Reducer { return wordPOSReducer{} },
		Combine:    counterVecCombine,
		Format:     wordPOSFormat,
	}
}
