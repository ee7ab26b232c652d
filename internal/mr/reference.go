package mr

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"sort"

	"mrtext/internal/cluster"
	"mrtext/internal/serde"
)

// RunReference executes the job sequentially, with no combiner, no spill
// pipeline and no optimizations: map over every input line in file order,
// stable-sort by (partition, key), group, reduce, format. It is the
// semantic ground truth the correctness tests compare Run's output against
// under every configuration.
func RunReference(c *cluster.Cluster, spec *Job) (map[int][]byte, error) {
	job, err := spec.withDefaults(c.TotalReduceSlots())
	if err != nil {
		return nil, err
	}

	var recs []refRec
	collect := CollectorFunc(func(key, value []byte) error {
		recs = append(recs, refRec{
			part: job.Partition(key, job.NumReducers),
			key:  append([]byte(nil), key...),
			val:  append([]byte(nil), value...),
		})
		return nil
	})

	mapper := job.NewMapper()
	for _, in := range job.Inputs {
		rd, err := c.FS.OpenFrom(in, 0, 0)
		if err != nil {
			return nil, err
		}
		br := bufio.NewReaderSize(rd, 64<<10)
		var off int64
		for {
			line, rerr := br.ReadBytes('\n')
			lineOff := off
			off += int64(len(line))
			line = bytes.TrimSuffix(line, []byte("\n"))
			if len(line) > 0 || (rerr == nil) {
				if err := mapper.Map(lineOff, line, collect); err != nil {
					return nil, fmt.Errorf("mr: reference map(): %w", errors.Join(err, rd.Close()))
				}
			}
			if rerr == io.EOF {
				break
			}
			if rerr != nil {
				return nil, errors.Join(rerr, rd.Close())
			}
		}
		if err := rd.Close(); err != nil {
			return nil, fmt.Errorf("mr: closing reference input %s: %w", in, err)
		}
	}

	sort.SliceStable(recs, func(i, j int) bool {
		if recs[i].part != recs[j].part {
			return recs[i].part < recs[j].part
		}
		return bytes.Compare(recs[i].key, recs[j].key) < 0
	})

	// Each partition's output is appended straight into one reused buffer.
	outputs := make(map[int][]byte, job.NumReducers)
	var buf []byte
	out := CollectorFunc(func(key, value []byte) error {
		if job.Format == nil {
			buf = serde.AppendKV(buf, key, value)
			return nil
		}
		var err error
		buf, err = job.Format(buf, key, value)
		return err
	})

	reducer := job.NewReducer()
	i := 0
	for p := 0; p < job.NumReducers; p++ {
		buf = buf[:0]
		for i < len(recs) && recs[i].part == p {
			j := i + 1
			for j < len(recs) && recs[j].part == p && bytes.Equal(recs[j].key, recs[i].key) {
				j++
			}
			iter := &sliceValues{recs: recs[i:j]}
			if err := reducer.Reduce(recs[i].key, iter, out); err != nil {
				return nil, fmt.Errorf("mr: reference reduce(): %w", err)
			}
			i = j
		}
		outputs[p] = append([]byte(nil), buf...)
	}
	return outputs, nil
}

// refRec is one intermediate record of the reference execution.
type refRec struct {
	part int
	key  []byte
	val  []byte
}

type sliceValues struct {
	recs []refRec
	pos  int
}

func (s *sliceValues) Next() (value []byte, ok bool, err error) {
	if s.pos >= len(s.recs) {
		return nil, false, nil
	}
	v := s.recs[s.pos].val
	s.pos++
	return v, true, nil
}
