package kvio

// ReferenceMerger is a container/heap k-way merger, the test oracle the
// loser-tree Merger (losertree.go) is validated against: property tests
// assert both produce identical group and value sequences, and
// BenchmarkReferenceMerge keeps its cost beside the loser tree's.

import (
	"bytes"
	"container/heap"
	"errors"
	"fmt"
	"io"
)

// mergeHead is one stream's current record inside the merge heap.
type mergeHead struct {
	key, value []byte
	src        int
}

type mergeHeap struct {
	heads []mergeHead
}

func (h *mergeHeap) Len() int { return len(h.heads) }
func (h *mergeHeap) Less(i, j int) bool {
	c := bytes.Compare(h.heads[i].key, h.heads[j].key)
	if c != 0 {
		return c < 0
	}
	return h.heads[i].src < h.heads[j].src // stability across runs
}
func (h *mergeHeap) Swap(i, j int)      { h.heads[i], h.heads[j] = h.heads[j], h.heads[i] }
func (h *mergeHeap) Push(x interface{}) { h.heads = append(h.heads, x.(mergeHead)) }
func (h *mergeHeap) Pop() interface{} {
	old := h.heads
	n := len(old)
	x := old[n-1]
	h.heads = old[:n-1]
	return x
}

// ReferenceMerger merges sorted Streams with the same grouped API as
// Merger: NextGroup positions on the next distinct key and NextValue
// iterates that key's values. The key slice is valid until the next
// NextGroup call.
type ReferenceMerger struct {
	streams []Stream
	h       mergeHeap
	// current group state
	curKey    []byte
	groupOpen bool
	pending   *mergeHead // head popped but not yet consumed
	done      bool
	err       error
}

// NewReferenceMerger builds a ReferenceMerger over streams; it
// immediately primes every stream. Streams are closed by Close.
func NewReferenceMerger(streams []Stream) (*ReferenceMerger, error) {
	m := &ReferenceMerger{streams: streams}
	for i, s := range streams {
		k, v, err := s.Next()
		if err == io.EOF {
			continue
		}
		if err != nil {
			return nil, fmt.Errorf("kvio: priming merge stream %d: %w", i, errors.Join(err, m.Close()))
		}
		m.h.heads = append(m.h.heads, mergeHead{key: append([]byte(nil), k...), value: append([]byte(nil), v...), src: i})
	}
	heap.Init(&m.h)
	return m, nil
}

// advance refills the heap from stream src after its head was consumed.
func (m *ReferenceMerger) advance(src int) error {
	k, v, err := m.streams[src].Next()
	if err == io.EOF {
		return nil
	}
	if err != nil {
		return fmt.Errorf("kvio: merge stream %d: %w", src, err)
	}
	heap.Push(&m.h, mergeHead{key: append([]byte(nil), k...), value: append([]byte(nil), v...), src: src})
	return nil
}

// NextGroup advances to the next distinct key. It returns the key and
// true, or nil and false at end of input.
func (m *ReferenceMerger) NextGroup() ([]byte, bool, error) {
	if m.err != nil || m.done {
		return nil, false, m.err
	}
	// Drain the remainder of the current group.
	for {
		_, ok, err := m.NextValue()
		if err != nil {
			return nil, false, err
		}
		if !ok {
			break
		}
	}
	if m.pending == nil {
		if m.h.Len() == 0 {
			m.done = true
			return nil, false, nil
		}
		head := heap.Pop(&m.h).(mergeHead)
		m.pending = &head
	}
	m.curKey = append(m.curKey[:0], m.pending.key...)
	m.groupOpen = true
	return m.curKey, true, nil
}

// NextValue returns the next value of the current group, or false when
// the group is exhausted.
func (m *ReferenceMerger) NextValue() ([]byte, bool, error) {
	if m.err != nil {
		return nil, false, m.err
	}
	if !m.groupOpen {
		return nil, false, nil
	}
	if m.pending == nil {
		if m.h.Len() == 0 {
			return nil, false, nil
		}
		head := heap.Pop(&m.h).(mergeHead)
		m.pending = &head
	}
	if !bytes.Equal(m.pending.key, m.curKey) {
		return nil, false, nil // start of the next group
	}
	v := m.pending.value
	src := m.pending.src
	m.pending = nil
	if err := m.advance(src); err != nil {
		m.err = err
		return nil, false, err
	}
	return v, true, nil
}

// Close closes all underlying streams, returning the first error.
func (m *ReferenceMerger) Close() error {
	var first error
	for _, s := range m.streams {
		if err := s.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
