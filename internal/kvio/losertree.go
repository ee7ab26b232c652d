package kvio

// Loser-tree k-way merge, validated against the container/heap
// ReferenceMerger oracle in refmerge_test.go.
//
// A loser tree replaces the heap's O(log k) sift — each level of which
// paid an interface-dispatched Less plus a full bytes.Compare — with a
// single root-to-leaf replay of exactly ⌈log2 k⌉ comparisons, each of
// which first tries the stream's cached eight-byte key prefix as one
// unsigned integer compare and only touches key bytes on a prefix tie.
// Each stream's head is also copied into per-leaf reused buffers, so
// steady-state merging allocates nothing per record (the heap version
// allocated a fresh key and value copy for every record pushed).

import (
	"bytes"
	"errors"
	"fmt"
	"io"
)

// mergeLeaf is one stream's current head record inside the loser tree.
// key/value are leaf-owned buffers reused across advances; spare is the
// previous value buffer, kept so a value returned by NextValue stays
// valid until the *next* NextValue call even if the same leaf advances.
type mergeLeaf struct {
	prefix uint64
	key    []byte
	value  []byte
	spare  []byte
	src    int
	eof    bool
}

// Merger performs a streaming k-way merge over sorted Streams. It
// exposes the merged sequence grouped by key: NextGroup positions on
// the next distinct key and NextValue iterates that key's values
// lazily. The key slice is valid until the next NextGroup call; a value
// slice is valid until the following NextValue call.
type Merger struct {
	streams []Stream
	leaves  []mergeLeaf
	// node[0] is the overall winner's leaf index; node[1..k-1] hold the
	// losers of the internal matches (Knuth's tree of losers). Leaf i
	// conceptually sits at position k+i; the parent of position n is n/2.
	node      []int
	curKey    []byte
	groupOpen bool
	done      bool
	err       error
}

// NewMerger builds a Merger over streams; it immediately primes every
// stream. Streams are closed by Close.
func NewMerger(streams []Stream) (*Merger, error) {
	m := &Merger{streams: streams}
	k := len(streams)
	if k == 0 {
		m.done = true
		return m, nil
	}
	m.leaves = make([]mergeLeaf, k)
	m.node = make([]int, k)
	for i := range m.leaves {
		m.leaves[i].src = i
		if err := m.fill(i); err != nil {
			return nil, fmt.Errorf("kvio: priming merge stream %d: %w", i, errors.Join(err, m.Close()))
		}
	}
	m.node[0] = m.build(1)
	return m, nil
}

// fill loads stream i's next record into leaf i, marking eof at stream
// end. The leaf's buffers are reused; the previous value buffer is kept
// as spare for one extra call of validity.
//
//mrlint:hotpath
func (m *Merger) fill(i int) error {
	l := &m.leaves[i]
	k, v, err := m.streams[i].Next()
	if err == io.EOF {
		l.eof = true
		return nil
	}
	if err != nil {
		return err
	}
	l.key = append(l.key[:0], k...)
	l.value, l.spare = append(l.spare[:0], v...), l.value
	l.prefix = KeyPrefix(l.key)
	return nil
}

// leafLess orders leaves by (key, src); exhausted leaves sort last. The
// src tiebreak preserves the cross-run stability the old heap merger
// guaranteed: equal keys surface in stream order.
//
//mrlint:hotpath
func (m *Merger) leafLess(a, b int) bool {
	la, lb := &m.leaves[a], &m.leaves[b]
	if la.eof || lb.eof {
		return !la.eof && lb.eof
	}
	if la.prefix != lb.prefix {
		return la.prefix < lb.prefix
	}
	if len(la.key) <= 8 || len(lb.key) <= 8 {
		if len(la.key) != len(lb.key) {
			return len(la.key) < len(lb.key)
		}
		return la.src < lb.src
	}
	c := bytes.Compare(la.key[8:], lb.key[8:])
	if c != 0 {
		return c < 0
	}
	return la.src < lb.src
}

// build plays out the subtree rooted at position n, storing losers in
// the internal nodes and returning the subtree's winning leaf.
func (m *Merger) build(n int) int {
	k := len(m.leaves)
	if n >= k {
		return n - k
	}
	a := m.build(2 * n)
	b := m.build(2*n + 1)
	if m.leafLess(a, b) {
		m.node[n] = b
		return a
	}
	m.node[n] = a
	return b
}

// replay restores the tree after leaf w (the previous winner) changed:
// one walk from the leaf's parent to the root, swapping the candidate
// with any stored loser that now beats it.
//
//mrlint:hotpath
func (m *Merger) replay(w int) {
	k := len(m.leaves)
	for n := (w + k) / 2; n >= 1; n /= 2 {
		if m.leafLess(m.node[n], w) {
			m.node[n], w = w, m.node[n]
		}
	}
	m.node[0] = w
}

// NextGroup advances to the next distinct key. It returns the key and
// true, or nil and false at end of input. Any unconsumed values of the
// previous group are drained first.
//
//mrlint:hotpath
func (m *Merger) NextGroup() ([]byte, bool, error) {
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
	w := &m.leaves[m.node[0]]
	if w.eof {
		m.done = true
		m.groupOpen = false
		return nil, false, nil
	}
	m.curKey = append(m.curKey[:0], w.key...)
	m.groupOpen = true
	return m.curKey, true, nil
}

// NextValue returns the next value of the current group, or false when
// the group is exhausted. The returned slice is valid until the next
// NextValue call.
//
//mrlint:hotpath
func (m *Merger) NextValue() ([]byte, bool, error) {
	if m.err != nil {
		return nil, false, m.err
	}
	if !m.groupOpen || m.done {
		return nil, false, nil
	}
	w := m.node[0]
	l := &m.leaves[w]
	if l.eof || !bytes.Equal(l.key, m.curKey) {
		return nil, false, nil // start of the next group
	}
	v := l.value
	if err := m.fill(w); err != nil {
		//mrlint:ignore alloccheck cold path: a stream failure ends the merge, not the per-record loop
		m.err = fmt.Errorf("kvio: merge stream %d: %w", w, err)
		return nil, false, m.err
	}
	m.replay(w)
	return v, true, nil
}

// Close closes all underlying streams, returning the first error.
func (m *Merger) Close() error {
	var first error
	for _, s := range m.streams {
		if err := s.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
