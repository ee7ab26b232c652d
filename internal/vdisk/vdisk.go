// Package vdisk provides the local-disk substrate for the simulated cluster.
//
// The paper's experiments run on machines with two to four spinning disks;
// spill I/O and merge I/O are a large share of the abstraction cost the
// optimizations remove (Fig. 2, Fig. 8). At reproduction scale (tens of MB
// instead of tens of GB) a modern machine's page cache would make that I/O
// free and hide exactly the effect under study. vdisk therefore offers two
// implementations behind one interface:
//
//   - Mem: a plain in-memory store, every node disk's store; a file is
//     kept as the chunks it was written into (see Chunks).
//   - Throttled: wraps any Disk and meters reads and writes at a configured
//     bandwidth with a per-operation seek latency, modeling one shared
//     2014-era SATA disk per node. Concurrent users of the same disk queue
//     against each other, as they would on a real spindle.
//
// All implementations account bytes read and written, which the experiment
// harness reports alongside timings.
package vdisk

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// Errors returned by Disk implementations.
var (
	ErrNotExist = errors.New("vdisk: file does not exist")
	ErrExist    = errors.New("vdisk: file already exists")
	ErrClosed   = errors.New("vdisk: file is closed")
)

// Disk is a minimal local filesystem: flat namespace, write-once files.
// Implementations must be safe for concurrent use.
type Disk interface {
	// Create creates a new file for writing. The file becomes readable
	// after Close.
	Create(name string) (io.WriteCloser, error)
	// Open opens an existing, closed file for reading.
	Open(name string) (io.ReadCloser, error)
	// OpenSection opens a byte range [off, off+length) of an existing,
	// closed file for reading. It models the positioned reads a shuffle
	// server uses to serve one partition of a map output file.
	OpenSection(name string, off, length int64) (io.ReadCloser, error)
	// Size returns the size of an existing, closed file.
	Size(name string) (int64, error)
	// Remove deletes a file. A file that was created but never closed is
	// also removed (its half-written content is discarded), so failed
	// writers can be swept.
	Remove(name string) error
	// Rename atomically gives an existing, closed file a new name. It
	// fails with ErrExist when the destination already exists — the
	// primitive behind the runtime's first-committer-wins attempt commit.
	Rename(oldName, newName string) error
	// Stats returns cumulative I/O accounting.
	Stats() Stats
}

// Stats is cumulative disk accounting.
type Stats struct {
	BytesWritten int64
	BytesRead    int64
	Creates      int64
	Opens        int64
}

// Mem is an in-memory Disk. A file is kept as the Chunks it was written
// into, which are never regrown or copied once written; a reader walks
// them.
type Mem struct {
	mu    sync.Mutex
	files map[string]*memFile
	open  map[string]*memWriter // files being written, not yet readable
	stats stats
}

// memFile is a closed file's content: its chunks, in order, and their
// total length.
type memFile struct {
	chunks [][]byte
	size   int64
}

type stats struct {
	bytesWritten atomic.Int64
	bytesRead    atomic.Int64
	creates      atomic.Int64
	opens        atomic.Int64
}

func (s *stats) snapshot() Stats {
	return Stats{
		BytesWritten: s.bytesWritten.Load(),
		BytesRead:    s.bytesRead.Load(),
		Creates:      s.creates.Load(),
		Opens:        s.opens.Load(),
	}
}

// NewMem returns an empty in-memory disk.
func NewMem() *Mem {
	return &Mem{files: make(map[string]*memFile), open: make(map[string]*memWriter)}
}

// memMaxChunk bounds the chunk a small write opens in a Mem file: a file
// written 64 KiB at a time, as the runtime's buffered writers write, is
// kept in chunks of exactly that size, and a larger write gets a chunk of
// its own size.
const memMaxChunk = 64 << 10

// Create implements Disk.
func (m *Mem) Create(name string) (io.WriteCloser, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.files[name]; ok {
		return nil, fmt.Errorf("%w: %s", ErrExist, name)
	}
	if m.open[name] != nil {
		return nil, fmt.Errorf("%w: %s", ErrExist, name)
	}
	w := &memWriter{disk: m, name: name, data: Chunks{MaxChunk: memMaxChunk}}
	m.open[name] = w
	m.stats.creates.Add(1)
	return w, nil
}

// Open implements Disk.
func (m *Mem) Open(name string) (io.ReadCloser, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	f, ok := m.files[name]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotExist, name)
	}
	m.stats.opens.Add(1)
	return &memReader{disk: m, chunks: f.chunks, left: f.size}, nil
}

// OpenSection implements Disk.
func (m *Mem) OpenSection(name string, off, length int64) (io.ReadCloser, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	f, ok := m.files[name]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotExist, name)
	}
	if off < 0 || length < 0 || off+length > f.size {
		return nil, fmt.Errorf("vdisk: section [%d,%d) out of range for %s (%d bytes)", off, off+length, name, f.size)
	}
	m.stats.opens.Add(1)
	r := &memReader{disk: m, chunks: f.chunks, left: length}
	// Skip the chunks wholly before off; the reader starts inside the next.
	for len(r.chunks) > 0 && off >= int64(len(r.chunks[0])) {
		off -= int64(len(r.chunks[0]))
		r.chunks = r.chunks[1:]
	}
	r.off = int(off)
	return r, nil
}

// Size implements Disk.
func (m *Mem) Size(name string) (int64, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	f, ok := m.files[name]
	if !ok {
		return 0, fmt.Errorf("%w: %s", ErrNotExist, name)
	}
	return f.size, nil
}

// Remove implements Disk.
func (m *Mem) Remove(name string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.open[name] != nil {
		// Abandoned half-written file: discard the name so it can be
		// recreated. The dangling writer keeps appending to its own
		// chunks, which its Close does not publish.
		delete(m.open, name)
		return nil
	}
	if _, ok := m.files[name]; !ok {
		return fmt.Errorf("%w: %s", ErrNotExist, name)
	}
	delete(m.files, name)
	return nil
}

// Rename implements Disk.
func (m *Mem) Rename(oldName, newName string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	f, ok := m.files[oldName]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotExist, oldName)
	}
	if _, ok := m.files[newName]; ok || m.open[newName] != nil {
		return fmt.Errorf("%w: %s", ErrExist, newName)
	}
	m.files[newName] = f
	delete(m.files, oldName)
	return nil
}

// Stats implements Disk.
func (m *Mem) Stats() Stats { return m.stats.snapshot() }

// List returns the names of all readable files (testing helper).
func (m *Mem) List() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	names := make([]string, 0, len(m.files))
	for n := range m.files {
		names = append(names, n)
	}
	return names
}

type memWriter struct {
	disk   *Mem
	name   string
	data   Chunks
	closed bool
}

func (w *memWriter) Write(p []byte) (int, error) {
	if w.closed {
		return 0, ErrClosed
	}
	w.data.Write(p)
	w.disk.stats.bytesWritten.Add(int64(len(p)))
	return len(p), nil
}

// Close publishes the file, unless Remove discarded it while it was being
// written.
func (w *memWriter) Close() error {
	if w.closed {
		return ErrClosed
	}
	w.closed = true
	w.disk.mu.Lock()
	defer w.disk.mu.Unlock()
	if w.disk.open[w.name] != w {
		return nil
	}
	w.disk.files[w.name] = &memFile{chunks: w.data.Chunks(), size: w.data.Len()}
	delete(w.disk.open, w.name)
	return nil
}

// memReader reads left bytes from chunks, starting at chunks[0][off:].
type memReader struct {
	disk   *Mem
	chunks [][]byte
	off    int
	left   int64
	closed bool
}

func (r *memReader) Read(p []byte) (int, error) {
	if r.closed {
		return 0, ErrClosed
	}
	if r.left == 0 {
		return 0, io.EOF
	}
	if int64(len(p)) > r.left {
		p = p[:r.left]
	}
	n := 0
	for n < len(p) {
		k := copy(p[n:], r.chunks[0][r.off:])
		n += k
		if r.off += k; r.off == len(r.chunks[0]) {
			r.chunks, r.off = r.chunks[1:], 0
		}
	}
	r.left -= int64(n)
	r.disk.stats.bytesRead.Add(int64(n))
	return n, nil
}

func (r *memReader) Close() error {
	if r.closed {
		return ErrClosed
	}
	r.closed = true
	return nil
}

// Chunks is a byte sequence kept as chunks that are each allocated once
// and never regrown, so a byte is copied in exactly once however the
// sequence grows. A write fills the spare room of the chunk being filled
// and opens a new chunk for the rest: as large as the rest, or as the
// sequence's length (doubling it) if that is larger, though then at most
// MaxChunk and at most what Limit leaves. So the first write's chunk is
// exactly its size, and so is the chunk for a rest of MaxChunk or more.
// Reset empties the sequence and keeps the chunks for
// refilling. The zero value grows without bound.
type Chunks struct {
	// MaxChunk bounds the doubling; zero is no bound.
	MaxChunk int
	// Limit, when positive, bounds the sequence's length and its chunks'
	// total capacity: writes past it are the caller's error.
	Limit int64

	chunks [][]byte
	cur    int // index of the chunk being filled
	size   int64
}

// Write appends p.
func (c *Chunks) Write(p []byte) {
	for len(p) > 0 {
		if c.cur == len(c.chunks) {
			c.chunks = append(c.chunks, make([]byte, 0, c.next(len(p))))
		}
		ch := c.chunks[c.cur]
		k := copy(ch[len(ch):cap(ch)], p)
		c.chunks[c.cur] = ch[:len(ch)+k]
		c.size += int64(k)
		p = p[k:]
		if len(ch)+k == cap(ch) {
			c.cur++
		}
	}
}

// next returns the capacity of the chunk a write of n more bytes opens.
func (c *Chunks) next(n int) int {
	grow := c.size
	if c.MaxChunk > 0 {
		grow = min(grow, int64(c.MaxChunk))
	}
	if c.Limit > 0 {
		grow = min(grow, c.Limit-c.size)
	}
	return max(n, int(grow))
}

// Len returns the sequence's length.
func (c *Chunks) Len() int64 { return c.size }

// Chunks returns the sequence's filled chunks, in order. They alias c.
func (c *Chunks) Chunks() [][]byte {
	n := c.cur
	if n < len(c.chunks) && len(c.chunks[n]) > 0 {
		n++
	}
	return c.chunks[:n:n]
}

// Reset empties the sequence, keeping its chunks to be filled again.
func (c *Chunks) Reset() {
	for i := range c.chunks[:min(c.cur+1, len(c.chunks))] {
		c.chunks[i] = c.chunks[i][:0]
	}
	c.cur, c.size = 0, 0
}

// ThrottleConfig describes the performance model of a Throttled disk.
type ThrottleConfig struct {
	// WriteBytesPerSec is the sustained write bandwidth. Zero disables
	// write throttling.
	WriteBytesPerSec int64
	// ReadBytesPerSec is the sustained read bandwidth. Zero disables read
	// throttling.
	ReadBytesPerSec int64
	// OpLatency is charged once per Create/Open, modeling a seek.
	OpLatency time.Duration
}

// Throttled wraps a Disk and meters its throughput. All files on one
// Throttled share a single bandwidth budget: concurrent transfers queue, as
// on one physical spindle.
type Throttled struct {
	inner Disk
	cfg   ThrottleConfig

	mu       sync.Mutex
	nextFree time.Time // virtual time at which the disk head is free
}

// NewThrottled wraps inner with the given performance model.
func NewThrottled(inner Disk, cfg ThrottleConfig) *Throttled {
	return &Throttled{inner: inner, cfg: cfg}
}

// charge blocks the caller for the time a transfer of n bytes takes at the
// given bandwidth, serializing against all other users of this disk.
func (t *Throttled) charge(n int64, bytesPerSec int64, lat time.Duration) {
	if bytesPerSec <= 0 && lat <= 0 {
		return
	}
	var busy time.Duration
	if bytesPerSec > 0 {
		busy = time.Duration(float64(n) / float64(bytesPerSec) * float64(time.Second))
	}
	busy += lat
	now := time.Now()
	t.mu.Lock()
	start := t.nextFree
	if start.Before(now) {
		start = now
	}
	t.nextFree = start.Add(busy)
	deadline := t.nextFree
	t.mu.Unlock()
	if d := time.Until(deadline); d > 0 {
		time.Sleep(d)
	}
}

// Create implements Disk.
func (t *Throttled) Create(name string) (io.WriteCloser, error) {
	w, err := t.inner.Create(name)
	if err != nil {
		return nil, err
	}
	t.charge(0, 0, t.cfg.OpLatency)
	return &throttledWriter{t: t, w: w}, nil
}

// Open implements Disk.
func (t *Throttled) Open(name string) (io.ReadCloser, error) {
	r, err := t.inner.Open(name)
	if err != nil {
		return nil, err
	}
	t.charge(0, 0, t.cfg.OpLatency)
	return &throttledReader{t: t, r: r}, nil
}

// OpenSection implements Disk.
func (t *Throttled) OpenSection(name string, off, length int64) (io.ReadCloser, error) {
	r, err := t.inner.OpenSection(name, off, length)
	if err != nil {
		return nil, err
	}
	t.charge(0, 0, t.cfg.OpLatency)
	return &throttledReader{t: t, r: r}, nil
}

// Size implements Disk.
func (t *Throttled) Size(name string) (int64, error) { return t.inner.Size(name) }

// Remove implements Disk.
func (t *Throttled) Remove(name string) error { return t.inner.Remove(name) }

// Rename implements Disk. Renames are metadata operations: they pay the
// per-op seek latency but move no bytes.
func (t *Throttled) Rename(oldName, newName string) error {
	if err := t.inner.Rename(oldName, newName); err != nil {
		return err
	}
	t.charge(0, 0, t.cfg.OpLatency)
	return nil
}

// Stats implements Disk.
func (t *Throttled) Stats() Stats { return t.inner.Stats() }

type throttledWriter struct {
	t *Throttled
	w io.WriteCloser
}

func (w *throttledWriter) Write(p []byte) (int, error) {
	n, err := w.w.Write(p)
	w.t.charge(int64(n), w.t.cfg.WriteBytesPerSec, 0)
	return n, err
}

func (w *throttledWriter) Close() error { return w.w.Close() }

type throttledReader struct {
	t *Throttled
	r io.ReadCloser
}

func (r *throttledReader) Read(p []byte) (int, error) {
	n, err := r.r.Read(p)
	if n > 0 {
		r.t.charge(int64(n), r.t.cfg.ReadBytesPerSec, 0)
	}
	return n, err
}

func (r *throttledReader) Close() error { return r.r.Close() }
