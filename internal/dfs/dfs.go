// Package dfs implements the distributed-filesystem substrate the jobs read
// their input from and write their output to — a miniature HDFS: files are
// split into fixed-size blocks, each block is replicated onto the local
// disks of `replication` distinct nodes (placed round-robin), all replicas
// written at once as in HDFS's write pipeline, and readers prefer a local
// replica, paying a fabric transfer for remote blocks.
//
// Block locations drive the runtime's input-split placement, so map tasks
// are data-local exactly as in Hadoop, and final job output lands on the
// reducer's node first — the properties the paper's cluster experiments
// assume.
package dfs

import (
	"errors"
	"fmt"
	"io"
	"slices"
	"sync"

	"mrtext/internal/fabric"
	"mrtext/internal/vdisk"
)

// BlockInfo describes one block of a file.
type BlockInfo struct {
	Index    int
	Offset   int64 // byte offset of the block within the file
	Len      int64
	Replicas []int // node ids holding a copy, primary first
}

type fileMeta struct {
	blocks []BlockInfo
	size   int64
	sealed bool
}

// DFS is the filesystem. Safe for concurrent use.
type DFS struct {
	disks       []vdisk.Disk
	net         *fabric.Fabric
	blockSize   int64
	replication int

	mu      sync.Mutex
	files   map[string]*fileMeta
	nextPri int // round-robin primary placement cursor
}

// New creates a DFS over the given per-node disks. net may be nil, in
// which case remote reads are uncharged (single-node setups).
func New(disks []vdisk.Disk, net *fabric.Fabric, blockSize int64, replication int) (*DFS, error) {
	if len(disks) == 0 {
		return nil, fmt.Errorf("dfs: need at least one node disk")
	}
	if blockSize <= 0 {
		return nil, fmt.Errorf("dfs: block size must be positive, got %d", blockSize)
	}
	if replication <= 0 {
		replication = 1
	}
	if replication > len(disks) {
		replication = len(disks)
	}
	return &DFS{
		disks:       disks,
		net:         net,
		blockSize:   blockSize,
		replication: replication,
		files:       make(map[string]*fileMeta),
	}, nil
}

// Nodes returns the number of storage nodes.
func (d *DFS) Nodes() int { return len(d.disks) }

// BlockSize returns the block size.
func (d *DFS) BlockSize() int64 { return d.blockSize }

func blockName(file string, idx, replica int) string {
	return fmt.Sprintf("dfs/%s/blk%06d/r%d", file, idx, replica)
}

// Create opens a new file for writing from the given node. The primary
// replica of each block is placed round-robin starting near the writer.
func (d *DFS) Create(name string, writerNode int) (io.WriteCloser, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, ok := d.files[name]; ok {
		return nil, fmt.Errorf("dfs: %w: %s", vdisk.ErrExist, name)
	}
	d.files[name] = &fileMeta{}
	return &writer{dfs: d, name: name, node: writerNode, buf: vdisk.Chunks{Limit: d.blockSize}}, nil
}

// writer buffers up to one block and seals blocks as they fill. The block
// buffer is chunked (vdisk.Chunks) and reused from one block to the next,
// so it is never regrown and holds at most one block.
type writer struct {
	dfs    *DFS
	name   string
	node   int
	buf    vdisk.Chunks
	closed bool
	err    error
}

func (w *writer) Write(p []byte) (int, error) {
	if w.closed {
		return 0, vdisk.ErrClosed
	}
	if w.err != nil {
		return 0, w.err
	}
	n := len(p)
	for len(p) > 0 {
		take := min(int64(len(p)), w.dfs.blockSize-w.buf.Len())
		w.buf.Write(p[:take])
		p = p[take:]
		if w.buf.Len() == w.dfs.blockSize {
			if err := w.seal(); err != nil {
				w.err = err
				return n - len(p), err
			}
		}
	}
	return n, nil
}

// seal writes the buffered block to its replica disks and records it.
// Every planned replica is written at once, as HDFS's write pipeline does:
// the primary on this goroutine, each secondary on its own, all reading
// the one block buffer, and all joined before the block is recorded. The
// primary replica is mandatory — if the writer's own node cannot store the
// block, the write fails and leaves no replica behind. Secondary replicas
// are best-effort: a candidate that fails (e.g. a node killed by chaos) is
// replaced by the next untried node, so node death degrades the
// replication of in-flight writes instead of failing the job — the HDFS
// pipeline-recovery behavior.
func (w *writer) seal() error {
	d := w.dfs
	d.mu.Lock()
	primary := w.node
	if primary < 0 || primary >= len(d.disks) {
		primary = d.nextPri % len(d.disks)
	}
	// Secondaries are shipped from the primary: the writer's node, or the
	// round-robin pick for a writer on no node.
	from := primary
	// Planned placement: primary on the writer's node (data locality for
	// output), secondaries round-robin. The cursor advances exactly as if
	// every candidate succeeded, so placement is unchanged on the
	// fault-free path.
	planned := []int{primary}
	cursor := d.nextPri
	for len(planned) < d.replication {
		cand := cursor % len(d.disks)
		cursor++
		if !slices.Contains(planned, cand) {
			planned = append(planned, cand)
		}
	}
	d.nextPri = cursor + 1
	meta := d.files[w.name]
	idx := len(meta.blocks)
	d.mu.Unlock()

	errs := make([]error, len(planned))
	var wg sync.WaitGroup
	for ri := 1; ri < len(planned); ri++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[ri] = w.writeReplica(idx, ri, planned[ri], from)
		}()
	}
	errs[0] = w.writeReplica(idx, 0, primary, primary)
	wg.Wait()
	if errs[0] != nil {
		for ri := 1; ri < len(planned); ri++ {
			if errs[ri] == nil {
				//mrlint:ignore droppederr best-effort cleanup of a block whose primary failed; that error is what the caller acts on
				_ = d.disks[planned[ri]].Remove(blockName(w.name, idx, ri))
			}
		}
		return fmt.Errorf("dfs: sealing block %d of %s: %w", idx, w.name, errs[0])
	}
	// A failed secondary's replacement takes its replica index, from the
	// untried nodes round-robin after the plan; a replica after one left
	// unreplaced moves down into its index, so the indexes stay dense.
	replicas, next := []int{primary}, 0
	for ri := 1; ri < len(planned); ri++ {
		node := planned[ri]
		for ; errs[ri] != nil && next < len(d.disks); next++ {
			if cand := (cursor + next) % len(d.disks); !slices.Contains(planned, cand) {
				if errs[ri] = w.writeReplica(idx, ri, cand, from); errs[ri] == nil {
					node = cand
				}
			}
		}
		if errs[ri] == nil && ri != len(replicas) {
			errs[ri] = d.disks[node].Rename(blockName(w.name, idx, ri), blockName(w.name, idx, len(replicas)))
		}
		if errs[ri] == nil {
			replicas = append(replicas, node)
		}
	}

	info := BlockInfo{Index: idx, Len: w.buf.Len(), Replicas: replicas}
	d.mu.Lock()
	meta = d.files[w.name]
	info.Index = len(meta.blocks)
	info.Offset = meta.size
	meta.blocks = append(meta.blocks, info)
	meta.size += info.Len
	d.mu.Unlock()
	w.buf.Reset()
	return nil
}

// writeReplica stores the buffered block as replica ri on node, charging
// the fabric for its transfer from node from unless that is node itself.
// On any failure the partial block file is removed so the name can be
// reused.
func (w *writer) writeReplica(idx, ri, node, from int) error {
	d := w.dfs
	name := blockName(w.name, idx, ri)
	f, err := d.disks[node].Create(name)
	if err != nil {
		return err
	}
	for _, chunk := range w.buf.Chunks() {
		if _, err := f.Write(chunk); err != nil {
			//mrlint:ignore droppederr best-effort cleanup; the write error below is what the caller acts on
			_ = d.disks[node].Remove(name)
			return errors.Join(err, f.Close())
		}
	}
	if err := f.Close(); err != nil {
		//mrlint:ignore droppederr best-effort cleanup; the close error below is what the caller acts on
		_ = d.disks[node].Remove(name)
		return err
	}
	if from != node && d.net != nil {
		if err := d.net.Transfer(from, node, w.buf.Len()); err != nil {
			//mrlint:ignore droppederr best-effort cleanup; the transfer error below is what the caller acts on
			_ = d.disks[node].Remove(name)
			return err
		}
	}
	return nil
}

func (w *writer) Close() error {
	if w.closed {
		return vdisk.ErrClosed
	}
	if w.buf.Len() > 0 {
		if err := w.seal(); err != nil {
			return err
		}
	}
	w.closed = true
	w.dfs.mu.Lock()
	w.dfs.files[w.name].sealed = true
	w.dfs.mu.Unlock()
	return w.err
}

// Blocks returns the block layout of a sealed file.
func (d *DFS) Blocks(name string) ([]BlockInfo, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	meta, ok := d.files[name]
	if !ok || !meta.sealed {
		return nil, fmt.Errorf("dfs: %w: %s", vdisk.ErrNotExist, name)
	}
	out := make([]BlockInfo, len(meta.blocks))
	copy(out, meta.blocks)
	return out, nil
}

// Size returns the byte size of a sealed file.
func (d *DFS) Size(name string) (int64, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	meta, ok := d.files[name]
	if !ok || !meta.sealed {
		return 0, fmt.Errorf("dfs: %w: %s", vdisk.ErrNotExist, name)
	}
	return meta.size, nil
}

// Exists reports whether a sealed file exists.
func (d *DFS) Exists(name string) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	meta, ok := d.files[name]
	return ok && meta.sealed
}

// Remove deletes a sealed file and its blocks.
func (d *DFS) Remove(name string) error {
	d.mu.Lock()
	meta, ok := d.files[name]
	if !ok {
		d.mu.Unlock()
		return fmt.Errorf("dfs: %w: %s", vdisk.ErrNotExist, name)
	}
	delete(d.files, name)
	blocks := meta.blocks
	d.mu.Unlock()
	var errs []error
	for _, b := range blocks {
		for ri, node := range b.Replicas {
			if err := d.disks[node].Remove(blockName(name, b.Index, ri)); err != nil {
				errs = append(errs, fmt.Errorf("dfs: removing block %d of %s: %w", b.Index, name, err))
			}
		}
	}
	return errors.Join(errs...)
}

// Rename atomically renames a sealed file, failing with vdisk.ErrExist
// when the destination name already exists — the cross-node half of the
// runtime's first-committer-wins attempt commit. Replicas whose disks fail
// the rename (dead nodes) are dropped from the block's replica set; the
// rename fails, rolled back, only if some block loses its last replica.
func (d *DFS) Rename(oldName, newName string) error {
	d.mu.Lock()
	meta, ok := d.files[oldName]
	if !ok || !meta.sealed {
		d.mu.Unlock()
		return fmt.Errorf("dfs: %w: %s", vdisk.ErrNotExist, oldName)
	}
	if _, ok := d.files[newName]; ok {
		d.mu.Unlock()
		return fmt.Errorf("dfs: %w: %s", vdisk.ErrExist, newName)
	}
	// Reserve the destination (unsealed placeholder) so a concurrent
	// rename of a rival attempt's file loses with ErrExist.
	d.files[newName] = &fileMeta{}
	d.mu.Unlock()

	// A sealed file's block list is immutable, so it is safe to walk
	// without the lock.
	type move struct {
		node     int
		from, to string
	}
	var done []move
	newBlocks := make([]BlockInfo, 0, len(meta.blocks))
	var failed error
	for _, b := range meta.blocks {
		var kept []int
		for ri, node := range b.Replicas {
			from := blockName(oldName, b.Index, ri)
			to := blockName(newName, b.Index, len(kept))
			if err := d.disks[node].Rename(from, to); err != nil {
				failed = err // dead replica: drop it
				continue
			}
			done = append(done, move{node: node, from: from, to: to})
			kept = append(kept, node)
		}
		if len(kept) == 0 {
			// Block lost entirely: roll back what was renamed so the file
			// survives under its old name (minus the dead replicas).
			for _, m := range done {
				//mrlint:ignore droppederr best-effort rollback of a rename that already succeeded; the lost-block error below wins
				_ = d.disks[m.node].Rename(m.to, m.from)
			}
			d.mu.Lock()
			delete(d.files, newName)
			d.mu.Unlock()
			return fmt.Errorf("dfs: renaming %s: block %d has no live replica: %w", oldName, b.Index, failed)
		}
		nb := b
		nb.Replicas = kept
		newBlocks = append(newBlocks, nb)
	}

	d.mu.Lock()
	nm := d.files[newName]
	nm.blocks = newBlocks
	nm.size = meta.size
	nm.sealed = true
	delete(d.files, oldName)
	d.mu.Unlock()
	return nil
}

// OpenFrom opens the file for sequential reading from byte offset off, as
// seen by readerNode: each block is served from a local replica when one
// exists, otherwise from the nearest replica across the fabric.
func (d *DFS) OpenFrom(name string, readerNode int, off int64) (io.ReadCloser, error) {
	blocks, err := d.Blocks(name)
	if err != nil {
		return nil, err
	}
	return &reader{dfs: d, name: name, node: readerNode, blocks: blocks, off: off, triedIdx: -1}, nil
}

// reader streams a file block by block. When a replica fails — at open or
// mid-stream, as when its node dies — the reader fails over to the next
// untried replica of the same block, resuming at the exact byte position.
// A read fails only when every replica of a block is unreachable.
type reader struct {
	dfs      *DFS
	name     string
	node     int
	blocks   []BlockInfo
	off      int64
	cur      io.ReadCloser
	closed   bool
	tried    map[int]bool // replica indexes already tried for block triedIdx
	triedIdx int          // block Index the tried set applies to
	lastErr  error
}

func (r *reader) Read(p []byte) (int, error) {
	if r.closed {
		return 0, vdisk.ErrClosed
	}
	for {
		if r.cur != nil {
			n, err := r.cur.Read(p)
			if err == io.EOF {
				r.off += int64(n)
				cerr := r.cur.Close()
				r.cur = nil
				if cerr != nil {
					return n, fmt.Errorf("dfs: closing block stream of %s: %w", r.name, cerr)
				}
				if n > 0 {
					return n, nil
				}
				continue
			}
			if err != nil {
				// Replica failed mid-stream. The bytes from this read were
				// never delivered, so discard them (r.off stays put) and
				// fail over to another replica from the same position.
				//mrlint:ignore droppederr the replica already failed; its close error adds nothing to the failover
				_ = r.cur.Close()
				r.cur = nil
				r.lastErr = err
				continue
			}
			r.off += int64(n)
			return n, nil
		}
		// Find the block containing r.off.
		var blk *BlockInfo
		for i := range r.blocks {
			b := &r.blocks[i]
			if r.off >= b.Offset && r.off < b.Offset+b.Len {
				blk = b
				break
			}
		}
		if blk == nil {
			return 0, io.EOF
		}
		if blk.Index != r.triedIdx {
			r.triedIdx = blk.Index
			r.tried = nil
			r.lastErr = nil
		}
		within := r.off - blk.Offset
		opened := false
		for _, ri := range r.replicaOrder(blk) {
			if r.tried[ri] {
				continue
			}
			if r.tried == nil {
				r.tried = make(map[int]bool)
			}
			// Marked tried up front so a mid-stream failure moves on to the
			// NEXT replica instead of retrying this one forever.
			r.tried[ri] = true
			src := blk.Replicas[ri]
			rc, err := r.dfs.disks[src].OpenSection(blockName(r.name, blk.Index, ri), within, blk.Len-within)
			if err != nil {
				r.lastErr = err
				continue
			}
			if src != r.node && r.dfs.net != nil {
				rc = &chargedReader{rc: rc, net: r.dfs.net, src: src, dst: r.node}
			}
			r.cur = rc
			opened = true
			break
		}
		if !opened {
			return 0, fmt.Errorf("dfs: no live replica for block %d of %s: %w", blk.Index, r.name, r.lastErr)
		}
	}
}

// replicaOrder returns the replica indexes of b in read-preference order:
// local replicas first, then the rest primary-first.
func (r *reader) replicaOrder(b *BlockInfo) []int {
	order := make([]int, 0, len(b.Replicas))
	for ri, n := range b.Replicas {
		if n == r.node {
			order = append(order, ri)
		}
	}
	for ri, n := range b.Replicas {
		if n != r.node {
			order = append(order, ri)
		}
	}
	return order
}

func (r *reader) Close() error {
	if r.closed {
		return vdisk.ErrClosed
	}
	r.closed = true
	if r.cur != nil {
		return r.cur.Close()
	}
	return nil
}

// chargedReader meters remote block reads through the fabric.
type chargedReader struct {
	rc  io.ReadCloser
	net *fabric.Fabric
	src int
	dst int
}

func (c *chargedReader) Read(p []byte) (int, error) {
	n, err := c.rc.Read(p)
	if n > 0 {
		if terr := c.net.Transfer(c.src, c.dst, int64(n)); terr != nil && err == nil {
			err = terr
		}
	}
	return n, err
}

func (c *chargedReader) Close() error { return c.rc.Close() }

// WriteFile is a convenience that writes data as one DFS file from node 0.
func (d *DFS) WriteFile(name string, data []byte) error {
	return d.WriteWith(name, func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	})
}

// WriteWith creates name from node 0, lets fill write its contents and
// closes it. A fill error still closes the file and is returned with the
// close error.
func (d *DFS) WriteWith(name string, fill func(io.Writer) error) error {
	w, err := d.Create(name, 0)
	if err != nil {
		return err
	}
	if err := fill(w); err != nil {
		return errors.Join(err, w.Close())
	}
	return w.Close()
}

// ReadFile is a convenience that reads a whole DFS file from node 0.
func (d *DFS) ReadFile(name string) ([]byte, error) {
	r, err := d.OpenFrom(name, 0, 0)
	if err != nil {
		return nil, err
	}
	defer r.Close()
	return io.ReadAll(r)
}
