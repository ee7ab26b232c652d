package dfs

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"mrtext/internal/chaos"
	"mrtext/internal/fabric"
	"mrtext/internal/vdisk"
)

func newDFS(t *testing.T, nodes int, blockSize int64, replication int) (*DFS, []vdisk.Disk) {
	t.Helper()
	disks := make([]vdisk.Disk, nodes)
	for i := range disks {
		disks[i] = vdisk.NewMem()
	}
	net, err := fabric.New(nodes, fabric.Config{})
	if err != nil {
		t.Fatal(err)
	}
	d, err := New(disks, net, blockSize, replication)
	if err != nil {
		t.Fatal(err)
	}
	return d, disks
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil, nil, 1024, 1); err == nil {
		t.Error("no disks accepted")
	}
	if _, err := New([]vdisk.Disk{vdisk.NewMem()}, nil, 0, 1); err == nil {
		t.Error("zero block size accepted")
	}
	// Replication above the node count is clamped, not an error.
	d, err := New([]vdisk.Disk{vdisk.NewMem()}, nil, 1024, 5)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.WriteFile("f", []byte("data")); err != nil {
		t.Fatal(err)
	}
	blocks, _ := d.Blocks("f")
	if len(blocks[0].Replicas) != 1 {
		t.Errorf("replicas %v on a 1-node DFS", blocks[0].Replicas)
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	d, _ := newDFS(t, 3, 100, 2)
	data := bytes.Repeat([]byte("0123456789"), 35) // 350 bytes → 4 blocks
	if err := d.WriteFile("f", data); err != nil {
		t.Fatal(err)
	}
	got, err := d.ReadFile("f")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Error("round trip mismatch")
	}
	size, err := d.Size("f")
	if err != nil || size != int64(len(data)) {
		t.Errorf("size %d err %v", size, err)
	}
	blocks, err := d.Blocks("f")
	if err != nil || len(blocks) != 4 {
		t.Fatalf("blocks %v err %v", blocks, err)
	}
	if blocks[3].Len != 50 {
		t.Errorf("final block len %d", blocks[3].Len)
	}
	for i, b := range blocks {
		if b.Index != i || len(b.Replicas) != 2 || b.Replicas[0] == b.Replicas[1] {
			t.Errorf("block %d: %+v", i, b)
		}
	}
}

func TestRoundTripQuick(t *testing.T) {
	f := func(raw []byte, blockRaw uint8) bool {
		blockSize := int64(blockRaw%64) + 1
		d, _ := newDFS(t, 2, blockSize, 1)
		if err := d.WriteFile("f", raw); err != nil {
			return false
		}
		got, err := d.ReadFile("f")
		if err != nil {
			return false
		}
		return bytes.Equal(got, raw)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestOpenFromOffsets(t *testing.T) {
	d, _ := newDFS(t, 3, 16, 1)
	data := []byte("The quick brown fox jumps over the lazy dog and runs away")
	if err := d.WriteFile("f", data); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 30; trial++ {
		off := int64(rng.Intn(len(data) + 1))
		for node := 0; node < 3; node++ {
			r, err := d.OpenFrom("f", node, off)
			if err != nil {
				t.Fatal(err)
			}
			got, err := io.ReadAll(r)
			r.Close()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, data[off:]) {
				t.Fatalf("offset %d node %d: got %q want %q", off, node, got, data[off:])
			}
		}
	}
}

func TestReadCrossesBlocks(t *testing.T) {
	d, _ := newDFS(t, 2, 8, 1)
	data := bytes.Repeat([]byte("abcdefgh"), 10)
	if err := d.WriteFile("f", data); err != nil {
		t.Fatal(err)
	}
	r, err := d.OpenFrom("f", 0, 4) // mid-block start
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	// Read in odd-sized chunks to force block transitions mid-Read.
	var got []byte
	buf := make([]byte, 13)
	for {
		n, err := r.Read(buf)
		got = append(got, buf[:n]...)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(got, data[4:]) {
		t.Error("cross-block read mismatch")
	}
}

func TestMissingAndUnsealed(t *testing.T) {
	d, _ := newDFS(t, 2, 64, 1)
	if _, err := d.Blocks("missing"); err == nil {
		t.Error("blocks of missing file")
	}
	if _, err := d.OpenFrom("missing", 0, 0); err == nil {
		t.Error("open of missing file")
	}
	if d.Exists("missing") {
		t.Error("missing file exists")
	}
	w, err := d.Create("pending", 0)
	if err != nil {
		t.Fatal(err)
	}
	w.Write([]byte("x"))
	if d.Exists("pending") {
		t.Error("unsealed file exists")
	}
	if _, err := d.OpenFrom("pending", 0, 0); err == nil {
		t.Error("opened unsealed file")
	}
	w.Close()
	if !d.Exists("pending") {
		t.Error("sealed file missing")
	}
	// Duplicate create.
	if _, err := d.Create("pending", 0); err == nil {
		t.Error("duplicate create accepted")
	}
}

func TestRemoveCleansBlocks(t *testing.T) {
	d, disks := newDFS(t, 2, 16, 2)
	if err := d.WriteFile("f", make([]byte, 100)); err != nil {
		t.Fatal(err)
	}
	if err := d.Remove("f"); err != nil {
		t.Fatal(err)
	}
	if d.Exists("f") {
		t.Error("file exists after remove")
	}
	for i, disk := range disks {
		if files := disk.(*vdisk.Mem).List(); len(files) != 0 {
			t.Errorf("node %d still holds blocks: %v", i, files)
		}
	}
	if err := d.Remove("f"); err == nil {
		t.Error("double remove accepted")
	}
}

func TestLocalReplicaPreferred(t *testing.T) {
	// Reading from a node that holds a replica must not touch the fabric.
	disks := []vdisk.Disk{vdisk.NewMem(), vdisk.NewMem(), vdisk.NewMem()}
	net, _ := fabric.New(3, fabric.Config{})
	d, err := New(disks, net, 1<<10, 3) // replicate everywhere
	if err != nil {
		t.Fatal(err)
	}
	if err := d.WriteFile("f", make([]byte, 4096)); err != nil {
		t.Fatal(err)
	}
	before := net.Stats().BytesMoved
	for node := 0; node < 3; node++ {
		r, err := d.OpenFrom("f", node, 0)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, r)
		r.Close()
	}
	if moved := net.Stats().BytesMoved - before; moved != 0 {
		t.Errorf("local reads moved %d bytes across the fabric", moved)
	}
}

func TestRemoteReadCharged(t *testing.T) {
	disks := []vdisk.Disk{vdisk.NewMem(), vdisk.NewMem()}
	net, _ := fabric.New(2, fabric.Config{})
	d, err := New(disks, net, 1<<10, 1) // single replica
	if err != nil {
		t.Fatal(err)
	}
	if err := d.WriteFile("f", make([]byte, 3000)); err != nil {
		t.Fatal(err)
	}
	blocks, _ := d.Blocks("f")
	// Find a node that holds nothing of block 0.
	remote := 1 - blocks[0].Replicas[0]
	// Read everything from the remote node: at least the non-local blocks
	// must be charged.
	r, err := d.OpenFrom("f", remote, 0)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, r)
	r.Close()
	if net.Stats().BytesMoved == 0 {
		t.Error("remote read not charged through the fabric")
	}
}

func TestWriterPrimaryPlacement(t *testing.T) {
	d, _ := newDFS(t, 4, 32, 2)
	w, err := d.Create("f", 2)
	if err != nil {
		t.Fatal(err)
	}
	w.Write(make([]byte, 100))
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	blocks, _ := d.Blocks("f")
	for _, b := range blocks {
		if b.Replicas[0] != 2 {
			t.Errorf("block %d primary %d, want writer node 2", b.Index, b.Replicas[0])
		}
	}
}

// TestWriterOnNoNodeReplicates: a writer on no node gets round-robin
// primaries and its full replication, each secondary shipped from its
// primary.
func TestWriterOnNoNodeReplicates(t *testing.T) {
	d, _ := newDFS(t, 4, 32, 2)
	w, err := d.Create("f", -1)
	if err != nil {
		t.Fatal(err)
	}
	w.Write(make([]byte, 100))
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	blocks, _ := d.Blocks("f")
	primaries := map[int]bool{}
	for _, b := range blocks {
		if len(b.Replicas) != 2 {
			t.Errorf("block %d on %v, want two replicas", b.Index, b.Replicas)
		}
		primaries[b.Replicas[0]] = true
	}
	if len(primaries) < 2 {
		t.Errorf("%d blocks all have their primary on one node", len(blocks))
	}
}

func TestEmptyFile(t *testing.T) {
	d, _ := newDFS(t, 2, 64, 1)
	if err := d.WriteFile("empty", nil); err != nil {
		t.Fatal(err)
	}
	got, err := d.ReadFile("empty")
	if err != nil || len(got) != 0 {
		t.Errorf("empty file: %q err %v", got, err)
	}
	blocks, _ := d.Blocks("empty")
	if len(blocks) != 0 {
		t.Errorf("empty file has %d blocks", len(blocks))
	}
}

// barrier is shared by the gated disks of one DFS: a replica writer's
// first Write waits until want writers have begun one.
type barrier struct {
	mu   sync.Mutex
	n    int
	want int
	all  chan struct{}
}

func (b *barrier) arrive() {
	b.mu.Lock()
	if b.n++; b.n == b.want {
		close(b.all)
	}
	b.mu.Unlock()
	<-b.all
}

type gatedDisk struct {
	vdisk.Disk
	b *barrier
}

func (d gatedDisk) Create(name string) (io.WriteCloser, error) {
	f, err := d.Disk.Create(name)
	if err != nil {
		return nil, err
	}
	return &gatedWriter{WriteCloser: f, b: d.b}, nil
}

type gatedWriter struct {
	io.WriteCloser
	b       *barrier
	arrived bool
}

func (w *gatedWriter) Write(p []byte) (int, error) {
	if !w.arrived {
		w.arrived = true
		w.b.arrive()
	}
	return w.WriteCloser.Write(p)
}

// TestSealWritesReplicasConcurrently: every replica write of a block waits
// until all of them have begun, so a seal that wrote one replica after
// another would never finish.
func TestSealWritesReplicasConcurrently(t *testing.T) {
	const nodes = 3
	b := &barrier{want: nodes, all: make(chan struct{})}
	disks := make([]vdisk.Disk, nodes)
	for i := range disks {
		disks[i] = gatedDisk{Disk: vdisk.NewMem(), b: b}
	}
	d, err := New(disks, nil, 64, nodes)
	if err != nil {
		t.Fatal(err)
	}
	data := bytes.Repeat([]byte("r"), 64) // one block
	done := make(chan error, 1)
	go func() { done <- d.WriteFile("f", data) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("seal still waiting: the replicas were not written at once")
	}
	blocks, _ := d.Blocks("f")
	if len(blocks) != 1 || len(blocks[0].Replicas) != nodes {
		t.Fatalf("blocks %+v, want one block on every node", blocks)
	}
	for node := 0; node < nodes; node++ {
		r, _ := d.OpenFrom("f", node, 0)
		got, err := io.ReadAll(r)
		r.Close()
		if err != nil || !bytes.Equal(got, data) {
			t.Errorf("node %d reads %d bytes, err %v", node, len(got), err)
		}
	}
}

// chaosDFS is a DFS over nodes in-memory disks wrapped by an armed
// injector, with the given nodes killed.
func chaosDFS(t *testing.T, nodes, replication int, dead ...int) (*DFS, []*vdisk.Mem) {
	t.Helper()
	in, err := chaos.New(chaos.Config{KillNode: -1}, nodes)
	if err != nil {
		t.Fatal(err)
	}
	in.Arm()
	for _, n := range dead {
		in.Kill(n)
	}
	mems := make([]*vdisk.Mem, nodes)
	disks := make([]vdisk.Disk, nodes)
	for i := range disks {
		mems[i] = vdisk.NewMem()
		disks[i] = chaos.WrapDisk(mems[i], i, in)
	}
	d, err := New(disks, nil, 32, replication)
	if err != nil {
		t.Fatal(err)
	}
	return d, mems
}

// TestFailedSecondaryIsReplaced: a killed secondary candidate is skipped
// and the next node takes its replica; with no node left to take it, the
// replica after it moves down into its index. Either way the block records
// two replicas that read back, and removing the file leaves no block file.
func TestFailedSecondaryIsReplaced(t *testing.T) {
	for _, tc := range []struct {
		name         string
		nodes, repl  int
		wantReplicas []int
	}{
		{"next-node-takes-it", 4, 2, []int{0, 2}},
		{"later-replica-moves-down", 3, 3, []int{0, 2}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d, mems := chaosDFS(t, tc.nodes, tc.repl, 1) // the first planned secondary
			data := bytes.Repeat([]byte("s"), 32)
			if err := d.WriteFile("f", data); err != nil {
				t.Fatal(err)
			}
			blocks, _ := d.Blocks("f")
			if len(blocks) != 1 || !slices.Equal(blocks[0].Replicas, tc.wantReplicas) {
				t.Fatalf("blocks %+v, want one block on nodes %v", blocks, tc.wantReplicas)
			}
			for _, node := range tc.wantReplicas {
				r, _ := d.OpenFrom("f", node, 0)
				got, err := io.ReadAll(r)
				r.Close()
				if err != nil || !bytes.Equal(got, data) {
					t.Errorf("node %d reads %q, err %v", node, got, err)
				}
			}
			if err := d.Remove("f"); err != nil {
				t.Fatal(err)
			}
			for i, m := range mems {
				if files := m.List(); len(files) != 0 {
					t.Errorf("node %d still holds %v", i, files)
				}
			}
		})
	}
}

// TestFailedPrimaryLeavesNoBlock: a writer whose own node is dead fails
// the write, and the secondaries written beside the primary are removed.
func TestFailedPrimaryLeavesNoBlock(t *testing.T) {
	d, mems := chaosDFS(t, 3, 3, 0)
	w, err := d.Create("f", 0)
	if err != nil {
		t.Fatal(err)
	}
	_, werr := w.Write(bytes.Repeat([]byte("p"), 40)) // one block sealed, 8 bytes buffered
	if cerr := w.Close(); !errors.Is(werr, chaos.ErrNodeDead) || !errors.Is(cerr, chaos.ErrNodeDead) {
		t.Fatalf("write %v, close %v: want both to fail with the dead primary", werr, cerr)
	}
	for i, m := range mems {
		if files := m.List(); len(files) != 0 {
			t.Errorf("node %d holds %v after the primary failed", i, files)
		}
	}
}
