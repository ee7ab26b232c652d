package cluster

import (
	"errors"
	"fmt"
	"io"
	"mrtext/internal/spillbuf"
	"sync"
	"testing"

	"mrtext/internal/chaos"
	"mrtext/internal/vdisk"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{Nodes: 0}); err == nil {
		t.Error("zero nodes accepted")
	}
	if _, err := New(Config{Nodes: -2}); err == nil {
		t.Error("negative nodes accepted")
	}
}

func TestDefaultsApplied(t *testing.T) {
	c, err := New(Config{Nodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	if c.MapSlots() != 1 || c.ReduceSlots() != 1 {
		t.Errorf("slots %d/%d", c.MapSlots(), c.ReduceSlots())
	}
	if c.FS.BlockSize() != 4<<20 {
		t.Errorf("block size %d", c.FS.BlockSize())
	}
	if len(c.Disks) != 2 || len(c.FreqCaches) != 2 {
		t.Error("per-node resources missing")
	}
	if c.Net.Nodes() != 2 {
		t.Errorf("fabric nodes %d", c.Net.Nodes())
	}
}

func TestPresets(t *testing.T) {
	local := LocalSmall()
	if local.Nodes != 6 || local.Nodes*local.MapSlotsPerNode != 12 || local.Nodes*local.ReduceSlotsPerNode != 12 {
		t.Errorf("local preset %+v does not match the paper's 12m+12r on 6 nodes", local)
	}
	if local.DiskThrottle == nil || local.Replication != 2 {
		t.Error("local preset missing throttle or replication")
	}
	ec2 := EC2Large()
	if ec2.Nodes != 20 {
		t.Errorf("ec2 preset %d nodes", ec2.Nodes)
	}
	fast := Fast(3)
	if fast.DiskThrottle != nil || fast.Nodes != 3 {
		t.Errorf("fast preset %+v", fast)
	}
}

func TestSlotTotals(t *testing.T) {
	c, err := New(Config{Nodes: 4, MapSlotsPerNode: 3, ReduceSlotsPerNode: 2})
	if err != nil {
		t.Fatal(err)
	}
	if c.TotalMapSlots() != 12 || c.TotalReduceSlots() != 8 {
		t.Errorf("totals %d/%d", c.TotalMapSlots(), c.TotalReduceSlots())
	}
	if c.Config().Nodes != 4 || c.Nodes() != 4 {
		t.Error("config accessor wrong")
	}
}

func TestNilChaosFullyDisabled(t *testing.T) {
	c, err := New(Config{Nodes: 3})
	if err != nil {
		t.Fatal(err)
	}
	if c.Chaos != nil {
		t.Fatal("injector built without a chaos config")
	}
	for n := 0; n < 3; n++ {
		if c.NodeDead(n) {
			t.Errorf("node %d dead without chaos", n)
		}
	}
	if dead := c.Chaos.DeadNodes(); dead != nil {
		t.Errorf("dead nodes %v, want none", dead)
	}
	// Without an injector the disks must be the raw implementation, not a
	// fault wrapper: the disabled path adds zero indirection.
	if _, ok := c.Disks[0].(*vdisk.Mem); !ok {
		t.Errorf("disk type %T, want unwrapped *vdisk.Mem", c.Disks[0])
	}
}

func TestChaosWiredThroughDisksAndFabric(t *testing.T) {
	c, err := New(Config{Nodes: 3, Chaos: &chaos.Config{KillNode: -1}})
	if err != nil {
		t.Fatal(err)
	}
	if c.Chaos == nil {
		t.Fatal("chaos config did not build an injector")
	}
	c.Chaos.Arm()
	defer c.Chaos.Disarm()
	c.Chaos.Kill(1)

	if !c.NodeDead(1) || c.NodeDead(0) || c.NodeDead(2) {
		t.Errorf("death flags: dead(0..2) = %v %v %v", c.NodeDead(0), c.NodeDead(1), c.NodeDead(2))
	}
	if dead := c.Chaos.DeadNodes(); len(dead) != 1 || dead[0] != 1 {
		t.Errorf("dead nodes %v, want [1]", dead)
	}
	// The dead node's disk refuses new work with the chaos error...
	if _, err := c.Disks[1].Create("x"); !errors.Is(err, chaos.ErrNodeDead) {
		t.Errorf("create on dead node's disk: %v", err)
	}
	// ...and the fabric refuses transfers touching it in either direction.
	if err := c.Net.Transfer(0, 1, 10); !errors.Is(err, chaos.ErrNodeDead) {
		t.Errorf("transfer into dead node: %v", err)
	}
	if err := c.Net.Transfer(1, 2, 10); !errors.Is(err, chaos.ErrNodeDead) {
		t.Errorf("transfer out of dead node: %v", err)
	}
	// Live nodes keep working.
	if err := c.Net.Transfer(0, 2, 10); err != nil {
		t.Errorf("transfer between live nodes: %v", err)
	}
	w, err := c.Disks[0].Create("y")
	if err != nil {
		t.Fatalf("create on live node: %v", err)
	}
	if _, err := w.Write([]byte("data")); err != nil {
		t.Errorf("write on live node: %v", err)
	}
	if err := w.Close(); err != nil {
		t.Errorf("close on live node: %v", err)
	}
}

func TestInFlightIOFailsWhenNodeDies(t *testing.T) {
	// A file opened before the node dies must fail on its next operation,
	// like a powered-off machine, not keep serving from a stale handle.
	c, err := New(Config{Nodes: 2, Chaos: &chaos.Config{KillNode: -1}})
	if err != nil {
		t.Fatal(err)
	}
	c.Chaos.Arm()
	defer c.Chaos.Disarm()
	w, err := c.Disks[1].Create("victim")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write([]byte("before")); err != nil {
		t.Fatalf("write before death: %v", err)
	}
	c.Chaos.Kill(1)
	if _, err := w.Write([]byte("after")); !errors.Is(err, chaos.ErrNodeDead) {
		t.Errorf("in-flight write after death: %v", err)
	}
	if err := w.Close(); !errors.Is(err, chaos.ErrNodeDead) {
		t.Errorf("close after death: %v", err)
	}
}

func TestNodeDeathUnderConcurrentLoad(t *testing.T) {
	// Many goroutines do disk I/O across all nodes while one node is killed
	// mid-load: work on live nodes must never fail, work on the victim must
	// fail only with ErrNodeDead, and the death flags must converge.
	const (
		nodes   = 4
		victim  = 2
		writers = 4
		files   = 40
	)
	c, err := New(Config{Nodes: nodes, Chaos: &chaos.Config{KillNode: -1}})
	if err != nil {
		t.Fatal(err)
	}
	c.Chaos.Arm()
	defer c.Chaos.Disarm()

	var wg sync.WaitGroup
	payload := []byte("0123456789abcdef")
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < files; i++ {
				if g == 0 && i == files/2 {
					c.Chaos.Kill(victim)
				}
				node := (g + i) % nodes
				name := fmt.Sprintf("load/g%d/f%d", g, i)
				err := writeThenRead(c.Disks[node], name, payload)
				if err == nil {
					continue
				}
				if node != victim {
					t.Errorf("node %d failed under load: %v", node, err)
				} else if !errors.Is(err, chaos.ErrNodeDead) {
					t.Errorf("victim failed with a non-death error: %v", err)
				}
			}
		}(g)
	}
	wg.Wait()
	if !c.NodeDead(victim) {
		t.Error("victim not marked dead after the load")
	}
	if dead := c.Chaos.DeadNodes(); len(dead) != 1 || dead[0] != victim {
		t.Errorf("dead nodes %v after the death of node %d", dead, victim)
	}
}

func writeThenRead(d vdisk.Disk, name string, payload []byte) error {
	w, err := d.Create(name)
	if err != nil {
		return err
	}
	if _, err := w.Write(payload); err != nil {
		w.Close()
		return err
	}
	if err := w.Close(); err != nil {
		return err
	}
	r, err := d.Open(name)
	if err != nil {
		return err
	}
	defer r.Close()
	got, err := io.ReadAll(r)
	if err != nil {
		return err
	}
	if string(got) != string(payload) {
		return fmt.Errorf("read back %q, want %q", got, payload)
	}
	return nil
}

func TestThrottledDisksWired(t *testing.T) {
	c, err := New(Config{Nodes: 1, DiskThrottle: throttlePtr(paperDisk())})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Disks[0].(*vdisk.Throttled); !ok {
		t.Errorf("disk type %T, want *vdisk.Throttled", c.Disks[0])
	}
	c2, err := New(Config{Nodes: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c2.Disks[0].(*vdisk.Mem); !ok {
		t.Errorf("disk type %T, want *vdisk.Mem", c2.Disks[0])
	}
}

// TestSpillRegionsBound: the cluster keeps at most two spill regions per
// map slot, however many buffers return theirs — the regions live in the
// map workspaces, at most one per slot. The cut at the end of a map phase
// waits while a workspace is out, keeps at most one per Get since the last
// cut and none that shrink rejects, and a second cut with nothing taken
// since the first leaves what the first kept.
func TestSpillRegionsBound(t *testing.T) {
	c, err := New(Fast(3))
	if err != nil {
		t.Fatal(err)
	}
	slots := c.TotalMapSlots()
	var homes []*spillbuf.Regions
	for i := 0; i < 2*slots; i++ { // twice the slots: twice the workspaces the list may keep
		home, ok := c.MapWorkspaces.Get().(*spillbuf.Regions)
		if !ok {
			home = new(spillbuf.Regions)
		}
		homes = append(homes, home)
	}
	for _, home := range homes {
		b, err := spillbuf.NewOn(home, 1<<10, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		done := make(chan struct{})
		go func() {
			defer close(done)
			for {
				s, ok := b.NextSpill()
				if !ok {
					return
				}
				b.Release(s, 0)
			}
		}()
		for i := 0; i < 100; i++ {
			if _, err := b.Append(0, []byte("key"), []byte("value")); err != nil {
				t.Fatal(err)
			}
		}
		b.Close()
		<-done
		c.MapWorkspaces.Put(home)
	}
	// kept counts the workspaces the list holds and the regions in them.
	kept := func() (workspaces, regions int) {
		workspaces = c.MapWorkspaces.Free()
		var taken []any
		for range workspaces {
			x := c.MapWorkspaces.Get()
			for _, r := range *x.(*spillbuf.Regions) {
				if cap(r.Arena) > 0 {
					regions++
				}
			}
			taken = append(taken, x)
		}
		for _, x := range taken {
			c.MapWorkspaces.Put(x)
		}
		return workspaces, regions
	}
	if ws, regions := kept(); ws != slots || regions != spillbuf.RegionsPerBuffer*slots || c.MapWorkspaces.Out() != 0 {
		t.Errorf("%d workspaces kept, holding %d regions, and %d out after %d buffers; want the bound of %d, holding %d, and none",
			ws, regions, c.MapWorkspaces.Out(), len(homes), slots, spillbuf.RegionsPerBuffer*slots)
	}

	// shrink keeps every workspace but the one it is told to reject.
	var reject any
	shrinks := 0
	shrink := func(x any) bool {
		shrinks++
		return x != reject
	}
	busy := c.MapWorkspaces.Get()
	c.MapWorkspaces.Trim(shrink)
	c.MapWorkspaces.Put(busy)
	if shrinks != 0 {
		t.Fatal("the cut ran while a workspace was out")
	}
	c.MapWorkspaces.Trim(shrink) // every Get so far counts: none is cut for want of tasks
	c.MapWorkspaces.Trim(shrink) // nothing taken since the last cut
	if ws := c.MapWorkspaces.Free(); ws != slots || shrinks != slots {
		t.Errorf("two cuts: %d workspaces kept and %d shrunk, want all %d once", ws, shrinks, slots)
	}
	// Two Gets since the last cut, and shrink rejects the last workspace
	// the second one took: two others are kept.
	for range 2 {
		reject = c.MapWorkspaces.Get()
		c.MapWorkspaces.Put(reject)
	}
	c.MapWorkspaces.Trim(shrink)
	if ws := c.MapWorkspaces.Free(); ws != 2 {
		t.Errorf("a cut after two Gets kept %d workspaces, want 2", ws)
	}
	for range 2 {
		if x := c.MapWorkspaces.Get(); x == reject {
			t.Error("the cut kept the workspace shrink rejected")
		}
	}
}
