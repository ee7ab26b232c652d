// Package cluster assembles the simulated cluster the jobs run on: N
// nodes, each with its own (optionally throttled) local disk, task slots,
// and a per-node frequent-key cache; the spill regions the map slots keep
// between tasks; a shared network fabric; and a DFS
// spanning the node disks. It corresponds to the two testbeds of §V-A: the
// local cluster (6 machines, 12 mappers + 12 reducers) and the 20-node EC2
// cluster.
package cluster

import (
	"fmt"
	"time"

	"mrtext/internal/chaos"
	"mrtext/internal/core/freqbuf"
	"mrtext/internal/dfs"
	"mrtext/internal/fabric"
	"mrtext/internal/spillbuf"
	"mrtext/internal/vdisk"
)

// Config sizes a cluster.
type Config struct {
	// Nodes is the number of worker machines.
	Nodes int
	// MapSlotsPerNode and ReduceSlotsPerNode bound concurrent tasks per
	// node, like Hadoop's slot configuration.
	MapSlotsPerNode    int
	ReduceSlotsPerNode int
	// DiskThrottle, when non-nil, meters every node disk. Nil disks run
	// at memory speed (unit tests).
	DiskThrottle *vdisk.ThrottleConfig
	// Net configures the interconnect. A zero value disables throttling
	// but still counts traffic.
	Net fabric.Config
	// BlockSize is the DFS block size (also the input split size).
	BlockSize int64
	// Replication is the DFS replication factor.
	Replication int
	// Chaos, when non-nil, builds a fault injector wired through every
	// node disk and the fabric. The injector starts disarmed — the runner
	// arms it for the duration of a job — so cluster setup (dataset
	// generation, input loading) always runs fault-free.
	Chaos *chaos.Config
}

// LocalSmall mirrors the paper's local cluster: 6 machines running 12
// mappers and 12 reducers total (2 + 2 slots per node).
func LocalSmall() Config {
	return Config{
		Nodes:              6,
		MapSlotsPerNode:    2,
		ReduceSlotsPerNode: 2,
		DiskThrottle:       throttlePtr(paperDisk()),
		Net:                fabric.DefaultConfig(),
		BlockSize:          4 << 20,
		Replication:        2,
	}
}

// EC2Large mirrors the paper's 20-node EC2 cluster.
func EC2Large() Config {
	return Config{
		Nodes:              20,
		MapSlotsPerNode:    2,
		ReduceSlotsPerNode: 2,
		DiskThrottle:       throttlePtr(paperDisk()),
		Net:                fabric.DefaultConfig(),
		BlockSize:          4 << 20,
		Replication:        2,
	}
}

// Fast returns an unthrottled single-purpose test cluster.
func Fast(nodes int) Config {
	return Config{
		Nodes:              nodes,
		MapSlotsPerNode:    2,
		ReduceSlotsPerNode: 2,
		BlockSize:          1 << 20,
		Replication:        1,
	}
}

func throttlePtr(t vdisk.ThrottleConfig) *vdisk.ThrottleConfig { return &t }

// paperDisk models the effective per-task local-disk bandwidth of the
// paper's 2014 testbed (spinning disks shared by concurrent tasks and the
// DFS): deliberately slower than a raw spindle so spill/merge I/O is a
// visible share of the pipeline, as in Fig. 2.
func paperDisk() vdisk.ThrottleConfig {
	return vdisk.ThrottleConfig{
		WriteBytesPerSec: 35 << 20,
		ReadBytesPerSec:  70 << 20,
		OpLatency:        4 * time.Millisecond,
	}
}

// Cluster is a running simulated cluster.
type Cluster struct {
	cfg        Config
	Disks      []vdisk.Disk
	Net        *fabric.Fabric
	FS         *dfs.DFS
	FreqCaches []*freqbuf.Cache
	// SpillRegions holds the spill-buffer regions the map slots keep from
	// one task to the next — two per slot at most, whatever the jobs — so
	// a task fills memory its predecessor grew. It is one list for the
	// cluster, not one per node: the nodes are one process, and a region
	// kept on a node that runs no map task in the next job would be that
	// process's memory through a reduce phase for nothing.
	SpillRegions *spillbuf.Pool
	// Chaos is the cluster's fault injector; nil when Config.Chaos was
	// nil, which every consumer must tolerate (nil is fully disabled).
	Chaos *chaos.Injector
}

// New builds a cluster from cfg.
func New(cfg Config) (*Cluster, error) {
	if cfg.Nodes <= 0 {
		return nil, fmt.Errorf("cluster: need at least one node, got %d", cfg.Nodes)
	}
	if cfg.MapSlotsPerNode <= 0 {
		cfg.MapSlotsPerNode = 1
	}
	if cfg.ReduceSlotsPerNode <= 0 {
		cfg.ReduceSlotsPerNode = 1
	}
	if cfg.BlockSize <= 0 {
		cfg.BlockSize = 4 << 20
	}
	if cfg.Replication <= 0 {
		cfg.Replication = 1
	}
	var inj *chaos.Injector
	if cfg.Chaos != nil {
		var err error
		inj, err = chaos.New(*cfg.Chaos, cfg.Nodes)
		if err != nil {
			return nil, err
		}
	}
	disks := make([]vdisk.Disk, cfg.Nodes)
	caches := make([]*freqbuf.Cache, cfg.Nodes)
	for i := range disks {
		var d vdisk.Disk = vdisk.NewMem()
		if cfg.DiskThrottle != nil {
			d = vdisk.NewThrottled(d, *cfg.DiskThrottle)
		}
		disks[i] = chaos.WrapDisk(d, i, inj)
		caches[i] = freqbuf.NewCache()
	}
	net, err := fabric.New(cfg.Nodes, cfg.Net)
	if err != nil {
		return nil, err
	}
	if inj != nil {
		net.SetFaultHook(func(src, dst int) error {
			if err := inj.NodeOp(src); err != nil {
				return err
			}
			return inj.NodeOp(dst)
		})
	}
	fs, err := dfs.New(disks, net, cfg.BlockSize, cfg.Replication)
	if err != nil {
		return nil, err
	}
	return &Cluster{cfg: cfg, Disks: disks, Net: net, FS: fs, FreqCaches: caches,
		SpillRegions: spillbuf.NewPool(spillbuf.RegionsPerBuffer * cfg.Nodes * cfg.MapSlotsPerNode), Chaos: inj}, nil
}

// Config returns the cluster's configuration.
func (c *Cluster) Config() Config { return c.cfg }

// Nodes returns the node count.
func (c *Cluster) Nodes() int { return c.cfg.Nodes }

// MapSlots returns per-node map-slot count.
func (c *Cluster) MapSlots() int { return c.cfg.MapSlotsPerNode }

// ReduceSlots returns per-node reduce-slot count.
func (c *Cluster) ReduceSlots() int { return c.cfg.ReduceSlotsPerNode }

// TotalMapSlots returns cluster-wide map concurrency.
func (c *Cluster) TotalMapSlots() int { return c.cfg.Nodes * c.cfg.MapSlotsPerNode }

// TotalReduceSlots returns cluster-wide reduce concurrency.
func (c *Cluster) TotalReduceSlots() int { return c.cfg.Nodes * c.cfg.ReduceSlotsPerNode }

// NodeDead reports whether the chaos layer has killed node n. Always
// false without an injector.
func (c *Cluster) NodeDead(n int) bool { return c.Chaos.NodeDead(n) }

// LiveNodes returns the ids of nodes not killed by the chaos layer.
func (c *Cluster) LiveNodes() []int {
	live := make([]int, 0, c.cfg.Nodes)
	for i := 0; i < c.cfg.Nodes; i++ {
		if !c.Chaos.NodeDead(i) {
			live = append(live, i)
		}
	}
	return live
}
