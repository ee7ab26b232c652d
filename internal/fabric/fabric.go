// Package fabric simulates the cluster interconnect. Each node has one NIC
// with a configurable bandwidth and per-transfer latency; a transfer
// between two nodes occupies both endpoints' NICs for its duration, so
// concurrent shuffles queue against each other the way they do on a real
// top-of-rack network. Same-node transfers are free (they never leave the
// host).
//
// The shuffle phase of the runtime charges every remote segment fetch
// through the fabric, which is what makes the EC2-scale experiment
// (Table IV) show the paper's "larger overhead of transmitting more data
// between nodes" effect for InvertedIndex.
package fabric

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Config describes NIC performance. Zero BytesPerSec disables throttling
// (transfers are still counted).
type Config struct {
	BytesPerSec int64
	Latency     time.Duration
}

// DefaultConfig models gigabit Ethernet.
func DefaultConfig() Config {
	return Config{BytesPerSec: 110 << 20, Latency: 500 * time.Microsecond}
}

// Stats is cumulative fabric accounting.
type Stats struct {
	BytesMoved int64 // bytes that crossed node boundaries
	Transfers  int64 // remote transfer operations
	LocalBytes int64 // bytes "moved" between a node and itself (free)
	LocalReads int64
	// MaxInFlight is the high-water mark of concurrently in-flight remote
	// transfers across the whole fabric — the pipelined shuffle's copier
	// fan-out made visible (fetching at reduce start would never exceed
	// the reduce slot count; concurrent copiers push past it).
	MaxInFlight int64
}

// NodeStats is per-NIC traffic accounting: what one node sent and
// received across the fabric (local loopback traffic excluded).
type NodeStats struct {
	BytesOut int64
	BytesIn  int64
	// MaxInFlight is the high-water mark of remote transfers this NIC was
	// an endpoint of at one time.
	MaxInFlight int64
}

// Fabric is the simulated interconnect. Safe for concurrent use.
type Fabric struct {
	cfg         Config
	nics        []nic
	moved       atomic.Int64
	xfers       atomic.Int64
	local       atomic.Int64
	lhits       atomic.Int64
	inflight    atomic.Int64
	maxInflight atomic.Int64
	// hook, when installed, is consulted before every transfer; it lets
	// the chaos layer fail transfers that touch a dead node.
	hook atomic.Pointer[func(src, dst int) error]
}

type nic struct {
	mu          sync.Mutex
	nextFree    time.Time
	out         atomic.Int64
	in          atomic.Int64
	inflight    atomic.Int64
	maxInflight atomic.Int64
}

// raiseMax lifts watermark to at least cur via CAS.
func raiseMax(watermark *atomic.Int64, cur int64) {
	for {
		m := watermark.Load()
		if cur <= m || watermark.CompareAndSwap(m, cur) {
			return
		}
	}
}

// New creates a fabric connecting n nodes.
func New(n int, cfg Config) (*Fabric, error) {
	if n <= 0 {
		return nil, fmt.Errorf("fabric: need at least one node, got %d", n)
	}
	return &Fabric{cfg: cfg, nics: make([]nic, n)}, nil
}

// Nodes returns the number of connected nodes.
func (f *Fabric) Nodes() int { return len(f.nics) }

// SetFaultHook installs (or, with nil, removes) a check run before every
// transfer, including same-node ones. A non-nil error from the hook fails
// the transfer without moving or counting any bytes.
func (f *Fabric) SetFaultHook(h func(src, dst int) error) {
	if h == nil {
		f.hook.Store(nil)
		return
	}
	f.hook.Store(&h)
}

// Transfer moves n bytes from src to dst, blocking the caller for the
// simulated transfer time. Same-node transfers return immediately.
func (f *Fabric) Transfer(src, dst int, n int64) error {
	if src < 0 || src >= len(f.nics) || dst < 0 || dst >= len(f.nics) {
		return fmt.Errorf("fabric: transfer %d→%d outside 0..%d", src, dst, len(f.nics)-1)
	}
	if h := f.hook.Load(); h != nil {
		if err := (*h)(src, dst); err != nil {
			return fmt.Errorf("fabric: transfer %d→%d: %w", src, dst, err)
		}
	}
	if src == dst {
		f.local.Add(n)
		f.lhits.Add(1)
		return nil
	}
	f.moved.Add(n)
	f.xfers.Add(1)
	f.nics[src].out.Add(n)
	f.nics[dst].in.Add(n)
	raiseMax(&f.maxInflight, f.inflight.Add(1))
	defer f.inflight.Add(-1)
	raiseMax(&f.nics[src].maxInflight, f.nics[src].inflight.Add(1))
	defer f.nics[src].inflight.Add(-1)
	raiseMax(&f.nics[dst].maxInflight, f.nics[dst].inflight.Add(1))
	defer f.nics[dst].inflight.Add(-1)
	if f.cfg.BytesPerSec <= 0 && f.cfg.Latency <= 0 {
		return nil
	}
	var busy time.Duration
	if f.cfg.BytesPerSec > 0 {
		busy = time.Duration(float64(n) / float64(f.cfg.BytesPerSec) * float64(time.Second))
	}
	busy += f.cfg.Latency

	// Occupy both NICs: the transfer starts when the later of the two is
	// free and holds both for its duration. Lock ordering by index avoids
	// deadlock between concurrent opposite-direction transfers.
	a, b := src, dst
	if a > b {
		a, b = b, a
	}
	now := time.Now()
	f.nics[a].mu.Lock()
	f.nics[b].mu.Lock()
	start := now
	if f.nics[a].nextFree.After(start) {
		start = f.nics[a].nextFree
	}
	if f.nics[b].nextFree.After(start) {
		start = f.nics[b].nextFree
	}
	deadline := start.Add(busy)
	f.nics[a].nextFree = deadline
	f.nics[b].nextFree = deadline
	f.nics[b].mu.Unlock()
	f.nics[a].mu.Unlock()

	if d := time.Until(deadline); d > 0 {
		time.Sleep(d)
	}
	return nil
}

// NodeStats returns one node's cumulative sent/received remote traffic.
func (f *Fabric) NodeStats(node int) (NodeStats, error) {
	if node < 0 || node >= len(f.nics) {
		return NodeStats{}, fmt.Errorf("fabric: node %d outside 0..%d", node, len(f.nics)-1)
	}
	return NodeStats{
		BytesOut:    f.nics[node].out.Load(),
		BytesIn:     f.nics[node].in.Load(),
		MaxInFlight: f.nics[node].maxInflight.Load(),
	}, nil
}

// Stats returns cumulative accounting.
func (f *Fabric) Stats() Stats {
	return Stats{
		BytesMoved:  f.moved.Load(),
		Transfers:   f.xfers.Load(),
		LocalBytes:  f.local.Load(),
		LocalReads:  f.lhits.Load(),
		MaxInFlight: f.maxInflight.Load(),
	}
}
