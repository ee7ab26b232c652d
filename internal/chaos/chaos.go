// Package chaos is the runtime's deterministic fault injector: the
// machinery that lets the fault-tolerance subsystem be tested under
// realistic cluster conditions — transient task failures, whole-node
// death, and manufactured stragglers — without any nondeterminism beyond
// goroutine scheduling. The paper's numbers come from Hadoop, whose task
// model silently absorbs worker failures via re-execution and speculative
// backups; injecting the same conditions here is what lets the runtime
// claim the optimizations survive them.
//
// Faults are planned, not rolled: whether attempt a of task t fails, at
// which named site, and after how many operations, is a pure function of
// (seed, site set, task, attempt) computed by a splitmix64-style hash.
// The schedule is therefore identical across runs and independent of
// which node or slot the attempt lands on, which makes failure scenarios
// reproducible from a single -chaos-seed flag even though the goroutine
// interleaving is not.
//
// Injected faults surface as ordinary errors from the task pipeline (and,
// for dead nodes, as I/O errors from the wrapped vdisk/fabric/DFS layers),
// never as panics: the runtime's retry machinery must see exactly what a
// real failed disk or NIC would produce.
//
// Cost model: a nil *Injector (and a nil *Plan) is fully disabled — every
// method is a nil-check no-op, so hot paths pay one pointer comparison
// when chaos is off.
package chaos

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Site names an instrumented fault point in the task pipeline. Map-task
// attempts check the first four; reduce-task attempts the last two.
type Site uint8

const (
	// SiteRecordRead is the map goroutine reading one input record.
	SiteRecordRead Site = iota
	// SiteEmit is the collector path of one emitted map-output record.
	SiteEmit
	// SiteSpillWrite is the support goroutine writing one spill run.
	SiteSpillWrite
	// SiteMerge is the map task publishing its spill runs as its output,
	// where a map-side merge of the runs would stand.
	SiteMerge
	// SiteShuffleFetch is the reduce task opening one map output's
	// segments.
	SiteShuffleFetch
	// SiteReduceWrite is the reduce task writing final output records.
	SiteReduceWrite

	numSites
)

var siteNames = [numSites]string{
	"record-read", "emit", "spill-write", "merge", "shuffle-fetch", "reduce-write",
}

// String returns the site name used in logs and flags.
func (s Site) String() string {
	if s >= numSites {
		return "unknown"
	}
	return siteNames[s]
}

// MapSites returns the fault sites a map-task attempt checks.
func MapSites() []Site {
	return []Site{SiteRecordRead, SiteEmit, SiteSpillWrite, SiteMerge}
}

// ReduceSites returns the fault sites a reduce-task attempt checks.
func ReduceSites() []Site {
	return []Site{SiteShuffleFetch, SiteReduceWrite}
}

// Sentinel errors. Injected faults wrap ErrInjected; operations touching a
// killed node wrap ErrNodeDead. The runner distinguishes them: ErrInjected
// means retry the attempt, ErrNodeDead additionally triggers lost-output
// recovery.
var (
	ErrInjected = errors.New("chaos: injected fault")
	ErrNodeDead = errors.New("chaos: node is dead")
)

// Config parameterizes an Injector. The zero value injects nothing (but
// still arms the node-death and bookkeeping machinery, which is useful for
// Kill-driven tests).
type Config struct {
	// Seed drives the deterministic fault schedule.
	Seed int64
	// FailRate is the probability in [0,1] that one task attempt fails at
	// one of its armed sites. The per-attempt decision is a pure function
	// of (Seed, task, attempt), so retried attempts reroll.
	FailRate float64
	// Sites restricts which sites may trip; nil arms all of them.
	Sites []Site
	// KillNode names a node to kill mid-job (negative or out of range:
	// none). Killing node 0 additionally requires an explicit
	// KillAfterOps, so the zero Config stays inert.
	KillNode int
	// KillAfterOps is how many chaos-visible operations the victim node
	// performs before it dies (default 200). Operations are disk and
	// fabric touches plus task-site checks, so the kill lands mid-job.
	KillAfterOps int64
	// DelayRate is the probability that a task attempt is delayed by
	// Delay before it starts — the straggler manufacturing knob.
	DelayRate float64
	// Delay is the manufactured straggler delay (default 30ms).
	Delay time.Duration
}

// EventKind classifies one chaos log entry.
type EventKind uint8

const (
	// EventFault is one injected task-site failure.
	EventFault EventKind = iota
	// EventKill is one node death.
	EventKill
	// EventDelay is one manufactured straggler delay.
	EventDelay
)

// String returns the event kind name.
func (k EventKind) String() string {
	switch k {
	case EventFault:
		return "fault"
	case EventKill:
		return "kill"
	case EventDelay:
		return "delay"
	}
	return "unknown"
}

// Event is one fired injection, recorded in the chaos log. Only faults
// that actually fired are logged, so the log is exactly the set of
// failures the runtime had to absorb.
type Event struct {
	Kind    EventKind
	Site    Site
	Node    int
	Task    int
	Attempt int
}

// String renders the event for logs.
func (e Event) String() string {
	switch e.Kind {
	case EventKill:
		return fmt.Sprintf("kill node %d", e.Node)
	case EventDelay:
		return fmt.Sprintf("delay task %d attempt %d on node %d", e.Task, e.Attempt, e.Node)
	}
	return fmt.Sprintf("fault %s task %d attempt %d on node %d", e.Site, e.Task, e.Attempt, e.Node)
}

// Stats summarizes what an injector has fired so far.
type Stats struct {
	Faults int64 // injected task-site failures
	Kills  int64 // node deaths
	Delays int64 // manufactured straggler delays
}

// Injector is one job's fault source. Safe for concurrent use. The nil
// *Injector is valid and fully disabled.
type Injector struct {
	cfg      Config
	armed    [numSites]bool
	kill     int64 // KillAfterOps with default applied
	killNode int   // KillNode normalized (-1: none)

	dead    []atomic.Bool
	nodeOps []atomic.Int64
	// enabled counts concurrent Arm calls: an injector shared by several
	// jobs running on one long-lived cluster stays armed until the LAST
	// job disarms, so one job finishing cannot switch faults off under a
	// concurrent job that armed the same injector.
	enabled atomic.Int64

	faults atomic.Int64
	kills  atomic.Int64
	delays atomic.Int64

	mu  sync.Mutex
	log []Event
}

// New builds an injector for a cluster of n nodes. The injector starts
// disarmed: it injects nothing until Arm is called (the runner arms it at
// job start, so dataset generation on the same cluster runs fault-free).
func New(cfg Config, n int) (*Injector, error) {
	if n <= 0 {
		return nil, fmt.Errorf("chaos: need at least one node, got %d", n)
	}
	if cfg.FailRate < 0 || cfg.FailRate > 1 {
		return nil, fmt.Errorf("chaos: fail rate %v outside [0,1]", cfg.FailRate)
	}
	if cfg.DelayRate < 0 || cfg.DelayRate > 1 {
		return nil, fmt.Errorf("chaos: delay rate %v outside [0,1]", cfg.DelayRate)
	}
	in := &Injector{
		cfg:     cfg,
		kill:    cfg.KillAfterOps,
		dead:    make([]atomic.Bool, n),
		nodeOps: make([]atomic.Int64, n),
	}
	if in.kill <= 0 {
		in.kill = 200
	}
	in.killNode = cfg.KillNode
	if in.killNode >= n || in.killNode < 0 || (in.killNode == 0 && cfg.KillAfterOps <= 0) {
		in.killNode = -1
	}
	if in.cfg.Delay <= 0 {
		in.cfg.Delay = 30 * time.Millisecond
	}
	if len(cfg.Sites) == 0 {
		for i := range in.armed {
			in.armed[i] = true
		}
	} else {
		for _, s := range cfg.Sites {
			if s >= numSites {
				return nil, fmt.Errorf("chaos: unknown site %d", s)
			}
			in.armed[s] = true
		}
	}
	return in, nil
}

// Arm activates injection. Arms are counted: pair every Arm with one
// Disarm. Nil-safe.
func (in *Injector) Arm() {
	if in != nil {
		in.enabled.Add(1)
	}
}

// Disarm undoes one Arm; injection stops when every armer has disarmed
// (node deaths persist). Nil-safe.
func (in *Injector) Disarm() {
	if in != nil && in.enabled.Add(-1) < 0 {
		in.enabled.Add(1) // unpaired Disarm: clamp at disarmed
	}
}

// KillsNodes reports whether this injector is configured to kill a node.
// The mr runtime uses it to reject node-killing per-job injectors: node
// death is a cluster-wide condition, not a per-job one.
func (in *Injector) KillsNodes() bool { return in != nil && in.killNode >= 0 }

// Kill marks a node dead immediately: every subsequent operation touching
// it fails with ErrNodeDead. Idempotent, nil-safe.
func (in *Injector) Kill(node int) {
	if in == nil || node < 0 || node >= len(in.dead) {
		return
	}
	if in.dead[node].CompareAndSwap(false, true) {
		in.kills.Add(1)
		in.record(Event{Kind: EventKill, Node: node})
	}
}

// NodeDead reports whether node has been killed. Nil-safe.
func (in *Injector) NodeDead(node int) bool {
	if in == nil || node < 0 || node >= len(in.dead) {
		return false
	}
	return in.dead[node].Load()
}

// DeadNodes returns the killed node ids in ascending order. Nil-safe.
func (in *Injector) DeadNodes() []int {
	if in == nil {
		return nil
	}
	var out []int
	for i := range in.dead {
		if in.dead[i].Load() {
			out = append(out, i)
		}
	}
	sort.Ints(out)
	return out
}

// NodeOp accounts one chaos-visible operation on node and returns
// ErrNodeDead if the node is (or just became) dead. The configured victim
// dies when its operation count crosses KillAfterOps. Nil-safe; disarmed
// injectors neither count nor fail.
func (in *Injector) NodeOp(node int) error {
	if in == nil || in.enabled.Load() <= 0 || node < 0 || node >= len(in.dead) {
		return nil
	}
	if in.dead[node].Load() {
		return fmt.Errorf("node %d: %w", node, ErrNodeDead)
	}
	if node == in.killNode {
		if in.nodeOps[node].Add(1) >= in.kill {
			in.Kill(node)
			return fmt.Errorf("node %d: %w", node, ErrNodeDead)
		}
	}
	return nil
}

// Stats returns cumulative fired-injection counts. Nil-safe.
func (in *Injector) Stats() Stats {
	if in == nil {
		return Stats{}
	}
	return Stats{Faults: in.faults.Load(), Kills: in.kills.Load(), Delays: in.delays.Load()}
}

// Log returns a copy of the fired-injection log. Nil-safe.
func (in *Injector) Log() []Event {
	if in == nil {
		return nil
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	return append([]Event(nil), in.log...)
}

func (in *Injector) record(e Event) {
	in.mu.Lock()
	in.log = append(in.log, e)
	in.mu.Unlock()
}

// ---------- deterministic planning ----------

// splitmix64 is the finalizer of the splitmix64 generator: a fast, well
// mixed 64-bit hash.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// unit maps a hash to [0,1).
func unit(h uint64) float64 { return float64(h>>11) / (1 << 53) }

// fireWindow is how many operations into a site a planned fault may land:
// per-record sites spread the failure through the attempt, coarse sites
// trip on their first operation so the fault reliably fires.
func fireWindow(s Site) uint64 {
	switch s {
	case SiteRecordRead, SiteEmit, SiteReduceWrite:
		return 512
	default:
		return 1
	}
}

// Plan is the precomputed fault schedule of one task attempt: at most one
// site trips, at a fixed operation index, plus an optional straggler
// delay. A nil *Plan is valid and checks nothing.
//
// Concurrency: Check is safe to call from any number of goroutines — the
// per-site operation counters are atomic and the single planned fault is
// claimed by compare-and-swap, so exactly one concurrent Check observes
// it. The pipelined shuffle relies on this: one reduce attempt's copier
// pool checks SiteShuffleFetch from several goroutines at once, and the
// fault count must stay deterministic (one fire per failing plan)
// regardless of which copier happens to trip it. Delay is still called
// once, from the attempt's own goroutine, before any concurrency starts.
type Plan struct {
	in      *Injector
	node    int
	task    int
	attempt int
	site    Site  // the site that trips, if armed
	fireAt  int64 // operation index at which it trips
	fail    bool  // immutable after Plan(): this attempt has a planned fault
	fired   atomic.Bool
	delay   time.Duration
	count   [numSites]atomic.Int64
}

// Plan computes the fault schedule for one task attempt running on node.
// sites must be the attempt's site set in a stable order (MapSites or
// ReduceSites); the schedule depends only on (seed, sites[0], task,
// attempt), never on the node, so retries reroll deterministically
// wherever they land. Returns nil (check nothing) when the injector is
// nil or disarmed. Nil-safe.
func (in *Injector) Plan(node, task, attempt int, sites []Site) *Plan {
	if in == nil || in.enabled.Load() <= 0 || len(sites) == 0 {
		return nil
	}
	p := &Plan{in: in, node: node, task: task, attempt: attempt}
	// sites[0] disambiguates map task t from reduce task t.
	base := splitmix64(uint64(in.cfg.Seed)) ^
		splitmix64(uint64(sites[0])<<40|uint64(task)<<16|uint64(attempt))
	if in.cfg.FailRate > 0 && unit(splitmix64(base)) < in.cfg.FailRate {
		armed := make([]Site, 0, len(sites))
		for _, s := range sites {
			if in.armed[s] {
				armed = append(armed, s)
			}
		}
		if len(armed) > 0 {
			p.fail = true
			p.site = armed[splitmix64(base+1)%uint64(len(armed))]
			p.fireAt = int64(splitmix64(base+2) % fireWindow(p.site))
		}
	}
	if in.cfg.DelayRate > 0 && unit(splitmix64(base+3)) < in.cfg.DelayRate {
		p.delay = in.cfg.Delay
	}
	return p
}

// Delay returns the attempt's manufactured straggler delay (0 for none),
// recording it as fired. The caller sleeps; the plan only decides.
// Nil-safe.
func (p *Plan) Delay() time.Duration {
	if p == nil || p.delay <= 0 {
		return 0
	}
	d := p.delay
	p.delay = 0
	p.in.delays.Add(1)
	p.in.record(Event{Kind: EventDelay, Node: p.node, Task: p.task, Attempt: p.attempt})
	return d
}

// Check accounts one operation at site and returns an injected error when
// the plan trips at this operation. It also surfaces node death, so task
// code needs a single chaos check per site. Nil-safe and safe for
// concurrent use; the planned fault fires exactly once.
func (p *Plan) Check(site Site) error {
	if p == nil {
		return nil
	}
	if err := p.in.NodeOp(p.node); err != nil {
		return err
	}
	n := p.count[site].Add(1) - 1
	if p.fail && site == p.site && n == p.fireAt && p.fired.CompareAndSwap(false, true) {
		p.in.faults.Add(1)
		p.in.record(Event{Kind: EventFault, Site: site, Node: p.node, Task: p.task, Attempt: p.attempt})
		return fmt.Errorf("%s at op %d (task %d attempt %d node %d): %w",
			site, n, p.task, p.attempt, p.node, ErrInjected)
	}
	return nil
}
