package chaos

import (
	"errors"
	"io"
	"testing"
	"time"

	"mrtext/internal/vdisk"
)

func mustNew(t *testing.T, cfg Config, n int) *Injector {
	t.Helper()
	in, err := New(cfg, n)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return in
}

// planOutcome runs one attempt's plan to exhaustion and reports where (and
// whether) it failed.
type planOutcome struct {
	failed bool
	site   Site
	op     int64
}

func drainPlan(p *Plan, sites []Site, opsPerSite int64) planOutcome {
	for op := int64(0); op < opsPerSite; op++ {
		for _, s := range sites {
			if err := p.Check(s); err != nil {
				return planOutcome{failed: true, site: s, op: op}
			}
		}
	}
	return planOutcome{}
}

func TestPlanDeterministic(t *testing.T) {
	cfg := Config{Seed: 42, FailRate: 0.3, KillNode: -1}
	sites := MapSites()

	run := func(node int) []planOutcome {
		in := mustNew(t, cfg, 8)
		in.Arm()
		var out []planOutcome
		for task := 0; task < 50; task++ {
			for attempt := 0; attempt < 3; attempt++ {
				p := in.Plan(node, task, attempt, sites)
				out = append(out, drainPlan(p, sites, 600))
			}
		}
		return out
	}

	a, b := run(0), run(5)
	fails := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("outcome %d differs across nodes: %+v vs %+v", i, a[i], b[i])
		}
		if a[i].failed {
			fails++
		}
	}
	if fails == 0 {
		t.Fatal("no attempt failed at 30% fail rate over 150 attempts")
	}
	// Rough rate sanity: 150 attempts at 0.3 should land well inside [15, 75].
	if fails < 15 || fails > 75 {
		t.Fatalf("implausible failure count %d/150 at rate 0.3", fails)
	}
}

func TestPlanRerollsAcrossAttempts(t *testing.T) {
	in := mustNew(t, Config{Seed: 7, FailRate: 0.5, KillNode: -1}, 4)
	in.Arm()
	sites := ReduceSites()
	// Across enough tasks, some attempt chain must mix failing and
	// succeeding attempts — i.e. the reroll is per attempt, not per task.
	mixed := false
	for task := 0; task < 40 && !mixed; task++ {
		first := drainPlan(in.Plan(0, task, 0, sites), sites, 600).failed
		second := drainPlan(in.Plan(0, task, 1, sites), sites, 600).failed
		if first != second {
			mixed = true
		}
	}
	if !mixed {
		t.Fatal("attempts 0 and 1 always agreed: schedule does not reroll per attempt")
	}
}

func TestPlanErrorsWrapErrInjected(t *testing.T) {
	in := mustNew(t, Config{Seed: 1, FailRate: 1, KillNode: -1}, 2)
	in.Arm()
	sites := MapSites()
	p := in.Plan(1, 3, 0, sites)
	out := drainPlan(p, sites, 600)
	if !out.failed {
		t.Fatal("fail rate 1.0 did not fail the attempt")
	}
	// Re-derive the same plan and confirm the error wraps ErrInjected.
	p = in.Plan(1, 3, 0, sites)
	var err error
	for op := int64(0); op < 600 && err == nil; op++ {
		for _, s := range sites {
			if err = p.Check(s); err != nil {
				break
			}
		}
	}
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("injected error = %v, want ErrInjected", err)
	}
	if got := in.Stats().Faults; got != 2 {
		t.Fatalf("Stats().Faults = %d, want 2", got)
	}
}

func TestDisarmedInjectsNothing(t *testing.T) {
	in := mustNew(t, Config{Seed: 9, FailRate: 1, KillNode: 0, KillAfterOps: 1}, 2)
	sites := MapSites()
	if p := in.Plan(0, 0, 0, sites); p != nil {
		t.Fatal("disarmed injector returned a non-nil plan")
	}
	if err := in.NodeOp(0); err != nil {
		t.Fatalf("disarmed NodeOp failed: %v", err)
	}
	in.Arm()
	if in.Plan(0, 0, 0, sites) == nil {
		t.Fatal("armed injector returned a nil plan")
	}
}

func TestNilInjectorAndPlanAreNoOps(t *testing.T) {
	var in *Injector
	in.Arm()
	in.Disarm()
	in.Kill(0)
	if in.NodeDead(0) || in.DeadNodes() != nil {
		t.Fatal("nil injector reported state")
	}
	if err := in.NodeOp(3); err != nil {
		t.Fatalf("nil NodeOp: %v", err)
	}
	if p := in.Plan(0, 0, 0, MapSites()); p != nil {
		t.Fatal("nil injector returned a plan")
	}
	var p *Plan
	if err := p.Check(SiteEmit); err != nil {
		t.Fatalf("nil plan Check: %v", err)
	}
	if d := p.Delay(); d != 0 {
		t.Fatalf("nil plan Delay = %v", d)
	}
}

func TestNodeKillAfterOps(t *testing.T) {
	in := mustNew(t, Config{Seed: 3, KillNode: 1, KillAfterOps: 10}, 4)
	in.Arm()
	var killErr error
	for i := 0; i < 20 && killErr == nil; i++ {
		killErr = in.NodeOp(1)
	}
	if !errors.Is(killErr, ErrNodeDead) {
		t.Fatalf("victim never died: %v", killErr)
	}
	if !in.NodeDead(1) {
		t.Fatal("NodeDead(1) = false after kill")
	}
	if err := in.NodeOp(0); err != nil {
		t.Fatalf("non-victim node failed: %v", err)
	}
	if got := in.DeadNodes(); len(got) != 1 || got[0] != 1 {
		t.Fatalf("DeadNodes = %v, want [1]", got)
	}
	if got := in.Stats().Kills; got != 1 {
		t.Fatalf("Stats().Kills = %d, want 1", got)
	}
	// The kill is logged exactly once.
	kills := 0
	for _, e := range in.Log() {
		if e.Kind == EventKill {
			kills++
		}
	}
	if kills != 1 {
		t.Fatalf("kill logged %d times", kills)
	}
}

func TestZeroConfigIsInert(t *testing.T) {
	// The zero Config must stay inert even armed: KillNode's zero value is
	// node 0, but without an explicit KillAfterOps no node is a victim, no
	// fault fires, and no delay is scheduled.
	in := mustNew(t, Config{}, 3)
	in.Arm()
	for i := 0; i < 500; i++ {
		if err := in.NodeOp(0); err != nil {
			t.Fatalf("zero config killed node 0 after %d ops: %v", i, err)
		}
	}
	p := in.Plan(0, 0, 0, MapSites())
	for i := 0; i < 1000; i++ {
		for _, s := range MapSites() {
			if err := p.Check(s); err != nil {
				t.Fatalf("zero config injected a fault: %v", err)
			}
		}
	}
	if d := p.Delay(); d != 0 {
		t.Fatalf("zero config scheduled a delay: %v", d)
	}
	if s := in.Stats(); s != (Stats{}) {
		t.Fatalf("zero config fired injections: %+v", s)
	}
	// An explicit KillAfterOps is what opts node 0 in as a victim.
	in2 := mustNew(t, Config{KillNode: 0, KillAfterOps: 5}, 3)
	in2.Arm()
	var err error
	for i := 0; i < 10 && err == nil; i++ {
		err = in2.NodeOp(0)
	}
	if !errors.Is(err, ErrNodeDead) {
		t.Fatalf("explicit KillAfterOps did not kill node 0: %v", err)
	}
}

func TestDelayPlanOneShot(t *testing.T) {
	in := mustNew(t, Config{Seed: 11, DelayRate: 1, Delay: 5 * time.Millisecond, KillNode: -1}, 2)
	in.Arm()
	p := in.Plan(0, 0, 0, MapSites())
	if d := p.Delay(); d != 5*time.Millisecond {
		t.Fatalf("Delay = %v, want 5ms", d)
	}
	if d := p.Delay(); d != 0 {
		t.Fatalf("second Delay = %v, want 0", d)
	}
	if got := in.Stats().Delays; got != 1 {
		t.Fatalf("Stats().Delays = %d, want 1", got)
	}
}

func TestWrapDiskNodeDeath(t *testing.T) {
	in := mustNew(t, Config{Seed: 5, KillNode: -1}, 2)
	in.Arm()
	d := WrapDisk(vdisk.NewMem(), 1, in)

	w, err := d.Create("f")
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	if _, err := w.Write([]byte("hello")); err != nil {
		t.Fatalf("Write: %v", err)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	r, err := d.Open("f")
	if err != nil {
		t.Fatalf("Open: %v", err)
	}

	in.Kill(1)

	// In-flight reader dies, as do all new operations.
	if _, err := r.Read(make([]byte, 4)); !errors.Is(err, ErrNodeDead) {
		t.Fatalf("in-flight Read after kill = %v, want ErrNodeDead", err)
	}
	if _, err := d.Open("f"); !errors.Is(err, ErrNodeDead) {
		t.Fatalf("Open after kill = %v, want ErrNodeDead", err)
	}
	if _, err := d.Create("g"); !errors.Is(err, ErrNodeDead) {
		t.Fatalf("Create after kill = %v, want ErrNodeDead", err)
	}
	if err := d.Rename("f", "h"); !errors.Is(err, ErrNodeDead) {
		t.Fatalf("Rename after kill = %v, want ErrNodeDead", err)
	}
}

func TestWrapDiskNilInjectorUnwrapped(t *testing.T) {
	m := vdisk.NewMem()
	if d := WrapDisk(m, 0, nil); d != vdisk.Disk(m) {
		t.Fatal("WrapDisk with nil injector did not return the disk unwrapped")
	}
}

func TestWrapDiskPassthrough(t *testing.T) {
	in := mustNew(t, Config{Seed: 2, KillNode: -1}, 1)
	in.Arm()
	d := WrapDisk(vdisk.NewMem(), 0, in)
	w, err := d.Create("x")
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	if _, err := w.Write([]byte("abc")); err != nil {
		t.Fatalf("Write: %v", err)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := d.Rename("x", "y"); err != nil {
		t.Fatalf("Rename: %v", err)
	}
	r, err := d.OpenSection("y", 1, 2)
	if err != nil {
		t.Fatalf("OpenSection: %v", err)
	}
	got, err := io.ReadAll(r)
	if err != nil || string(got) != "bc" {
		t.Fatalf("ReadAll = %q, %v", got, err)
	}
	if sz, err := d.Size("y"); err != nil || sz != 3 {
		t.Fatalf("Size = %d, %v", sz, err)
	}
	if err := d.Remove("y"); err != nil {
		t.Fatalf("Remove: %v", err)
	}
}

// The nil fast path is the price every hot-path call site pays with chaos
// off; it must stay at the cost of a pointer comparison.
func BenchmarkNilInjectorNodeOp(b *testing.B) {
	var in *Injector
	for i := 0; i < b.N; i++ {
		if err := in.NodeOp(0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkNilPlanCheck(b *testing.B) {
	var p *Plan
	for i := 0; i < b.N; i++ {
		if err := p.Check(SiteEmit); err != nil {
			b.Fatal(err)
		}
	}
}
