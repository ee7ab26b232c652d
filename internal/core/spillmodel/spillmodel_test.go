package spillmodel

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"mrtext/internal/core/spillmatch"
)

func simulate(t *testing.T, M, N, p, c, x float64) Result {
	t.Helper()
	res, err := Simulate(Params{BufferBytes: M, InputBytes: N, ProduceRate: p, ConsumeRate: c}, spillmatch.NewStatic(x))
	if err != nil {
		t.Fatalf("simulate(M=%g N=%g p=%g c=%g x=%g): %v", M, N, p, c, x, err)
	}
	return res
}

// TestWaitFreeBoundary is the reproduction of the paper's §IV-C theorem:
// the slower thread is wait-free iff x ≤ max{c/(p+c), ½}.
func TestWaitFreeBoundary(t *testing.T) {
	const M, N = 1 << 20, 64 << 20
	for _, ratio := range []float64{0.2, 0.5, 0.9, 1.0, 1.1, 2.0, 5.0} {
		p := 100.0e6 * ratio
		c := 100.0e6
		xstar := spillmatch.WaitFreePercent(p, c)
		for _, x := range []float64{0.1, 0.3, 0.45, 0.5, xstar, xstar * 0.98, xstar*1.05 + 0.01, 0.9} {
			if x > 0.99 {
				x = 0.99
			}
			res := simulate(t, M, N, p, c, x)
			wait := res.SlowerWait(p, c)
			waitFrac := wait / res.Makespan
			// The consumer inevitably idles while the very first spill
			// accumulates (x·M/p); the theorem concerns steady state.
			startup := x * M / p / res.Makespan
			if x <= xstar+1e-9 {
				if waitFrac > startup+0.01 {
					t.Errorf("ratio=%g x=%g ≤ x*=%g: slower wait %.3f%% not ≈0",
						ratio, x, xstar, 100*waitFrac)
				}
			} else if x > xstar+0.02 {
				if waitFrac < 0.005 {
					t.Errorf("ratio=%g x=%g > x*=%g: slower wait %.3f%% unexpectedly zero",
						ratio, x, xstar, 100*waitFrac)
				}
			}
		}
	}
}

func TestWaitFreeBoundaryQuick(t *testing.T) {
	f := func(pr, xr uint16) bool {
		// ratio ∈ (0.1, 5), x ∈ (0.05, x*]
		ratio := 0.1 + 4.9*float64(pr)/65535
		p := 100.0e6 * ratio
		c := 100.0e6
		xstar := spillmatch.WaitFreePercent(p, c)
		x := 0.05 + (xstar-0.05)*float64(xr)/65535
		res, err := Simulate(Params{BufferBytes: 1 << 20, InputBytes: 32 << 20, ProduceRate: p, ConsumeRate: c},
			spillmatch.NewStatic(x))
		if err != nil {
			return false
		}
		startup := x * (1 << 20) / p / res.Makespan
		return res.SlowerWait(p, c)/res.Makespan <= startup+0.01
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestRecurrence verifies the spill sizes follow the paper's recurrence
// m_i = max{xM, min{(p/c)·m_{i−1}, M − m_{i−1}}}.
func TestRecurrence(t *testing.T) {
	const M, N = 1 << 20, 64 << 20
	for _, tc := range []struct{ p, c, x float64 }{
		{50e6, 100e6, 0.8},
		{100e6, 100e6, 0.7},
		{200e6, 100e6, 0.6},
		{100e6, 300e6, 0.9},
		{100e6, 100e6, 0.3},
	} {
		res := simulate(t, M, N, tc.p, tc.c, tc.x)
		if len(res.Spills) < 3 {
			t.Fatalf("p=%g c=%g x=%g: only %d spills", tc.p, tc.c, tc.x, len(res.Spills))
		}
		if i := VerifyRecurrence(res.Spills, M, tc.x, tc.p, tc.c, 0.01); i >= 0 {
			t.Errorf("p=%g c=%g x=%g: recurrence violated at spill %d (m=%g, prev=%g)",
				tc.p, tc.c, tc.x, i, res.Spills[i], res.Spills[i-1])
		}
	}
}

func TestMakespanLowerBound(t *testing.T) {
	// Makespan is at least max(N/p, N/c) (each thread must touch all data)
	// and at most N/p + N/c (full serialization).
	const M, N = 1 << 20, 32 << 20
	for _, x := range []float64{0.2, 0.5, 0.8} {
		for _, ratio := range []float64{0.5, 1, 2} {
			p, c := 80e6*ratio, 80e6
			res := simulate(t, M, N, p, c, x)
			lo := math.Max(N/p, N/c)
			hi := N/p + N/c + 2*float64(M)/c
			if res.Makespan < lo-1e-6 || res.Makespan > hi+1e-6 {
				t.Errorf("x=%g ratio=%g: makespan %g outside [%g, %g]", x, ratio, res.Makespan, lo, hi)
			}
		}
	}
}

func TestSpillSizesConserveInput(t *testing.T) {
	f := func(seedRaw uint32) bool {
		rng := rand.New(rand.NewSource(int64(seedRaw)))
		M := 1e5 + 1e6*rng.Float64()
		N := M * (3 + 30*rng.Float64())
		p := 1e6 * (0.5 + rng.Float64())
		c := 1e6 * (0.5 + rng.Float64())
		x := 0.1 + 0.85*rng.Float64()
		res, err := Simulate(Params{BufferBytes: M, InputBytes: N, ProduceRate: p, ConsumeRate: c},
			spillmatch.NewStatic(x))
		if err != nil {
			return false
		}
		var sum float64
		for _, m := range res.Spills {
			if m <= 0 || m > M+1e-6 {
				return false
			}
			sum += m
		}
		return math.Abs(sum-N) < 1e-3*N
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestMatcherRemovesWait(t *testing.T) {
	const M, N = 1 << 20, 64 << 20
	for _, ratio := range []float64{0.3, 1.0, 3.0} {
		p, c := 100e6*ratio, 100e6
		static := simulate(t, M, N, p, c, 0.8)
		m := spillmatch.NewMatcher()
		adaptive, err := Simulate(Params{BufferBytes: M, InputBytes: N, ProduceRate: p, ConsumeRate: c}, m)
		if err != nil {
			t.Fatal(err)
		}
		aw := adaptive.SlowerWait(p, c) / adaptive.Makespan
		if aw > 0.02 {
			t.Errorf("ratio=%g: matcher leaves %.2f%% slower-thread wait", ratio, 100*aw)
		}
		// And never slower end-to-end than the 0.8 static default.
		if adaptive.Makespan > static.Makespan*1.02 {
			t.Errorf("ratio=%g: matcher makespan %g vs static %g", ratio, adaptive.Makespan, static.Makespan)
		}
	}
}

func TestVariableRates(t *testing.T) {
	// Rates that flip halfway: the matcher re-adapts; the run completes
	// with conserved volume.
	const M, N = 1 << 20, 64 << 20
	rates := func(produced float64) (float64, float64) {
		if produced < N/2 {
			return 200e6, 100e6 // producer fast
		}
		return 50e6, 100e6 // producer slow
	}
	m := spillmatch.NewMatcher()
	res, err := Simulate(Params{BufferBytes: M, InputBytes: N, Rates: rates}, m)
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, s := range res.Spills {
		sum += s
	}
	if math.Abs(sum-N) > 1e-3*N {
		t.Errorf("volume %g want %g", sum, float64(N))
	}
	// After the slow-producer phase the matcher should sit above ½.
	if m.Percent() <= 0.5 {
		t.Errorf("final percent %g, want > 0.5 for slow producer", m.Percent())
	}
}

func TestSimulateValidation(t *testing.T) {
	bad := []Params{
		{BufferBytes: 0, InputBytes: 1, ProduceRate: 1, ConsumeRate: 1},
		{BufferBytes: 1, InputBytes: 0, ProduceRate: 1, ConsumeRate: 1},
		{BufferBytes: 1, InputBytes: 1, ProduceRate: 0, ConsumeRate: 1},
		{BufferBytes: 1, InputBytes: 1, ProduceRate: 1, ConsumeRate: -2},
	}
	for i, p := range bad {
		if _, err := Simulate(p, spillmatch.NewStatic(0.5)); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestFinalSpillSmallerThanThreshold(t *testing.T) {
	// Input that isn't a multiple of the spill size leaves a remainder
	// spill; the run must still complete and count it.
	res := simulate(t, 1<<20, 2.3*(1<<20), 100e6, 100e6, 0.5)
	if res.Handoffs != len(res.Spills) || len(res.Spills) < 3 {
		t.Fatalf("spills %v", res.Spills)
	}
	last := res.Spills[len(res.Spills)-1]
	if last >= 0.5*(1<<20)-1 {
		t.Errorf("final remainder spill %g not smaller than threshold", last)
	}
}
