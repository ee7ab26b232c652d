package experiments

import (
	"mrtext/internal/core/spillmatch"
	"mrtext/internal/core/spillmodel"
)

// SpillModelRow is one analytic-model measurement: slower-thread wait time
// under a static threshold x for a given rate ratio, against the matcher.
type SpillModelRow struct {
	RateRatio      float64 // p/c
	X              float64
	SlowerWaitFrac float64 // slower-thread wait / makespan
}

// SpillModelResult is the §IV-C theoretical-analysis reproduction: for
// several produce/consume rate ratios, the slower thread's wait time as x
// sweeps across the wait-free boundary x* = max{c/(p+c), ½}, plus the
// adaptive matcher's result.
type SpillModelResult struct {
	Static   []SpillModelRow
	Matcher  []SpillModelRow // one row per ratio; X is the matcher's final x
	Boundary map[float64]float64
}

// RunSpillModel sweeps the analytic pipeline model, demonstrating the
// paper's central spill-matcher claim: wait time is (near) zero for
// x ≤ x* and grows beyond it, and the adaptive matcher lands at x*.
func RunSpillModel(env Env) (*SpillModelResult, error) {
	env = env.withDefaults()
	out := &SpillModelResult{Boundary: map[float64]float64{}}
	ratios := []float64{0.25, 0.5, 1.0, 2.0, 4.0}
	xs := []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9}
	const (
		M = 1 << 20
		N = 256 << 20
		c = 100 << 20 // bytes/sec
	)

	env.printf("\n§IV-C analytic model — slower-thread wait fraction vs spill percentage\n")
	env.printf("%-8s", "p/c \\ x")
	for _, x := range xs {
		env.printf(" %7.2f", x)
	}
	env.printf(" %9s %9s\n", "x*", "matcher")

	for _, ratio := range ratios {
		p := ratio * c
		boundary := spillmatch.WaitFreePercent(p, c)
		out.Boundary[ratio] = boundary
		env.printf("%-8.2f", ratio)
		for _, x := range xs {
			res, err := spillmodel.Simulate(spillmodel.Params{
				BufferBytes: M, InputBytes: N, ProduceRate: p, ConsumeRate: c,
			}, spillmatch.NewStatic(x))
			if err != nil {
				return nil, err
			}
			frac := res.SlowerWait(p, c) / res.Makespan
			out.Static = append(out.Static, SpillModelRow{RateRatio: ratio, X: x, SlowerWaitFrac: frac})
			env.printf("  %5.1f%%", 100*frac)
		}
		m := spillmatch.NewMatcher()
		res, err := spillmodel.Simulate(spillmodel.Params{
			BufferBytes: M, InputBytes: N, ProduceRate: p, ConsumeRate: c,
		}, m)
		if err != nil {
			return nil, err
		}
		frac := res.SlowerWait(p, c) / res.Makespan
		out.Matcher = append(out.Matcher, SpillModelRow{RateRatio: ratio, X: m.Percent(), SlowerWaitFrac: frac})
		env.printf(" %9.3f %8.1f%%\n", boundary, 100*frac)
	}
	return out, nil
}
