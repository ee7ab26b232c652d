package experiments

import (
	"time"

	"mrtext/internal/metrics"
	"mrtext/internal/mr"
)

// Breakdown is one application's serialized-view cost breakdown — the data
// behind one bar of Fig. 2 (baseline) or one bar pair of Fig. 8
// (baseline vs FreqOpt).
type Breakdown struct {
	App     AppID
	Variant Variant
	Ops     [metrics.NumOps]time.Duration
	Total   time.Duration
	// UserFraction is the share of total work in user code (map +
	// combine + reduce) — the quantity §II-C1 highlights.
	UserFraction float64
	// MapIdle / SupportIdle are the Table II columns.
	MapIdle, SupportIdle float64
}

func breakdownOf(app AppID, v Variant, res *mr.Result) Breakdown {
	b := Breakdown{App: app, Variant: v, Ops: res.Agg.Ops, Total: res.Agg.TotalWork()}
	if b.Total > 0 {
		b.UserFraction = float64(res.Agg.UserWork()) / float64(b.Total)
	}
	b.MapIdle = res.MapIdleFraction()
	b.SupportIdle = res.SupportIdleFraction()
	return b
}

// Fig2Result carries per-app baseline breakdowns (Fig. 2) and the idle
// percentages (Table II), which the paper derives from the same profiling
// runs.
type Fig2Result struct {
	Breakdowns []Breakdown
}

// RunFig2 reproduces Fig. 2 (baseline serialized cost breakdown per
// application) and Table II (map/support idle percentages).
func RunFig2(env Env) (*Fig2Result, error) {
	env = env.withDefaults()
	out := &Fig2Result{}
	for _, app := range AllApps {
		c, err := setup(env, app)
		if err != nil {
			return nil, err
		}
		res, err := env.runCell(c, app, Baseline)
		if err != nil {
			return nil, err
		}
		out.Breakdowns = append(out.Breakdowns, breakdownOf(app, Baseline, res))
	}
	printFig2(env, out)
	printTable2(env, out)
	return out, nil
}

func printFig2(env Env, r *Fig2Result) {
	env.printf("\nFig. 2 — serialized cost breakdown (baseline), %% of total work\n")
	env.printf("%-14s", "app")
	for op := metrics.Op(0); op < metrics.NumOps; op++ {
		env.printf(" %9s", op)
	}
	env.printf(" %9s %6s\n", "total", "user%")
	for _, b := range r.Breakdowns {
		env.printf("%-14s", b.App)
		for op := metrics.Op(0); op < metrics.NumOps; op++ {
			if b.Total == 0 {
				env.printf(" %9s", "-")
				continue
			}
			env.printf(" %8.1f%%", 100*float64(b.Ops[op])/float64(b.Total))
		}
		env.printf(" %9s %5.1f%%\n", seconds(b.Total), 100*b.UserFraction)
	}
}

func printTable2(env Env, r *Fig2Result) {
	env.printf("\nTable II — %% of map-task time the map/support threads are idle\n")
	env.printf("%-14s %10s %14s\n", "app", "map idle", "support idle")
	for _, b := range r.Breakdowns {
		env.printf("%-14s %9.2f%% %13.2f%%\n", b.App, 100*b.MapIdle, 100*b.SupportIdle)
	}
}

// RunTable2 reproduces Table II alone (it shares Fig. 2's runs).
func RunTable2(env Env) (*Fig2Result, error) { return RunFig2(env) }

// Fig8Result pairs baseline and frequency-buffered breakdowns per app.
type Fig8Result struct {
	Pairs []struct {
		Base, Freq Breakdown
	}
}

// RunFig8 reproduces Fig. 8: abstraction-cost breakdown per application,
// baseline vs frequency-buffering, with the paper's per-app parameters.
func RunFig8(env Env) (*Fig8Result, error) {
	env = env.withDefaults()
	out := &Fig8Result{}
	for _, app := range AllApps {
		c, err := setup(env, app)
		if err != nil {
			return nil, err
		}
		var pair struct{ Base, Freq Breakdown }
		for _, v := range []Variant{Baseline, FreqOpt} {
			res, err := env.runCell(c, app, v)
			if err != nil {
				return nil, err
			}
			b := breakdownOf(app, v, res)
			if v == Baseline {
				pair.Base = b
			} else {
				pair.Freq = b
			}
		}
		out.Pairs = append(out.Pairs, pair)
	}
	printFig8(env, out)
	return out, nil
}

func printFig8(env Env, r *Fig8Result) {
	env.printf("\nFig. 8 — abstraction cost, baseline vs frequency-buffering (seconds of serialized work)\n")
	env.printf("%-14s %-9s", "app", "variant")
	for op := metrics.Op(0); op < metrics.NumOps; op++ {
		env.printf(" %9s", op)
	}
	env.printf(" %10s %10s\n", "framework", "total")
	for _, p := range r.Pairs {
		for _, b := range []Breakdown{p.Base, p.Freq} {
			env.printf("%-14s %-9s", b.App, b.Variant)
			var user time.Duration
			for op := metrics.Op(0); op < metrics.NumOps; op++ {
				env.printf(" %9.2f", b.Ops[op].Seconds())
				if op.User() {
					user += b.Ops[op]
				}
			}
			env.printf(" %10.2f %10.2f\n", (b.Total - user).Seconds(), b.Total.Seconds())
		}
		baseFw := p.Base.Total - userWork(p.Base)
		freqFw := p.Freq.Total - userWork(p.Freq)
		if baseFw > 0 {
			env.printf("%-14s abstraction-cost change: %s\n", p.Base.App, pct(freqFw, baseFw))
		}
	}
}

func userWork(b Breakdown) time.Duration {
	return b.Ops[metrics.OpMapUser] + b.Ops[metrics.OpCombineUser] + b.Ops[metrics.OpReduceUser]
}
