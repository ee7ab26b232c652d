package experiments

import (
	"time"

	"mrtext/internal/metrics"
)

// ThreadTimes is one (app, variant) measurement of map-phase thread
// activity: the data behind one bar group of Fig. 9.
type ThreadTimes struct {
	App     AppID
	Variant Variant
	// Busy/Wait are summed across all map tasks ("serialized view").
	MapBusy, MapWait         time.Duration
	SupportBusy, SupportWait time.Duration
}

// SlowerWait returns the wait time of the busier (slower) thread — the
// quantity the spill-matcher minimizes.
func (t ThreadTimes) SlowerWait() time.Duration {
	if t.MapBusy >= t.SupportBusy {
		return t.MapWait
	}
	return t.SupportWait
}

// Fig9Result is the sweep behind Fig. 9.
type Fig9Result struct {
	Rows []ThreadTimes
}

// RunFig9 reproduces Fig. 9: per-application map-thread and support-thread
// busy/wait time under the four configurations, showing how much of the
// slower thread's wait the spill-matcher removes.
func RunFig9(env Env, appList ...AppID) (*Fig9Result, error) {
	env = env.withDefaults()
	if len(appList) == 0 {
		appList = AllApps
	}
	out := &Fig9Result{}
	for _, app := range appList {
		c, err := setup(env, app)
		if err != nil {
			return nil, err
		}
		for _, v := range AllVariants {
			res, err := env.runCell(c, app, v)
			if err != nil {
				return nil, err
			}
			row := ThreadTimes{App: app, Variant: v}
			for _, t := range res.Tasks {
				if t.Kind != "map" {
					continue
				}
				// The map goroutine performs map(), emit and profiling;
				// the support goroutine sorts, combines and writes
				// spills.
				row.MapBusy += t.Metrics.Ops[metrics.OpMapUser] +
					t.Metrics.Ops[metrics.OpEmit] +
					t.Metrics.Ops[metrics.OpProfile]
				row.SupportBusy += t.Metrics.Ops[metrics.OpSort] +
					t.Metrics.Ops[metrics.OpCombineUser] +
					t.Metrics.Ops[metrics.OpSpillIO]
				row.MapWait += t.Metrics.WaitMap
				row.SupportWait += t.Metrics.WaitSupport
			}
			out.Rows = append(out.Rows, row)
		}
	}
	printFig9(env, out)
	return out, nil
}

func printFig9(env Env, r *Fig9Result) {
	env.printf("\nFig. 9 — map/support thread busy and wait time per configuration (summed over map tasks)\n")
	env.printf("%-14s %-9s %10s %10s %10s %10s %12s\n",
		"app", "variant", "map busy", "map wait", "sup busy", "sup wait", "slower wait")
	var base ThreadTimes
	for _, row := range r.Rows {
		if row.Variant == Baseline {
			base = row
		}
		env.printf("%-14s %-9s %10s %10s %10s %10s %12s",
			row.App, row.Variant,
			seconds(row.MapBusy), seconds(row.MapWait),
			seconds(row.SupportBusy), seconds(row.SupportWait),
			seconds(row.SlowerWait()))
		if row.Variant != Baseline && base.App == row.App && base.SlowerWait() > 0 {
			removed := 1 - float64(row.SlowerWait())/float64(base.SlowerWait())
			env.printf("  (%.0f%% of baseline slower-thread wait removed)", 100*removed)
		}
		env.printf("\n")
	}
}
