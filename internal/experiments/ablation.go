package experiments

import (
	"fmt"
	"time"

	"mrtext/internal/metrics"
	"mrtext/internal/mr"
)

// AblationRow is one (app, configuration) measurement of the ablation
// study.
type AblationRow struct {
	App      AppID
	Config   string
	Wall     time.Duration
	Rel      float64 // vs that app's baseline
	SpillMB  float64 // intermediate bytes written (spill runs)
	FreqHits int64
	ChosenS  float64
}

// AblationResult holds the full ablation sweep.
type AblationResult struct {
	Rows []AblationRow
}

// ablationConfigs isolates each design choice DESIGN.md calls out:
//
//   - the baseline and the paper's two optimizations combined (context);
//   - frequency-buffering with the auto-tuned sampling fraction instead of
//     the paper's fixed s (§III-C);
//   - the §VII compressed-runs extension stacked on Combined.
var ablationConfigs = []struct {
	name    string
	variant Variant
	tweak   func(j *mr.Job) // nil: the variant as it is
}{
	{"baseline", Baseline, nil},
	{"combined", Combined, nil},
	{"freq-autotune-s", FreqOpt, func(j *mr.Job) {
		j.FreqBuf.SampleFraction = 0 // engage the §III-C auto-tuner
	}},
	{"combined+compress", Combined, func(j *mr.Job) { j.CompressRuns = true }},
}

// RunAblation measures every design-choice configuration on WordCount and
// InvertedIndex (the two applications the paper's text results hinge on).
func RunAblation(env Env) (*AblationResult, error) {
	env = env.withDefaults()
	out := &AblationResult{}
	for _, app := range []AppID{WordCount, InvertedIndex} {
		c, err := setup(env, app)
		if err != nil {
			return nil, err
		}
		var base time.Duration
		for _, cfg := range ablationConfigs {
			job, err := makeJob(env, app, cfg.variant)
			if err != nil {
				return nil, err
			}
			job.Name = fmt.Sprintf("%s-abl-%s", app, cfg.name)
			if cfg.tweak != nil {
				cfg.tweak(job)
			}
			res, err := env.run(c, job)
			if err != nil {
				return nil, fmt.Errorf("%s/%s: %w", app, cfg.name, err)
			}
			row := AblationRow{
				App:      app,
				Config:   cfg.name,
				Wall:     res.Wall,
				SpillMB:  float64(res.Agg.Counters[metrics.CtrSpillBytes]) / 1e6,
				FreqHits: res.Agg.Counters[metrics.CtrFreqHits],
				ChosenS:  res.FreqStats().ChosenSample,
			}
			if cfg.name == "baseline" {
				base = res.Wall
			}
			if base > 0 {
				row.Rel = float64(res.Wall) / float64(base)
			}
			out.Rows = append(out.Rows, row)
			env.printf("  %-14s %-20s %10s (%.1f%% of baseline)  intermediate %.1f MB\n",
				app, cfg.name, seconds(res.Wall), 100*row.Rel, row.SpillMB)
		}
	}
	printAblation(env, out)
	return out, nil
}

func printAblation(env Env, r *AblationResult) {
	env.printf("\nAblation — design choices and the §VII extension\n")
	env.printf("%-14s %-20s %10s %10s %14s %10s\n", "app", "config", "wall", "vs base", "intermediate", "freq hits")
	for _, row := range r.Rows {
		env.printf("%-14s %-20s %10s %9.1f%% %11.1f MB %10d\n",
			row.App, row.Config, seconds(row.Wall), 100*row.Rel, row.SpillMB, row.FreqHits)
	}
}
