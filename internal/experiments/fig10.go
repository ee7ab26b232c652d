package experiments

import (
	"fmt"
	"time"

	"mrtext/internal/apps"
)

// Fig10Cell is one point of the SynText sweep: the fraction of baseline
// runtime the combined optimizations save at a given CPU-intensity ×
// storage-intensity coordinate.
type Fig10Cell struct {
	CPUFactor int
	Storage   float64
	Baseline  time.Duration
	Combined  time.Duration
	Saved     float64 // 1 − combined/baseline
}

// Fig10Result is the grid behind the Fig. 10 heatmap.
type Fig10Result struct {
	CPUFactors []int
	Storages   []float64
	Cells      []Fig10Cell
}

// RunFig10 reproduces Fig. 10: the SynText benchmark swept over
// CPU-intensity (map() work per word, as a multiple of WordCount's) and
// storage-intensity (aggregate growth under combine()), measuring the
// combined optimizations' saving at each grid point. The paper's reading:
// savings peak at low-to-moderate CPU intensity and low storage intensity,
// and decay toward the CPU-bound (user code dominates) and
// storage-intensive (combining doesn't shrink data) corners.
func RunFig10(env Env) (*Fig10Result, error) {
	env = env.withDefaults()
	// A smaller corpus keeps the 2×|grid| runs affordable.
	env.Scale = env.Scale / 4
	out := &Fig10Result{
		CPUFactors: []int{0, 4, 16, 64},
		Storages:   []float64{0, 0.33, 0.67, 1.0},
	}
	c, err := setup(env, SynText)
	if err != nil {
		return nil, err
	}
	for _, cpu := range out.CPUFactors {
		for _, sto := range out.Storages {
			cell := Fig10Cell{CPUFactor: cpu, Storage: sto}
			for _, v := range []Variant{Baseline, Combined} {
				job, err := makeJobWith(env, SynText, v, apps.Params{SynText: apps.SynTextConfig{CPUFactor: cpu, Storage: sto}})
				if err != nil {
					return nil, err
				}
				res, err := env.run(c, job)
				if err != nil {
					return nil, fmt.Errorf("syntext cpu=%d sto=%.2f %s: %w", cpu, sto, v, err)
				}
				if v == Baseline {
					cell.Baseline = res.Wall
				} else {
					cell.Combined = res.Wall
				}
			}
			if cell.Baseline > 0 {
				cell.Saved = 1 - float64(cell.Combined)/float64(cell.Baseline)
			}
			out.Cells = append(out.Cells, cell)
			env.printf("  syntext cpu=%-3d storage=%.2f  baseline=%s combined=%s saved=%.1f%%\n",
				cpu, sto, seconds(cell.Baseline), seconds(cell.Combined), 100*cell.Saved)
		}
	}
	printFig10(env, out)
	return out, nil
}

func printFig10(env Env, r *Fig10Result) {
	env.printf("\nFig. 10 — %% runtime saved by combined optimizations (SynText grid)\n")
	env.printf("%-22s", "storage-int \\ cpu-int")
	for _, cpu := range r.CPUFactors {
		env.printf(" %8d", cpu)
	}
	env.printf("\n")
	for _, sto := range r.Storages {
		env.printf("%-22.2f", sto)
		for _, cpu := range r.CPUFactors {
			for _, cell := range r.Cells {
				if cell.CPUFactor == cpu && cell.Storage == sto {
					env.printf("   %5.1f%%", 100*cell.Saved)
				}
			}
		}
		env.printf("\n")
	}
}
