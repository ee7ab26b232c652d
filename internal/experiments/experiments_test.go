package experiments

import (
	"bytes"
	"strings"
	"testing"

	"mrtext/internal/cluster"
	"mrtext/internal/trace"
)

// tinyEnv runs experiments at smoke-test scale on an unthrottled cluster.
func tinyEnv() Env {
	var buf bytes.Buffer
	return Env{
		Scale:            0.02,
		Cluster:          cluster.Fast(2),
		POSIterations:    1,
		SpillBufferBytes: 256 << 10,
		Seed:             1,
		Out:              &buf,
	}
}

func TestRegistryNames(t *testing.T) {
	names := Names()
	want := []string{"ablation", "fig10", "fig2", "fig3", "fig7", "fig8", "fig9", "spillmodel", "table2", "table3", "table4"}
	if len(names) != len(want) {
		t.Fatalf("names %v", names)
	}
	for i, n := range want {
		if names[i] != n {
			t.Errorf("name %d: %q want %q", i, names[i], n)
		}
	}
	if err := Run("nope", tinyEnv()); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestEnvDefaults(t *testing.T) {
	e := Env{}.withDefaults()
	if e.Scale != 1 || e.Cluster.Nodes != 6 || e.POSIterations <= 0 || e.Out == nil {
		t.Errorf("defaults %+v", e)
	}
	if e.corpusBytes() != defCorpusBytes {
		t.Errorf("corpus bytes %d", e.corpusBytes())
	}
}

func TestRunFig7Shapes(t *testing.T) {
	env := tinyEnv()
	env.Scale = 0.1 // 100k records
	r, err := RunFig7(env)
	if err != nil {
		t.Fatal(err)
	}
	byKey := map[string]float64{}
	for _, p := range r.Points {
		byKey[p.Input+"/"+p.Predictor+"/"+string(rune(p.K))] = p.Removed
		if p.Removed < 0 || p.Removed > 1 {
			t.Errorf("removed fraction %g out of range", p.Removed)
		}
	}
	// Paper shapes: ideal dominates freqbuf at every size; all predictors
	// improve with buffer size; text (α≈1) beats log (α=0.8).
	find := func(input, pred string, k int) float64 {
		for _, p := range r.Points {
			if p.Input == input && p.Predictor == pred && p.K == k {
				return p.Removed
			}
		}
		t.Fatalf("missing point %s/%s/%d", input, pred, k)
		return 0
	}
	for _, input := range []string{"text", "log"} {
		for _, k := range fig7Sizes {
			if find(input, "ideal", k) < find(input, "freqbuf", k) {
				t.Errorf("%s k=%d: freqbuf beats ideal", input, k)
			}
		}
		if find(input, "freqbuf", 16000) <= find(input, "freqbuf", 250) {
			t.Errorf("%s: freqbuf does not improve with buffer size", input)
		}
	}
	if find("text", "ideal", 1000) <= find("log", "ideal", 1000) {
		t.Error("text (α≈1) should be more skewed than log (α=0.8)")
	}
}

func TestRunFig3FitsZipf(t *testing.T) {
	env := tinyEnv()
	env.Scale = 0.1
	r, err := RunFig3(env)
	if err != nil {
		t.Fatal(err)
	}
	if r.Alpha < 0.7 || r.Alpha > 1.3 {
		t.Errorf("fitted alpha %g for an α=1 corpus", r.Alpha)
	}
	if r.TotalWords == 0 || r.DistinctWords == 0 || len(r.Points) == 0 {
		t.Errorf("empty result %+v", r)
	}
	// Rank-frequency must be non-increasing across the sampled points.
	for i := 1; i < len(r.Points); i++ {
		if r.Points[i].Freq > r.Points[i-1].Freq {
			t.Errorf("frequency increases at rank %d", r.Points[i].Rank)
		}
	}
}

func TestRunSpillModelBoundary(t *testing.T) {
	r, err := RunSpillModel(tinyEnv())
	if err != nil {
		t.Fatal(err)
	}
	// Below the boundary: no wait. The matcher is near wait-free for all
	// ratios.
	for _, row := range r.Static {
		boundary := r.Boundary[row.RateRatio]
		if row.X < boundary-0.05 && row.SlowerWaitFrac > 0.02 {
			t.Errorf("ratio %g x=%g below boundary %g waits %.1f%%",
				row.RateRatio, row.X, boundary, 100*row.SlowerWaitFrac)
		}
	}
	for _, row := range r.Matcher {
		if row.SlowerWaitFrac > 0.02 {
			t.Errorf("matcher ratio %g waits %.1f%%", row.RateRatio, 100*row.SlowerWaitFrac)
		}
	}
}

func TestRunFig2Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runtime experiment")
	}
	env := tinyEnv()
	r, err := RunFig2(env)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Breakdowns) != len(AllApps) {
		t.Fatalf("%d breakdowns", len(r.Breakdowns))
	}
	for _, b := range r.Breakdowns {
		if b.Total <= 0 {
			t.Errorf("%s: no work recorded", b.App)
		}
		if b.UserFraction <= 0 || b.UserFraction >= 1 {
			t.Errorf("%s: user fraction %g", b.App, b.UserFraction)
		}
	}
	out := env.Out.(*bytes.Buffer).String()
	if !strings.Contains(out, "Table II") || !strings.Contains(out, "Fig. 2") {
		t.Error("tables not printed")
	}
}

func TestRunTable3Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runtime experiment")
	}
	env := tinyEnv()
	tbl, err := runTimingTable(env, "smoke", []AppID{WordCount, AccessLogSum}, AllVariants)
	if err != nil {
		t.Fatal(err)
	}
	for _, app := range []AppID{WordCount, AccessLogSum} {
		row := tbl.Rows[app]
		if len(row) != 4 {
			t.Fatalf("%s: %d variants", app, len(row))
		}
		base := row[Baseline]
		if base.Wall <= 0 || base.RelBaseline != 1 {
			t.Errorf("%s baseline %+v", app, base)
		}
		for _, v := range AllVariants {
			if row[v].RelBaseline <= 0 {
				t.Errorf("%s/%s rel %g", app, v, row[v].RelBaseline)
			}
		}
	}
}

func TestRunFig9Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runtime experiment")
	}
	env := tinyEnv()
	env.Trace = trace.New(1 << 16) // what mrbench -trace sets
	r, err := RunFig9(env, WordCount)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 4 {
		t.Fatalf("%d rows", len(r.Rows))
	}
	for _, row := range r.Rows {
		if row.MapBusy <= 0 || row.SupportBusy <= 0 {
			t.Errorf("%s/%s: zero busy time", row.App, row.Variant)
		}
	}
	var jobs int
	for _, ev := range env.Trace.Events() {
		if ev.Kind == trace.KindJob {
			jobs++
		}
	}
	if jobs != len(r.Rows) {
		t.Errorf("the environment's tracer recorded %d jobs, the experiment ran %d", jobs, len(r.Rows))
	}
}

func TestRunAblationSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runtime experiment")
	}
	env := tinyEnv()
	r, err := RunAblation(env)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 2*len(ablationConfigs) {
		t.Fatalf("%d rows", len(r.Rows))
	}
	for _, row := range r.Rows {
		if row.Wall <= 0 || row.Rel <= 0 {
			t.Errorf("row %+v", row)
		}
	}
}

func TestRunFig10Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runtime experiment")
	}
	env := tinyEnv()
	env.Scale = 0.08 // Fig10 divides by 4 internally
	r, err := RunFig10(env)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Cells) != len(r.CPUFactors)*len(r.Storages) {
		t.Fatalf("%d cells", len(r.Cells))
	}
	for _, cell := range r.Cells {
		if cell.Baseline <= 0 || cell.Combined <= 0 {
			t.Errorf("cell %+v has zero timings", cell)
		}
	}
}

func TestRunFig8Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runtime experiment")
	}
	env := tinyEnv()
	r, err := RunFig8(env)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Pairs) != len(AllApps) {
		t.Fatalf("%d pairs", len(r.Pairs))
	}
	for _, p := range r.Pairs {
		if p.Base.Total <= 0 || p.Freq.Total <= 0 {
			t.Errorf("%s: empty breakdowns", p.Base.App)
		}
		if p.Base.Variant != Baseline || p.Freq.Variant != FreqOpt {
			t.Errorf("%s: wrong variants %s/%s", p.Base.App, p.Base.Variant, p.Freq.Variant)
		}
	}
}

func TestRunTable4Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runtime experiment")
	}
	env := tinyEnv()
	env.Cluster = cluster.Fast(4) // stand-in for the EC2 shape at test scale
	tbl, err := RunTable4(env)
	if err != nil {
		t.Fatal(err)
	}
	wantApps := []AppID{WordCount, InvertedIndex, PageRank}
	if len(tbl.Apps) != len(wantApps) {
		t.Fatalf("apps %v", tbl.Apps)
	}
	for _, app := range wantApps {
		if len(tbl.Rows[app]) != 4 {
			t.Errorf("%s has %d variants", app, len(tbl.Rows[app]))
		}
	}
}
