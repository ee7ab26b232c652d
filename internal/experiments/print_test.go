package experiments

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

func TestPrintTimingTable(t *testing.T) {
	var buf bytes.Buffer
	env := Env{Out: &buf}.withDefaults()
	env.Out = &buf
	tbl := &TimingTable{
		Name:    "Table test",
		Apps:    []AppID{WordCount},
		Cluster: "2 nodes",
		Rows: map[AppID]map[Variant]Timing{
			WordCount: {
				Baseline: {App: WordCount, Variant: Baseline, Wall: 10 * time.Second, RelBaseline: 1},
				FreqOpt:  {App: WordCount, Variant: FreqOpt, Wall: 8 * time.Second, RelBaseline: 0.8},
				SpillOpt: {App: WordCount, Variant: SpillOpt, Wall: 9 * time.Second, RelBaseline: 0.9},
				Combined: {App: WordCount, Variant: Combined, Wall: 7 * time.Second, RelBaseline: 0.7},
			},
		},
	}
	printTimingTable(env, tbl)
	out := buf.String()
	for _, want := range []string{"Table test", "WordCount", "10.00s", "80.0%", "70.0%"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestSecondsAndPct(t *testing.T) {
	if got := seconds(1500 * time.Millisecond); got != "1.50s" {
		t.Errorf("seconds: %q", got)
	}
	if got := pct(80*time.Second, 100*time.Second); got != "80.0%" {
		t.Errorf("pct: %q", got)
	}
	if got := pct(time.Second, 0); got != "n/a" {
		t.Errorf("pct zero base: %q", got)
	}
}

func TestVariantAndAppLists(t *testing.T) {
	if len(AllApps) != 6 || len(AllVariants) != 4 {
		t.Error("paper sets wrong size")
	}
	if AllVariants[0] != Baseline || AllVariants[3] != Combined {
		t.Error("variant order")
	}
}

func TestThreadTimesSlowerWait(t *testing.T) {
	tt := ThreadTimes{MapBusy: 10, MapWait: 3, SupportBusy: 5, SupportWait: 7}
	if tt.SlowerWait() != 3 {
		t.Errorf("map busier: slower wait %d", tt.SlowerWait())
	}
	tt = ThreadTimes{MapBusy: 2, MapWait: 3, SupportBusy: 5, SupportWait: 7}
	if tt.SlowerWait() != 7 {
		t.Errorf("support busier: slower wait %d", tt.SlowerWait())
	}
}
