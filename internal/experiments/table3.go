package experiments

import (
	"fmt"
	"time"

	"mrtext/internal/cluster"
)

// Timing is one (application, variant) measurement.
type Timing struct {
	App     AppID
	Variant Variant
	Wall    time.Duration
	// RelBaseline = Wall / baseline Wall for the same app.
	RelBaseline float64
}

// TimingTable is the structured result of Table III / Table IV.
type TimingTable struct {
	Name    string
	Apps    []AppID
	Rows    map[AppID]map[Variant]Timing
	Cluster string
}

// RunTable3 reproduces Table III: overall local-cluster runtimes of all
// six applications under the four configurations.
func RunTable3(env Env) (*TimingTable, error) {
	env = env.withDefaults()
	return runTimingTable(env, "Table III (local cluster)", AllApps, AllVariants)
}

// RunTable4 reproduces Table IV: the EC2-scale run (20 nodes, scaled
// input) for the applications the paper reports there. When the caller
// left the default local-cluster shape in place, it is swapped for the
// paper's 20-node EC2 shape; an explicit cluster override is respected.
func RunTable4(env Env) (*TimingTable, error) {
	env = env.withDefaults()
	if env.Cluster.Nodes == cluster.LocalSmall().Nodes {
		env.Cluster = cluster.EC2Large()
	}
	apps := []AppID{WordCount, InvertedIndex, PageRank}
	return runTimingTable(env, "Table IV (EC2-scale cluster)", apps, AllVariants)
}

func runTimingTable(env Env, name string, appList []AppID, variants []Variant) (*TimingTable, error) {
	tbl := &TimingTable{
		Name:    name,
		Apps:    appList,
		Rows:    make(map[AppID]map[Variant]Timing),
		Cluster: fmt.Sprintf("%d nodes × (%dm+%dr)", env.Cluster.Nodes, env.Cluster.MapSlotsPerNode, env.Cluster.ReduceSlotsPerNode),
	}
	for _, app := range appList {
		c, err := setup(env, app)
		if err != nil {
			return nil, err
		}
		tbl.Rows[app] = make(map[Variant]Timing)
		var base time.Duration
		for _, v := range variants {
			res, err := env.runCell(c, app, v)
			if err != nil {
				return nil, err
			}
			t := Timing{App: app, Variant: v, Wall: res.Wall}
			if v == Baseline {
				base = res.Wall
			}
			if base > 0 {
				t.RelBaseline = float64(res.Wall) / float64(base)
			}
			tbl.Rows[app][v] = t
			env.printf("  %-14s %-9s %10s", app, v, seconds(res.Wall))
			if v != Baseline {
				env.printf("  (%s of baseline)", pct(res.Wall, base))
			}
			env.printf("\n")
		}
	}
	printTimingTable(env, tbl)
	return tbl, nil
}

func printTimingTable(env Env, tbl *TimingTable) {
	env.printf("\n%s — %s\n", tbl.Name, tbl.Cluster)
	env.printf("%-14s", "app")
	for _, v := range AllVariants {
		env.printf(" %18s", v)
	}
	env.printf("\n")
	for _, app := range tbl.Apps {
		row := tbl.Rows[app]
		if row == nil {
			continue
		}
		env.printf("%-14s", app)
		base := row[Baseline].Wall
		for _, v := range AllVariants {
			t, ok := row[v]
			if !ok {
				env.printf(" %18s", "-")
				continue
			}
			if v == Baseline {
				env.printf(" %18s", seconds(t.Wall))
			} else {
				env.printf(" %9s (%s)", seconds(t.Wall), pct(t.Wall, base))
			}
		}
		env.printf("\n")
	}
}
