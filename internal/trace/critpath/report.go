package critpath

import (
	"cmp"
	"fmt"
	"io"
	"slices"
	"strings"
	"time"
)

// This file renders a Report for the terminal (mrrun -trace-report,
// mrtracecheck -report). The format is line-oriented and stable enough to
// grep: every blame line is `blame[<phase>] <cause> <ms> ms <pct>%`, which
// is what the CI obs-smoke step asserts on.

// densityGlyphs maps a busy fraction to a terminal shade.
const densityGlyphs = " .:-=+*#%@"

func densityGlyph(frac float64) byte {
	i := int(min(max(frac, 0), 1) * float64(len(densityGlyphs)-1))
	return densityGlyphs[i]
}

// ms renders a duration as fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// stepLabel names one critical-path step for the step listing.
func stepLabel(s Step) string {
	if s.Synthetic {
		for c := Cause(0); c < NumCauses; c++ {
			if s.Blame[c] > 0 {
				return fmt.Sprintf("(%s)", c)
			}
		}
		return "(gap)"
	}
	e := s.Event
	return fmt.Sprintf("%s n%d t%d s%d", e.Kind, e.Node, e.Task, e.Slot)
}

// topBlame lists a step's non-zero causes, largest first, as a summary.
func topBlame(s Step) string {
	type cb struct {
		c Cause
		d time.Duration
	}
	var parts []cb
	for c := Cause(0); c < NumCauses; c++ {
		if s.Blame[c] > 0 {
			parts = append(parts, cb{c, s.Blame[c]})
		}
	}
	// Stable, so tied causes keep their taxonomy order.
	slices.SortStableFunc(parts, func(a, b cb) int { return cmp.Compare(b.d, a.d) })
	var b strings.Builder
	for i, p := range parts {
		if i == 3 {
			b.WriteString(", ...")
			break
		}
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s %.1fms", p.c, ms(p.d))
	}
	return b.String()
}

// WriteText renders the full report: phase blame tables, the critical
// path step listing, the aggregate activity view, and the per-node
// utilization timelines.
func (r *Report) WriteText(w io.Writer) error {
	var b strings.Builder
	fmt.Fprintf(&b, "critical path: job %.1fms = map %.1fms + shuffle+reduce %.1fms\n",
		ms(r.JobWall), ms(r.Map.Wall), ms(r.Reduce.Wall))

	writePhase := func(name string, p PhaseBlame) {
		for c := Cause(0); c < NumCauses; c++ {
			if p.Causes[c] == 0 {
				continue
			}
			fmt.Fprintf(&b, "blame[%s] %-22s %10.1f ms %5.1f%%\n",
				name, c.String(), ms(p.Causes[c]), 100*p.Fraction(c))
		}
	}
	writePhase("map", r.Map)
	writePhase("reduce", r.Reduce)

	fmt.Fprintf(&b, "critical path steps (%d):\n", len(r.Path))
	for _, s := range r.Path {
		fmt.Fprintf(&b, "  %10.1fms %9.1fms  %-24s %s\n",
			ms(s.Start), ms(s.Wall()), stepLabel(s), topBlame(s))
	}

	var actTotal time.Duration
	for c := Cause(0); c < NumCauses; c++ {
		actTotal += r.Activity[c]
	}
	if actTotal > 0 {
		fmt.Fprintf(&b, "activity (all task spans decomposed, %0.1fms total):\n", ms(actTotal))
		for c := Cause(0); c < NumCauses; c++ {
			if r.Activity[c] == 0 {
				continue
			}
			fmt.Fprintf(&b, "  %-22s %10.1f ms %5.1f%%\n",
				c.String(), ms(r.Activity[c]), 100*float64(r.Activity[c])/float64(actTotal))
		}
	}

	if len(r.Timelines) > 0 {
		fmt.Fprintf(&b, "utilization (%d buckets x %s; glyph = busy share of slot capacity):\n",
			r.Buckets, r.BucketWidth.Round(time.Microsecond))
		for _, tl := range r.Timelines {
			row := make([]byte, len(tl.Busy))
			for i, f := range tl.Busy {
				row[i] = densityGlyph(f)
			}
			var busyPct, idlePct float64
			if tl.OccupiedNS > 0 {
				busyPct = 100 * float64(tl.BusyNS) / float64(tl.OccupiedNS)
				idlePct = 100 * float64(tl.WaitNS) / float64(tl.OccupiedNS)
			}
			fmt.Fprintf(&b, "  n%d %-9s %d slot(s) |%s| busy/occupied %5.1f%% wait/occupied %5.1f%%\n",
				tl.Node, tl.Lane, tl.Slots, row, busyPct, idlePct)
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}
