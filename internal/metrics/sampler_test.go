package metrics

import (
	"testing"
	"time"
)

func TestSamplerSchedule(t *testing.T) {
	// warmup 3, period 4: events 0,1,2 weight 1; then 3, 7, 11 stand for
	// the events since the previous sample.
	s := NewSampler(3, 4)
	var got []int64
	for i := 0; i < 12; i++ {
		got = append(got, s.Sample())
	}
	want := []int64{1, 1, 1, 1, 0, 0, 0, 4, 0, 0, 0, 4}
	var sum int64
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("weights = %v, want %v", got, want)
		}
		sum += got[i]
	}
	if sum != 12 {
		t.Errorf("weights sum to %d over 12 events", sum)
	}

	every := NewSampler(-1, 0) // clamps to warmup 0, period 1
	for i := 0; i < 5; i++ {
		if w := every.Sample(); w != 1 {
			t.Errorf("period-1 event %d: weight %d", i, w)
		}
	}
}

func TestScaleTo(t *testing.T) {
	cases := []struct {
		wall      time.Duration
		est, want []time.Duration
	}{
		// Proportional, and the parts sum to the wall exactly.
		{100, []time.Duration{1, 3}, []time.Duration{25, 75}},
		{10, []time.Duration{1, 1, 1}, []time.Duration{3, 3, 4}},
		// A part estimated at zero or below gets nothing, wherever it is.
		{90, []time.Duration{2, 0, 1, 0}, []time.Duration{60, 0, 30, 0}},
		{50, []time.Duration{-5, 1}, []time.Duration{0, 50}},
		// Nothing estimated: the wall is the first part's.
		{7, []time.Duration{0, 0, 0}, []time.Duration{7, 0, 0}},
	}
	for _, c := range cases {
		parts := append([]time.Duration(nil), c.est...)
		ScaleTo(c.wall, parts)
		var sum time.Duration
		for i := range parts {
			sum += parts[i]
			if parts[i] != c.want[i] {
				t.Errorf("ScaleTo(%v, %v) = %v, want %v", c.wall, c.est, parts, c.want)
				break
			}
		}
		if sum != c.wall {
			t.Errorf("ScaleTo(%v, %v) sums to %v", c.wall, c.est, sum)
		}
	}
}
