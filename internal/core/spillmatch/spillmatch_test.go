package spillmatch

import (
	"math"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestWaitFreePercentEquation(t *testing.T) {
	cases := []struct {
		p, c float64
		want float64
	}{
		{100, 100, 0.5},  // balanced: ½
		{200, 100, 0.5},  // producer faster: ½ (c/(p+c)=1/3 < ½)
		{100, 300, 0.75}, // consumer faster: c/(p+c)
		{100, 900, 0.9},  // much faster consumer
		{1, 1e9, Max},    // a consumer this much faster is capped at Max
	}
	for _, c := range cases {
		if got := WaitFreePercent(c.p, c.c); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("WaitFreePercent(%g,%g) = %g want %g", c.p, c.c, got, c.want)
		}
	}
	// Degenerate rates default to ½.
	if WaitFreePercent(0, 100) != 0.5 || WaitFreePercent(100, -1) != 0.5 {
		t.Error("degenerate rates not defaulted")
	}
}

func TestWaitFreePercentProperties(t *testing.T) {
	f := func(p, c float64) bool {
		p, c = math.Abs(p)+1e-9, math.Abs(c)+1e-9
		x := WaitFreePercent(p, c)
		if x < 0.5 || x > Max {
			return false
		}
		// p < c  ⇔  x > ½ (strictly, up to fp noise)
		if p < c && x <= 0.5-1e-12 {
			return false
		}
		if p > c && x != 0.5 {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestStaticController(t *testing.T) {
	s := NewStatic(0.8)
	if s.Percent() != 0.8 {
		t.Errorf("Percent = %g", s.Percent())
	}
	s.Record(1<<20, time.Second, 2*time.Second) // ignored
	if s.Percent() != 0.8 {
		t.Error("static controller adapted")
	}
}

func TestMatcherAdaptsFromTimes(t *testing.T) {
	m := NewMatcher()
	if got := m.Percent(); got != 0.5 {
		t.Errorf("initial percent %g", got)
	}
	// Producer twice as slow as the consumer: x = Tp/(Tp+Tc) = 2/3.
	m.Record(1<<20, 2*time.Second, time.Second)
	if got := m.Percent(); math.Abs(got-2.0/3) > 1e-9 {
		t.Errorf("after slow producer: %g want 2/3", got)
	}
	// Consumer slower: clamp at ½.
	m.Record(1<<20, time.Second, 4*time.Second)
	if got := m.Percent(); got != 0.5 {
		t.Errorf("after slow consumer: %g want 0.5", got)
	}
	// Producer slower again: the threshold follows the last spill alone.
	m.Record(1<<20, 3*time.Second, time.Second)
	if got := m.Percent(); got != 0.75 {
		t.Errorf("after slower producer: %g want 0.75", got)
	}
}

func TestMatcherIgnoresDegenerateMeasurements(t *testing.T) {
	m := NewMatcher()
	before := m.Percent()
	m.Record(0, time.Second, time.Second)
	m.Record(100, 0, time.Second)
	m.Record(100, time.Second, -time.Second)
	if m.Percent() != before {
		t.Error("degenerate measurements were not ignored")
	}
}

func TestMatcherClamps(t *testing.T) {
	m := NewMatcher()
	// Extremely slow producer would push x→1; it is capped at Max.
	m.Record(1<<20, time.Hour, time.Millisecond)
	if got := m.Percent(); got != Max {
		t.Errorf("max cap: %g, want %g", got, Max)
	}
	// The slowest consumer holds x at ½: eq. 1 has no lower bound to cap.
	m.Record(1<<20, time.Millisecond, time.Hour)
	if got := m.Percent(); got != 0.5 {
		t.Errorf("slow consumer: %g, want 0.5", got)
	}
}

func TestMatcherConcurrentAccess(t *testing.T) {
	m := NewMatcher()
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				m.Record(1<<20, time.Second, time.Second)
				_ = m.Percent()
			}
		}()
	}
	wg.Wait()
	if got := m.Percent(); got != 0.5 {
		t.Errorf("balanced rates from every goroutine: %g want 0.5", got)
	}
}

func TestEquationReductionTpTc(t *testing.T) {
	// c/(p+c) with p=m/Tp, c=m/Tc must equal Tp/(Tp+Tc): the identity the
	// matcher relies on.
	f := func(mRaw, tpRaw, tcRaw uint32) bool {
		m := 1 + float64(mRaw)           // bytes
		tp := 0.001 + float64(tpRaw)/1e6 // seconds
		tc := 0.001 + float64(tcRaw)/1e6 // seconds
		p, c := m/tp, m/tc
		lhs := c / (p + c)
		rhs := tp / (tp + tc)
		return math.Abs(lhs-rhs) <= 1e-9*math.Max(lhs, rhs)+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
