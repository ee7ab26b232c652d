package freqbuf

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"mrtext/internal/core/zipfest"
	"mrtext/internal/kvio"
	"mrtext/internal/serde"
)

// sumCombine is a WordCount-style combiner over varint counts.
func sumCombine(key []byte, values [][]byte, emit func(k, v []byte) error) error {
	var total int64
	for _, v := range values {
		n, err := serde.DecodeInt64(v)
		if err != nil {
			return err
		}
		total += n
	}
	return emit(key, serde.EncodeInt64(total))
}

// concatCombine is an InvertedIndex-style combiner: its output is as large
// as its input, which trips the noCombine detector.
func concatCombine(key []byte, values [][]byte, emit func(k, v []byte) error) error {
	var all []byte
	for _, v := range values {
		all = append(all, v...)
	}
	return emit(key, all)
}

func newBuffer(t *testing.T, cfg Config, combine kvio.CombineFunc) *Buffer {
	t.Helper()
	if cfg.ExpectedRecords == nil {
		cfg.ExpectedRecords = func() int64 { return 10_000 }
	}
	b, err := New(cfg, combine)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestNewValidation(t *testing.T) {
	exp := func() int64 { return 1 }
	if _, err := New(Config{K: 0, MemoryBytes: 1 << 10, ExpectedRecords: exp}, sumCombine); err == nil {
		t.Error("K=0 accepted")
	}
	if _, err := New(Config{K: 10, MemoryBytes: 0, ExpectedRecords: exp}, sumCombine); err == nil {
		t.Error("MemoryBytes=0 accepted")
	}
	if _, err := New(Config{K: 10, MemoryBytes: 1 << 10}, sumCombine); err == nil {
		t.Error("missing estimator accepted")
	}
	if _, err := New(Config{K: 10, MemoryBytes: 1 << 10, ExpectedRecords: exp}, nil); err != nil {
		t.Errorf("nil combiner rejected: %v", err)
	}
}

func TestStageProgression(t *testing.T) {
	b := newBuffer(t, Config{K: 4, MemoryBytes: 1 << 16, SampleFraction: 0.1, PreProfileFraction: 0.02}, sumCombine)
	if b.Stage() != StagePreProfile {
		t.Fatalf("initial stage %v", b.Stage())
	}
	one := serde.EncodeInt64(1)
	// 10k expected records: pre-profile until 200 seen, profile until 1000.
	for i := 0; i < 199; i++ {
		if absorbed, _, _ := b.Offer(0, []byte(fmt.Sprintf("k%d", i%8)), one); absorbed {
			t.Fatal("absorbed during pre-profile")
		}
	}
	if b.Stage() != StagePreProfile {
		t.Fatalf("stage after 199: %v", b.Stage())
	}
	b.Offer(0, []byte("k0"), one)
	if b.Stage() != StageProfile {
		t.Fatalf("stage after 200: %v", b.Stage())
	}
	for i := 0; i < 800; i++ {
		b.Offer(0, []byte(fmt.Sprintf("k%d", i%8)), one)
	}
	if b.Stage() != StageOptimize {
		t.Fatalf("stage after s·n records: %v", b.Stage())
	}
	if got := len(b.TopK()); got != 4 {
		t.Fatalf("frozen top-k size %d", got)
	}
	// Frequent keys absorb; others miss.
	top := map[string]bool{}
	for _, k := range b.TopK() {
		top[k] = true
	}
	absorbed, _, err := b.Offer(1, []byte(b.TopK()[0]), one)
	if err != nil || !absorbed {
		t.Fatalf("frequent key not absorbed: %v %v", absorbed, err)
	}
	absorbed, _, err = b.Offer(1, []byte("never-seen"), one)
	if err != nil || absorbed {
		t.Fatalf("novel key absorbed")
	}
	st := b.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Profiled != 1000 {
		t.Errorf("stats %+v", st)
	}
}

// TestMultisetConservation is the core correctness property: for a counting
// workload, (records passed through) + (drain output) + (evictions) must
// reconstruct the exact per-key totals of the input stream, no matter the
// table size, sample fraction or eviction pressure.
func TestMultisetConservation(t *testing.T) {
	f := func(seed int64, kRaw, memRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		k := 1 + int(kRaw)%16
		mem := int64(512 + int(memRaw)*16)
		const n = 4000
		b, err := New(Config{
			K:               k,
			MemoryBytes:     mem,
			SampleFraction:  0.1,
			ExpectedRecords: func() int64 { return n },
			ValuesPerKeyCap: 8,
		}, sumCombine)
		if err != nil {
			return false
		}
		want := map[string]int64{}
		got := map[string]int64{}
		add := func(recs []kvio.Record) bool {
			for _, r := range recs {
				v, err := serde.DecodeInt64(r.Value)
				if err != nil {
					return false
				}
				got[string(r.Key)] += v
			}
			return true
		}
		for i := 0; i < n; i++ {
			key := []byte(fmt.Sprintf("k%d", int(float64(40)*rng.Float64()*rng.Float64())))
			want[string(key)]++
			absorbed, overflow, err := b.Offer(0, key, serde.EncodeInt64(1))
			if err != nil {
				return false
			}
			if !absorbed {
				got[string(key)]++
			}
			if !add(overflow) {
				return false
			}
		}
		drained, err := b.Drain()
		if err != nil || !add(drained) {
			return false
		}
		if len(want) != len(got) {
			return false
		}
		for k, w := range want {
			if got[k] != w {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestEvictionUnderPressure(t *testing.T) {
	// A tiny memory budget forces constant evictions; totals must still
	// conserve and the table must respect the watermark after eviction.
	b := newBuffer(t, Config{
		K: 4, MemoryBytes: 700, SampleFraction: 0.01,
		ExpectedRecords: func() int64 { return 100_000 }, ValuesPerKeyCap: 4,
	}, sumCombine)
	evictions := 0
	for i := 0; i < 50_000; i++ {
		key := []byte(fmt.Sprintf("hot%d", i%4))
		_, overflow, err := b.Offer(0, key, serde.EncodeInt64(1))
		if err != nil {
			t.Fatal(err)
		}
		evictions += len(overflow)
		if b.tableBytes > b.cfg.MemoryBytes+256 {
			t.Fatalf("table bytes %d far above budget %d", b.tableBytes, b.cfg.MemoryBytes)
		}
	}
	// With a sum combiner the aggregates stay tiny, so the table should
	// rarely (or never) evict.
	if st := b.Stats(); st.Hits == 0 {
		t.Error("no hits under pressure test")
	}
}

func TestNoCombinerBuffersAndEvicts(t *testing.T) {
	b := newBuffer(t, Config{
		K: 2, MemoryBytes: 1024, SampleFraction: 0.01,
		ExpectedRecords: func() int64 { return 100_000 }, ValuesPerKeyCap: 4,
	}, nil)
	var evicted int
	payload := make([]byte, 32)
	for i := 0; i < 10_000; i++ {
		_, overflow, err := b.Offer(0, []byte(fmt.Sprintf("h%d", i%2)), payload)
		if err != nil {
			t.Fatal(err)
		}
		evicted += len(overflow)
	}
	drained, err := b.Drain()
	if err != nil {
		t.Fatal(err)
	}
	st := b.Stats()
	if int64(evicted+len(drained)) != st.Hits {
		t.Errorf("evicted %d + drained %d != hits %d", evicted, len(drained), st.Hits)
	}
	if st.Combines != 0 {
		t.Errorf("combines %d without a combiner", st.Combines)
	}
}

func TestInstallTopKSkipsProfiling(t *testing.T) {
	b := newBuffer(t, Config{K: 3, MemoryBytes: 1 << 16}, sumCombine)
	b.InstallTopK([]string{"x", "y"}, func(k []byte) int { return 7 })
	if b.Stage() != StageOptimize {
		t.Fatalf("stage %v", b.Stage())
	}
	absorbed, _, err := b.Offer(7, []byte("x"), serde.EncodeInt64(1))
	if err != nil || !absorbed {
		t.Fatal("installed key not absorbed")
	}
	drained, err := b.Drain()
	if err != nil {
		t.Fatal(err)
	}
	if len(drained) != 1 || drained[0].Part != 7 {
		t.Fatalf("drained %+v", drained)
	}
	if !b.Stats().SharedTopK {
		t.Error("SharedTopK flag not set")
	}
}

func TestAutoTunerPicksSample(t *testing.T) {
	// With no fixed SampleFraction the §III-C rule chooses s after the
	// pre-profiling prefix, based on a fitted α.
	sampler, err := zipfest.NewSampler(500, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	const n = 50_000
	b := newBuffer(t, Config{
		K: 50, MemoryBytes: 1 << 18,
		ExpectedRecords: func() int64 { return n },
	}, sumCombine)
	for i := 0; i < n; i++ {
		key := []byte(fmt.Sprintf("w%03d", sampler.Rank(rng.Float64())))
		if _, _, err := b.Offer(0, key, serde.EncodeInt64(1)); err != nil {
			t.Fatal(err)
		}
		if b.Stage() == StageOptimize {
			break
		}
	}
	st := b.Stats()
	if st.FittedAlpha < 0.5 || st.FittedAlpha > 1.6 {
		t.Errorf("fitted alpha %g implausible for a Zipf(1) stream", st.FittedAlpha)
	}
	if st.ChosenSample <= 0 || st.ChosenSample > 0.5 {
		t.Errorf("chosen sample %g out of range", st.ChosenSample)
	}
	if b.Stage() != StageOptimize {
		t.Errorf("never reached optimize stage (s=%g)", st.ChosenSample)
	}
}

func TestDrainBeforeFreezeIsEmpty(t *testing.T) {
	b := newBuffer(t, Config{K: 4, MemoryBytes: 1 << 16, SampleFraction: 0.9}, sumCombine)
	b.Offer(0, []byte("k"), serde.EncodeInt64(1))
	drained, err := b.Drain()
	if err != nil || drained != nil {
		t.Errorf("drain before freeze: %v, %v", drained, err)
	}
}

func TestDrainSorted(t *testing.T) {
	b := newBuffer(t, Config{K: 16, MemoryBytes: 1 << 16}, sumCombine)
	keys := []string{"delta", "alpha", "omega", "beta"}
	b.InstallTopK(keys, func(k []byte) int { return int(k[0]) % 3 })
	for i := 0; i < 100; i++ {
		b.Offer(int(keys[i%4][0])%3, []byte(keys[i%4]), serde.EncodeInt64(1))
	}
	drained, err := b.Drain()
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(drained); i++ {
		a, b2 := drained[i-1], drained[i]
		if a.Part > b2.Part || (a.Part == b2.Part && string(a.Key) > string(b2.Key)) {
			t.Fatalf("drain not sorted at %d: %v then %v", i, a, b2)
		}
	}
}

func TestIncompressibleDetection(t *testing.T) {
	// A concatenating "combiner" (output as big as its inputs) must trip
	// the noCombine detector rather than being re-applied forever.
	b := newBuffer(t, Config{
		K: 1, MemoryBytes: 1 << 20, ValuesPerKeyCap: 4,
	}, concatCombine)
	b.InstallTopK([]string{"k"}, func([]byte) int { return 0 })
	for i := 0; i < 64*8; i++ {
		if _, _, err := b.Offer(0, []byte("k"), []byte("0123456789")); err != nil {
			t.Fatal(err)
		}
	}
	e, _ := b.lookup([]byte("k"))
	if e == nil {
		t.Fatal("entry missing")
	}
	if !e.noCombine {
		t.Error("concatenating combiner not detected as incompressible")
	}
}

func TestCache(t *testing.T) {
	c := NewCache()
	if _, ok := c.Get("job"); ok {
		t.Error("empty cache hit")
	}
	c.Put("job", []string{"a", "b"})
	c.Put("job", []string{"c"}) // first publication wins
	keys, ok := c.Get("job")
	if !ok || len(keys) != 2 || keys[0] != "a" {
		t.Errorf("cache get: %v %v", keys, ok)
	}
	c.Put("other", nil) // empty sets are not stored
	if _, ok := c.Get("other"); ok {
		t.Error("empty key set stored")
	}
}

func TestStageString(t *testing.T) {
	for s, want := range map[Stage]string{StagePreProfile: "pre-profile", StageProfile: "profile", StageOptimize: "optimize"} {
		if s.String() != want {
			t.Errorf("%d: %q", s, s.String())
		}
	}
	if Stage(9).String() == "" {
		t.Error("unknown stage empty")
	}
}
