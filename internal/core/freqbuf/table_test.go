package freqbuf

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"mrtext/internal/kvio"
	"mrtext/internal/serde"
)

// TestGroundTruthOffer pins the //mrlint:hotpath annotations on Offer and
// lookup to the real compiler: once a key's arenas have grown through a
// full combine cycle, absorbing its values — the pending-batch and chunk
// combines they trigger included — and passing over an infrequent key
// allocate nothing, as long as the combiner emits from a buffer it reuses.
func TestGroundTruthOffer(t *testing.T) {
	var scratch []byte
	sum := func(key []byte, values [][]byte, emit func(k, v []byte) error) error {
		var total int64
		for _, v := range values {
			n, err := serde.DecodeInt64(v)
			if err != nil {
				return err
			}
			total += n
		}
		scratch = serde.AppendInt64(scratch[:0], total)
		return emit(key, scratch)
	}
	const perCycle = 4
	b := newBuffer(t, Config{K: 2, MemoryBytes: 1 << 20, ValuesPerKeyCap: perCycle}, sum)
	b.InstallTopK([]string{"hot", "warm"}, func([]byte) int { return 0 })
	hot, cold, one := []byte("hot"), []byte("cold"), serde.EncodeInt64(1)
	cycle := func() {
		for i := 0; i < perCycle; i++ {
			if absorbed, _, err := b.Offer(0, hot, one); err != nil || !absorbed {
				t.Fatalf("hot key: absorbed %v, err %v", absorbed, err)
			}
		}
		if absorbed, _, err := b.Offer(0, cold, one); err != nil || absorbed {
			t.Fatalf("cold key: absorbed %v, err %v", absorbed, err)
		}
	}
	for i := 0; i < 2*chunkCap; i++ { // two chunk combines: every arena at its working size
		cycle()
	}
	combines := b.Stats().Combines
	allocs := testing.AllocsPerRun(2*chunkCap, cycle)
	if allocs != 0 && !raceEnabled {
		t.Errorf("warm cycle of %d hits and a miss: %.2f allocs, want 0", perCycle, allocs)
	}
	if n := b.Stats().Combines - combines; n < 2*chunkCap+2 {
		t.Errorf("%d combines in the measured runs: the cycle missed the pending or chunk combine", n)
	}
}

// parentVictims is the eviction rule as the map-backed table applied it,
// kept as the reference the flat table must match: every entry sorted by
// footprint descending, then key ascending, and walked until the table is
// back under the watermark or the walk meets an entry that holds nothing.
func parentVictims(b *Buffer) map[string]bool {
	es := make([]*entry, len(b.entries))
	for i := range b.entries {
		es[i] = &b.entries[i]
	}
	sort.Slice(es, func(i, j int) bool {
		if es[i].bytes != es[j].bytes {
			return es[i].bytes > es[j].bytes
		}
		return string(es[i].key) < string(es[j].key)
	})
	target := int64(evictWatermark * float64(b.cfg.MemoryBytes))
	table := b.tableBytes
	victims := make(map[string]bool)
	for _, e := range es {
		if table <= target {
			break
		}
		empty := int64(len(e.key)) + entryOverhead
		if e.bytes == empty {
			break
		}
		victims[string(e.key)] = true
		table -= e.bytes - empty
	}
	return victims
}

// TestEvictionVictims: on random tables — keys of 1 to 40 bytes, some never
// offered a value, with and without a combiner — eviction flushes exactly
// the entries parentVictims picks, leaves every other entry as it was, and
// charges the table what is left. Long empty keys sort ahead of short
// loaded ones, so some walks stop short of the watermark; the test
// requires that it saw such walks.
func TestEvictionVictims(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	stoppedShort := 0
	for round := 0; round < 300; round++ {
		n := 1 + rng.Intn(40)
		seen := make(map[string]bool)
		var keys []string
		for len(keys) < n {
			k := strings.Repeat(string(rune('a'+rng.Intn(4))), 1+rng.Intn(40)) + fmt.Sprint(rng.Intn(3))
			if !seen[k] {
				seen[k] = true
				keys = append(keys, k)
			}
		}
		combine := kvio.CombineFunc(concatCombine)
		if round%2 == 0 {
			combine = nil
		}
		b := newBuffer(t, Config{K: n, MemoryBytes: 1 << 30, ValuesPerKeyCap: 1 + rng.Intn(6)}, combine)
		b.InstallTopK(keys, func(k []byte) int { return len(k) % 3 })
		for i := rng.Intn(20 * n); i > 0; i-- {
			k := []byte(keys[rng.Intn(1+rng.Intn(n))]) // low indices more often; some keys never
			if _, _, err := b.Offer(len(k)%3, k, bytes.Repeat([]byte{'v'}, rng.Intn(30))); err != nil {
				t.Fatal(err)
			}
		}
		b.cfg.MemoryBytes = 1 + rng.Int63n(b.tableBytes)
		want := parentVictims(b)
		before := make(map[string]int64, n)
		for i := range b.entries {
			before[string(b.entries[i].key)] = b.entries[i].bytes
		}
		out, err := b.evictToWatermark()
		if err != nil {
			t.Fatal(err)
		}
		got := make(map[string]bool)
		for _, r := range out {
			got[string(r.Key)] = true
		}
		if len(got) != len(want) {
			t.Fatalf("round %d: evicted %d keys, the parent's rule %d", round, len(got), len(want))
		}
		var table int64
		loaded := false
		for i := range b.entries {
			e := &b.entries[i]
			k := string(e.key)
			if got[k] != want[k] {
				t.Fatalf("round %d: key %q evicted %v, the parent's rule says %v", round, k, got[k], want[k])
			}
			if want[k] && !e.empty() || !want[k] && e.bytes != before[k] {
				t.Fatalf("round %d: key %q charged %d after eviction (before %d, victim %v)", round, k, e.bytes, before[k], want[k])
			}
			table += e.bytes
			loaded = loaded || !e.empty()
		}
		if table != b.tableBytes {
			t.Fatalf("round %d: table charged %d, its entries %d", round, b.tableBytes, table)
		}
		if loaded && b.tableBytes > int64(evictWatermark*float64(b.cfg.MemoryBytes)) {
			stoppedShort++
		}
	}
	if stoppedShort == 0 {
		t.Error("no eviction stopped at an empty entry: the random tables missed the case")
	}
}

// fuzzKeys is FuzzOffer's vocabulary: lengths from 1 to 46 bytes, so that
// empty entries with long keys sort ahead of loaded ones with short keys.
var fuzzKeys = func() [][]byte {
	keys := make([][]byte, 24)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("%c%s", 'a'+i, strings.Repeat("x", (i*13)%46)))
	}
	return keys
}()

func fuzzPart(key []byte) int { return len(key) % 3 }

// checkTable asserts the budget invariants after an Offer: every entry is
// charged its key, its values and the fixed overheads, the table is charged
// the sum, and a table over budget holds values only in entries that sort
// after an empty one — where the eviction walk stops.
func checkTable(t *testing.T, b *Buffer) {
	t.Helper()
	var sum int64
	var stop *entry
	for i := range b.entries {
		e := &b.entries[i]
		if want := int64(len(e.key)) + entryOverhead + e.pending.charge() + e.chunks.charge(); e.bytes != want {
			t.Fatalf("entry %q charged %d, its contents %d", e.key, e.bytes, want)
		}
		sum += e.bytes
		if e.empty() && (stop == nil || evictionOrder(e, stop) < 0) {
			stop = e
		}
	}
	if sum != b.tableBytes {
		t.Fatalf("table charged %d, its entries %d", b.tableBytes, sum)
	}
	if b.tableBytes <= b.cfg.MemoryBytes {
		return
	}
	for i := range b.entries {
		if e := &b.entries[i]; !e.empty() && (stop == nil || evictionOrder(e, stop) < 0) {
			t.Fatalf("table at %d of %d bytes, yet entry %q (%d bytes) holds values ahead of every empty entry", b.tableBytes, b.cfg.MemoryBytes, e.key, e.bytes)
		}
	}
}

// checkSorted asserts recs are in (partition, key) order and carry their
// keys' partitions.
func checkSorted(t *testing.T, what string, recs []kvio.Record) {
	t.Helper()
	for i, r := range recs {
		if r.Part != fuzzPart(r.Key) {
			t.Fatalf("%s record %q in partition %d, want %d", what, r.Key, r.Part, fuzzPart(r.Key))
		}
		if i > 0 {
			p := recs[i-1]
			if p.Part > r.Part || p.Part == r.Part && bytes.Compare(p.Key, r.Key) > 0 {
				t.Fatalf("%s not sorted: (%d, %q) before (%d, %q)", what, p.Part, p.Key, r.Part, r.Key)
			}
		}
	}
}

// FuzzOffer drives a buffer with a record stream decoded from arbitrary
// bytes — K, MemoryBytes, ValuesPerKeyCap, the combiner (none, summing,
// concatenating) and whether the top-k is profiled or installed come from
// the first bytes, then one (key, value) record per byte pair — and checks
// it against a map oracle of what each key absorbed: every absorbed value
// comes back through the overflow or Drain (the same values without a
// combiner, the same concatenation or sum with one), overflow and Drain
// are sorted by (partition, key), the counters agree, and the budget
// invariants of checkTable hold after every Offer. The value buffer is
// reused from record to record, and returned records are kept as they
// came, uncopied, so a buffer that kept the caller's bytes or wrote over
// a returned record would fail the comparison too.
func FuzzOffer(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for _, mode := range []byte{0, 1, 2, 3, 4, 5} {
		seed := []byte{byte(rng.Intn(16)), byte(rng.Intn(256)), byte(rng.Intn(8)), mode}
		for i := 0; i < 200; i++ {
			seed = append(seed, byte(int(float64(len(fuzzKeys))*rng.Float64()*rng.Float64())), byte(rng.Intn(256)))
		}
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		k, memory, perKey, mode := 1+int(data[0])%16, 64+8*int64(data[1]), 1+int(data[2])%8, data[3]
		recs := data[4:]
		n := int64(len(recs) / 2)
		var combine kvio.CombineFunc
		switch mode % 3 {
		case 1:
			combine = sumCombine
		case 2:
			combine = concatCombine
		}
		b, err := New(Config{
			K: k, MemoryBytes: memory, ValuesPerKeyCap: perKey, SampleFraction: 0.1,
			ExpectedRecords: func() int64 { return n },
		}, combine)
		if err != nil {
			t.Fatal(err)
		}
		if mode/3%2 == 1 {
			top := make([]string, k)
			for i := range top {
				top[i] = string(fuzzKeys[i])
			}
			b.InstallTopK(top, fuzzPart)
		}
		absorbedVals := make(map[string][][]byte)
		returned := make(map[string][][]byte)
		var hits, misses, evicted, peak int64
		var value []byte // reused from record to record, as a map task's collector may
		for i := 0; i+1 < len(recs); i += 2 {
			key := fuzzKeys[int(recs[i])%len(fuzzKeys)]
			if mode%3 == 1 {
				value = serde.AppendInt64(value[:0], int64(recs[i+1]))
			} else {
				value = append(value[:0], bytes.Repeat([]byte{recs[i+1]}, int(recs[i+1])%8)...)
			}
			optimizing := b.Stage() == StageOptimize
			absorbed, overflow, err := b.Offer(fuzzPart(key), key, value)
			if err != nil {
				t.Fatal(err)
			}
			if optimizing {
				if e, _ := b.lookup(key); (e != nil) != absorbed {
					t.Fatalf("key %q absorbed %v, in the table %v", key, absorbed, e != nil)
				}
			} else if absorbed {
				t.Fatalf("key %q absorbed in stage %v", key, b.Stage())
			}
			if absorbed {
				hits++
				absorbedVals[string(key)] = append(absorbedVals[string(key)], bytes.Clone(value))
			} else if optimizing {
				misses++
			}
			checkSorted(t, "overflow", overflow)
			for _, r := range overflow {
				returned[string(r.Key)] = append(returned[string(r.Key)], r.Value)
			}
			evicted += int64(len(overflow))
			checkTable(t, b)
			peak = max(peak, b.tableBytes)
		}
		st := b.Stats()
		drained, err := b.Drain()
		if err != nil {
			t.Fatal(err)
		}
		checkSorted(t, "drain", drained)
		for _, r := range drained {
			returned[string(r.Key)] = append(returned[string(r.Key)], r.Value)
		}
		if st.Hits != hits || st.Misses != misses || st.Evictions != evicted {
			t.Fatalf("stats hits %d misses %d evictions %d, counted %d %d %d", st.Hits, st.Misses, st.Evictions, hits, misses, evicted)
		}
		if st.TableBytes < peak {
			t.Fatalf("peak table bytes %d, below the %d seen after an Offer", st.TableBytes, peak)
		}
		if after := b.Stats(); after.TableBytes != st.TableBytes || after.FrozenTableLen != st.FrozenTableLen {
			t.Fatalf("Drain changed the reported table: %d bytes, %d keys before; %d, %d after",
				st.TableBytes, st.FrozenTableLen, after.TableBytes, after.FrozenTableLen)
		}
		for key, in := range absorbedVals {
			out := returned[key]
			switch mode % 3 {
			case 0:
				if len(out) != len(in) {
					t.Fatalf("key %q: %d values absorbed, %d returned", key, len(in), len(out))
				}
				for i := range in {
					if !bytes.Equal(in[i], out[i]) {
						t.Fatalf("key %q value %d: absorbed %q, returned %q", key, i, in[i], out[i])
					}
				}
			case 1:
				var want, got int64
				for _, v := range in {
					n, _ := serde.DecodeInt64(v)
					want += n
				}
				for _, v := range out {
					n, err := serde.DecodeInt64(v)
					if err != nil {
						t.Fatalf("key %q: returned value %q: %v", key, v, err)
					}
					got += n
				}
				if got != want {
					t.Fatalf("key %q: absorbed total %d, returned %d", key, want, got)
				}
			case 2:
				if want, got := bytes.Join(in, nil), bytes.Join(out, nil); !bytes.Equal(want, got) {
					t.Fatalf("key %q: absorbed %q, returned %q", key, want, got)
				}
			}
		}
		for key := range returned {
			if _, ok := absorbedVals[key]; !ok {
				t.Fatalf("key %q returned, never absorbed", key)
			}
		}
	})
}
