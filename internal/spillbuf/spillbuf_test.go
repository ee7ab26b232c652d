package spillbuf

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"mrtext/internal/core/spillmatch"
	"mrtext/internal/metrics"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(0, nil, nil); err == nil {
		t.Error("zero capacity accepted")
	}
	b, err := New(1<<10, nil, nil) // nil controller defaults to static 0.8
	if err != nil {
		t.Fatal(err)
	}
	if b.Capacity() != 1<<10 {
		t.Errorf("capacity %d", b.Capacity())
	}
}

// TestAllRecordsDeliveredOnce: everything appended arrives at the consumer
// exactly once, in order, under arbitrary interleavings.
func TestAllRecordsDeliveredOnce(t *testing.T) {
	f := func(seed int64, capRaw uint8) bool {
		capacity := int64(256 + int(capRaw)*8)
		b, err := New(capacity, spillmatch.NewStatic(0.5), nil)
		if err != nil {
			return false
		}
		rng := rand.New(rand.NewSource(seed))
		const n = 500

		var got []int
		done := make(chan struct{})
		go func() {
			defer close(done)
			for {
				s, ok := b.NextSpill()
				if !ok {
					return
				}
				for i := 0; i < s.Recs.Len(); i++ {
					v := s.Recs.Value(i)
					got = append(got, int(v[0])|int(v[1])<<8)
				}
				b.Release(s, time.Microsecond)
			}
		}()
		for i := 0; i < n; i++ {
			v := []byte{byte(i), byte(i >> 8), 0}
			v = append(v, make([]byte, rng.Intn(16))...)
			if _, err := b.Append(i%4, []byte("key"), v); err != nil {
				return false
			}
		}
		b.Close()
		<-done
		if len(got) != n {
			return false
		}
		for i, v := range got {
			if v != i {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestRecordsAreCopied(t *testing.T) {
	b, err := New(1<<20, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	key := []byte("key")
	val := []byte("value")
	if _, err := b.Append(0, key, val); err != nil {
		t.Fatal(err)
	}
	key[0] = 'X'
	val[0] = 'X'
	b.Close()
	s, ok := b.NextSpill()
	if !ok {
		t.Fatal("no spill")
	}
	if string(s.Recs.Key(0)) != "key" || string(s.Recs.Value(0)) != "value" {
		t.Errorf("buffers aliased: %q %q", s.Recs.Key(0), s.Recs.Value(0))
	}
	if s.Recs.Part(0) != 0 {
		t.Errorf("partition %d", s.Recs.Part(0))
	}
	b.Release(s, 0)
}

func TestPackedSpillContents(t *testing.T) {
	// Records arrive packed in emit order with partition, key and value
	// intact, and Release recycles the batch's arena for later spills —
	// until the buffer is closed and drained, when it lets the arenas go.
	// 100 records charge 3200 bytes: past the 0.8 threshold of 3600, so
	// the spill is there to take while the buffer is still open.
	b, err := New(3600, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	const n = 100
	for i := 0; i < n; i++ {
		k := []byte(fmt.Sprintf("key%04d", i))
		v := []byte(fmt.Sprintf("value%04d", i))
		if _, err := b.Append(i%7, k, v); err != nil {
			t.Fatal(err)
		}
	}
	s, ok := b.NextSpill()
	if !ok || s.Recs.Len() != n {
		t.Fatalf("spill: ok=%v len=%d", ok, s.Recs.Len())
	}
	for i := 0; i < n; i++ {
		wantK := fmt.Sprintf("key%04d", i)
		wantV := fmt.Sprintf("value%04d", i)
		if s.Recs.Part(i) != i%7 || string(s.Recs.Key(i)) != wantK || string(s.Recs.Value(i)) != wantV {
			t.Fatalf("record %d: (%d, %q, %q)", i, s.Recs.Part(i), s.Recs.Key(i), s.Recs.Value(i))
		}
	}
	arenaCap := cap(s.Recs.Arena)
	b.Release(s, 0)
	b.mu.Lock()
	recycled := len(b.free) == 1 && cap(b.free[0].Arena) == arenaCap && len(b.free[0].Arena) == 0
	b.mu.Unlock()
	if !recycled {
		t.Error("released batch not recycled into the free pool")
	}
	b.Close()
	if _, ok := b.NextSpill(); ok {
		t.Fatal("spill from a closed, empty buffer")
	}
	b.mu.Lock()
	kept := len(b.free) + cap(b.pending.Arena) + cap(b.pending.Meta)
	b.mu.Unlock()
	if kept != 0 {
		t.Error("closed and drained buffer still holds its arenas")
	}
}

func TestCapacityBound(t *testing.T) {
	if _, err := New(MaxCapacity+1, nil, nil); err == nil {
		t.Error("capacity beyond the arena-offset bound accepted")
	}
	if _, err := New(MaxCapacity, nil, nil); err != nil {
		t.Errorf("max capacity rejected: %v", err)
	}
}

func TestAppendAfterClose(t *testing.T) {
	b, err := New(1<<10, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	b.Close()
	if _, err := b.Append(0, []byte("k"), []byte("v")); err != ErrClosed {
		t.Errorf("append after close: %v", err)
	}
	if _, ok := b.NextSpill(); ok {
		t.Error("spill from empty closed buffer")
	}
}

func TestSpillTriggeredAtThreshold(t *testing.T) {
	// Static x=0.5 over a 1 KiB buffer: the consumer must receive a spill
	// once ~512 bytes accumulate, well before input ends.
	b, err := New(1<<10, spillmatch.NewStatic(0.5), nil)
	if err != nil {
		t.Fatal(err)
	}
	firstSpill := make(chan Spill, 1)
	go func() {
		s, ok := b.NextSpill()
		if ok {
			firstSpill <- s
			b.Release(s, 0)
		}
		for {
			s, ok := b.NextSpill()
			if !ok {
				return
			}
			b.Release(s, 0)
		}
	}()
	rec := make([]byte, 60)
	for i := 0; i < 100; i++ {
		if _, err := b.Append(0, []byte("k"), rec); err != nil {
			t.Fatal(err)
		}
	}
	b.Close()
	select {
	case s := <-firstSpill:
		if s.Bytes < 512-100 || s.Bytes > 1<<10 {
			t.Errorf("first spill %d bytes, threshold 512", s.Bytes)
		}
		if s.Seq != 0 {
			t.Errorf("first spill seq %d", s.Seq)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no spill delivered")
	}
}

func TestProducerBlocksWhenFull(t *testing.T) {
	tm := metrics.NewTaskMetrics()
	b, err := New(512, spillmatch.NewStatic(0.5), tm)
	if err != nil {
		t.Fatal(err)
	}
	// Slow consumer: holds each spill for a while.
	go func() {
		for {
			s, ok := b.NextSpill()
			if !ok {
				return
			}
			time.Sleep(20 * time.Millisecond)
			b.Release(s, 20*time.Millisecond)
		}
	}()
	rec := make([]byte, 40)
	for i := 0; i < 50; i++ {
		if _, err := b.Append(0, []byte("k"), rec); err != nil {
			t.Fatal(err)
		}
	}
	b.Close()
	if tm.WaitMap() == 0 {
		t.Error("producer never blocked despite a slow consumer and a tiny buffer")
	}
}

func TestConsumerWaitAccounted(t *testing.T) {
	tm := metrics.NewTaskMetrics()
	b, err := New(1<<20, spillmatch.NewStatic(0.9), tm)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			s, ok := b.NextSpill()
			if !ok {
				return
			}
			b.Release(s, 0)
		}
	}()
	time.Sleep(20 * time.Millisecond) // consumer idles: nothing to take
	b.Append(0, []byte("k"), []byte("v"))
	b.Close()
	<-done
	if tm.WaitSupport() < 10*time.Millisecond {
		t.Errorf("support wait %v not accounted", tm.WaitSupport())
	}
}

func TestControllerReceivesMeasurements(t *testing.T) {
	m := spillmatch.NewMatcher(spillmatch.DefaultConfig())
	b, err := New(1<<10, m, nil)
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for i := 0; i < 64; i++ {
			if _, err := b.Append(0, []byte("k"), make([]byte, 50)); err != nil {
				return
			}
		}
		b.Close()
	}()
	for {
		s, ok := b.NextSpill()
		if !ok {
			break
		}
		b.Release(s, time.Millisecond)
	}
	if m.Spills() == 0 {
		t.Error("controller saw no measurements")
	}
}

func TestOversizeRecordAccepted(t *testing.T) {
	// A single record larger than the whole buffer must still pass (when
	// the buffer is otherwise empty), not deadlock.
	b, err := New(64, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			s, ok := b.NextSpill()
			if !ok {
				return
			}
			b.Release(s, 0)
		}
	}()
	if _, err := b.Append(0, []byte("k"), make([]byte, 1000)); err != nil {
		t.Fatal(err)
	}
	b.Close()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("oversize record deadlocked")
	}
}

func TestStats(t *testing.T) {
	b, err := New(1<<20, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		b.Append(0, []byte("key"), []byte("value"))
	}
	b.Close()
	var consumed int64
	for {
		s, ok := b.NextSpill()
		if !ok {
			break
		}
		consumed += s.Bytes
		b.Release(s, 0)
	}
	st := b.Stats()
	want := 10 * RecordBytes([]byte("key"), []byte("value"))
	if st.SpillBytes != want || consumed != want {
		t.Errorf("spill bytes %d / consumed %d, want %d", st.SpillBytes, consumed, want)
	}
	if st.Spills == 0 || st.MaxPending == 0 {
		t.Errorf("stats %+v", st)
	}
}

// testClock is an injected task clock: it moves only when a test advances
// it, and it counts its readings. Producer and consumer read it from two
// goroutines.
type testClock struct {
	ns    atomic.Int64
	reads atomic.Int64
}

func (c *testClock) now() time.Time {
	c.reads.Add(1)
	return time.Unix(0, c.ns.Load())
}

func (c *testClock) advance(d time.Duration) { c.ns.Add(int64(d)) }

func TestProduceTimeExcludesWaits(t *testing.T) {
	// The per-spill produce measurement must not include time the producer
	// spent blocked: feed fast, block hard, and check T_p stays well under
	// wall time.
	b, err := New(512, spillmatch.NewStatic(0.5), nil)
	if err != nil {
		t.Fatal(err)
	}
	var produceTotal time.Duration
	var mu sync.Mutex
	go func() {
		for {
			s, ok := b.NextSpill()
			if !ok {
				return
			}
			mu.Lock()
			produceTotal += s.Produce
			mu.Unlock()
			time.Sleep(10 * time.Millisecond) // force producer blocking
			b.Release(s, 10*time.Millisecond)
		}
	}()
	start := time.Now()
	for i := 0; i < 60; i++ {
		if _, err := b.Append(0, []byte("k"), make([]byte, 40)); err != nil {
			t.Fatal(err)
		}
	}
	b.Close()
	wall := time.Since(start)
	mu.Lock()
	defer mu.Unlock()
	if produceTotal > wall/2 {
		t.Errorf("produce time %v vs wall %v: waits leaked into T_p", produceTotal, wall)
	}
}

func TestProduceTimeCoversTheProducer(t *testing.T) {
	// The converse: with a slow producer and an instant consumer nothing
	// is excluded, so the spills' produce times add up to the producer's
	// whole wall — every stretch between two hand-offs belongs to exactly
	// one spill. The clock is the test's: the producer spends 1 ms of it
	// per record, and any wait for the consumer takes none of it.
	clk := &testClock{}
	b, err := New(512, spillmatch.NewStatic(0.5), metrics.NewTaskMetricsClock(clk.now))
	if err != nil {
		t.Fatal(err)
	}
	var produceTotal time.Duration
	spills := 0
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			s, ok := b.NextSpill()
			if !ok {
				return
			}
			produceTotal += s.Produce
			spills++
			b.Release(s, 0)
		}
	}()
	const records = 60
	for i := 0; i < records; i++ {
		clk.advance(time.Millisecond) // map() + emit work
		if _, err := b.Append(0, []byte("k"), make([]byte, 40)); err != nil {
			t.Fatal(err)
		}
	}
	b.Close()
	<-done
	if spills < 2 {
		t.Fatalf("%d spills, want the wall cut into several", spills)
	}
	if wall := records * time.Millisecond; produceTotal != wall {
		t.Errorf("spills' produce times add up to %v, producer's wall is %v", produceTotal, wall)
	}
}

func TestAppendReadsNoClockUnlessItBlocks(t *testing.T) {
	clk := &testClock{}
	b, err := New(1<<20, nil, metrics.NewTaskMetricsClock(clk.now))
	if err != nil {
		t.Fatal(err)
	}
	before := clk.reads.Load()
	key, val := []byte("word"), []byte{2}
	for i := 0; i < 10000; i++ { // 210 000 of 1 Mi bytes: never full
		if _, err := b.Append(i%4, key, val); err != nil {
			t.Fatal(err)
		}
	}
	if got := clk.reads.Load() - before; got != 0 {
		t.Errorf("10000 unblocked Appends read the clock %d times", got)
	}
	b.Close()
	s, ok := b.NextSpill()
	if !ok || s.Recs.Len() != 10000 {
		t.Fatalf("final spill: ok=%v len=%d", ok, s.Recs.Len())
	}
	// Creation, Close: the whole life of this buffer took two readings.
	if got := clk.reads.Load(); got != 2 {
		t.Errorf("buffer read the clock %d times in all, want 2", got)
	}
}

// TestGroundTruthAppend pins the //mrlint:hotpath annotation on Append to
// the real compiler: once the buffer cycles recycled regions — from the
// third spill on — appending allocates nothing; a region is sized by
// reservePending when it is new and never regrown by the Appends that
// fill it.
func TestGroundTruthAppend(t *testing.T) {
	b, err := New(256<<10, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	key, val := []byte("word"), []byte{2}
	perSpill := (256<<10)*8/10/int(RecordBytes(key, val)) + 1 // just past the 0.8 threshold
	cycle := func() {
		for i := 0; i < perSpill; i++ {
			if _, err := b.Append(i%4, key, val); err != nil {
				t.Fatal(err)
			}
		}
		s, ok := b.NextSpill()
		if !ok || s.Recs.Len() != perSpill {
			t.Fatalf("spill: ok=%v len=%d want %d", ok, s.Recs.Len(), perSpill)
		}
		b.Release(s, 0)
	}
	cycle() // first region: seeded, then sized from the budget
	cycle() // second region: sized from the first
	allocs := testing.AllocsPerRun(10, cycle)
	if allocs != 0 && !raceEnabled {
		t.Errorf("steady-state spill cycle of %d Appends: %.2f allocs, want 0", perSpill, allocs)
	}
}

func TestManyProducersSingleConsumer(t *testing.T) {
	// The buffer tolerates multiple producers (not the paper's shape, but
	// the support for it must not corrupt accounting).
	b, err := New(4<<10, spillmatch.NewStatic(0.5), nil)
	if err != nil {
		t.Fatal(err)
	}
	var delivered int
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			s, ok := b.NextSpill()
			if !ok {
				return
			}
			delivered += s.Recs.Len()
			b.Release(s, 0)
		}
	}()
	var wg sync.WaitGroup
	const producers, per = 4, 100
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if _, err := b.Append(0, []byte(fmt.Sprintf("p%d", p)), []byte("v")); err != nil {
					t.Error(err)
					return
				}
			}
		}(p)
	}
	wg.Wait()
	b.Close()
	<-done
	if delivered != producers*per {
		t.Errorf("delivered %d records, want %d", delivered, producers*per)
	}
}
