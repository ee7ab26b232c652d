package spillbuf

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"mrtext/internal/core/spillmatch"
	"mrtext/internal/core/spillmodel"
	"mrtext/internal/kvio"
	"mrtext/internal/metrics"
)

// waitFor spins until cond holds: the tests use it to wait for the other
// goroutine to reach a state the buffer publishes (the consumer parked, the
// producer blocked), never for time to pass.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		runtime.Gosched()
	}
}

// producerBlocked reports whether the producer is parked in Append.
func producerBlocked(b *Buffer) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.blockedFor > 0
}

// drain consumes and releases every spill until the buffer is drained.
func drain(b *Buffer) {
	for {
		s, ok := b.NextSpill()
		if !ok {
			return
		}
		b.Release(s, 0)
	}
}

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
// exactly once, in emit order within its partition, under arbitrary
// interleavings.
func TestAllRecordsDeliveredOnce(t *testing.T) {
	f := func(seed int64, capRaw uint8) bool {
		capacity := int64(256 + int(capRaw)*8)
		b, err := New(capacity, spillmatch.NewStatic(0.5), nil)
		if err != nil {
			return false
		}
		rng := rand.New(rand.NewSource(seed))
		const n, parts = 500, 4

		var got [parts][]int
		done := make(chan struct{})
		go func() {
			defer close(done)
			for {
				s, ok := b.NextSpill()
				if !ok {
					return
				}
				for p := range s.Recs.Parts {
					recs := s.Recs.Part(p)
					for i := 0; i < recs.Len(); i++ {
						v := recs.Value(i)
						got[p] = append(got[p], int(v[0])|int(v[1])<<8)
					}
				}
				b.Release(s, time.Microsecond)
			}
		}()
		for i := 0; i < n; i++ {
			v := []byte{byte(i), byte(i >> 8), 0}
			v = append(v, make([]byte, rng.Intn(16))...)
			if _, err := b.Append(i%parts, []byte("key"), v); err != nil {
				return false
			}
		}
		b.Close()
		<-done
		for p := range got {
			if len(got[p]) != n/parts {
				return false
			}
			for i, v := range got[p] {
				if v != p+i*parts {
					return false
				}
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
	recs := s.Recs.Part(0)
	if recs.Len() != 1 || string(recs.Key(0)) != "key" || string(recs.Value(0)) != "value" {
		t.Fatalf("buffers aliased or record misfiled: %d records under partition 0", recs.Len())
	}
	if recs.Part(0) != 0 {
		t.Errorf("partition %d", recs.Part(0))
	}
	b.Release(s, 0)
}

func TestPackedSpillContents(t *testing.T) {
	// Records arrive filed under their partitions, each partition's in emit
	// order with key and value intact, and Release returns the region to
	// the pool, grown as it is, where the next spill finds it.
	b, err := New(1<<20, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	const n, parts = 100, 7
	for i := 0; i < n; i++ {
		k := []byte(fmt.Sprintf("key%04d", i))
		v := []byte(fmt.Sprintf("value%04d", i))
		if _, err := b.Append(i%parts, k, v); err != nil {
			t.Fatal(err)
		}
	}
	b.Close()
	s, ok := b.NextSpill()
	if !ok || s.Recs.Len() != n || len(s.Recs.Parts) != parts {
		t.Fatalf("spill: ok=%v, %d records in %d partitions", ok, s.Recs.Len(), len(s.Recs.Parts))
	}
	for p := range s.Recs.Parts {
		recs := s.Recs.Part(p)
		for i := 0; i < recs.Len(); i++ {
			id := p + i*parts
			wantK, wantV := fmt.Sprintf("key%04d", id), fmt.Sprintf("value%04d", id)
			if recs.Part(i) != p || string(recs.Key(i)) != wantK || string(recs.Value(i)) != wantV {
				t.Fatalf("partition %d record %d: (%d, %q, %q), want (%d, %q, %q)", p, i, recs.Part(i), recs.Key(i), recs.Value(i), p, wantK, wantV)
			}
		}
	}
	arenaCap := cap(s.Recs.Arena)
	if free := b.pool.Free(); free != 0 {
		t.Fatalf("%d regions free while the only one filled is in flight", free)
	}
	b.Release(s, 0)
	if _, ok := b.NextSpill(); ok {
		t.Fatal("spill from a closed, drained buffer")
	}
	if free, out := b.pool.Free(), b.pool.Out(); free != 1 || out != 0 {
		t.Fatalf("drained buffer: %d regions free, %d out; want the one grown region back and none out", free, out)
	}
	if r := b.pool.get(); cap(r.Arena) != arenaCap || r.Len() != 0 || len(r.Arena) != 0 {
		t.Errorf("recycled region: arena cap %d (released %d), %d records, %d arena bytes", cap(r.Arena), arenaCap, r.Len(), len(r.Arena))
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

// spillCycler drives a buffer one spill at a time for the allocation
// gates: cycle appends a spill's worth of records, the last of which hands
// the region off to the consumer goroutine, and returns once that has run
// work on the spill, released it and parked again.
type spillCycler struct {
	t        *testing.T
	b        *Buffer
	perSpill int
	released chan int
}

func newSpillCycler(t *testing.T, work func(Spill)) *spillCycler {
	b, err := New(256<<10, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	c := &spillCycler{t: t, b: b, released: make(chan int)}
	c.perSpill = (256<<10)*8/10/int(RecordBytes([]byte("word"), []byte{2})) + 1 // just past the 0.8 threshold
	go func() {
		defer close(c.released)
		for {
			s, ok := b.NextSpill()
			if !ok {
				return
			}
			n := s.Recs.Len()
			work(s)
			b.Release(s, 0)
			c.released <- n
		}
	}()
	t.Cleanup(func() {
		b.Close()
		for range c.released {
		}
	})
	return c
}

func (c *spillCycler) cycle() {
	for !c.b.parked.Load() { // no waitFor: its closure and clock would count as allocations
		runtime.Gosched()
	}
	key, val := []byte("word"), []byte{2}
	for i := 0; i < c.perSpill; i++ {
		if _, err := c.b.Append(i%4, key, val); err != nil {
			c.t.Fatal(err)
		}
	}
	if n := <-c.released; n != c.perSpill {
		c.t.Fatalf("spill of %d records, want %d", n, c.perSpill)
	}
}

// TestGroundTruthAppend pins the //mrlint:hotpath annotation on Append to
// the real compiler: once the buffer cycles recycled regions — from the
// third spill on — appending allocates nothing; a region grows while it
// is new and never again.
func TestGroundTruthAppend(t *testing.T) {
	c := newSpillCycler(t, func(Spill) {})
	c.cycle() // first region: grown from nothing
	c.cycle() // second region: likewise
	allocs := testing.AllocsPerRun(10, c.cycle)
	if allocs != 0 && !raceEnabled {
		t.Errorf("steady-state spill cycle of %d Appends: %.2f allocs, want 0", c.perSpill, allocs)
	}
}

// TestGroundTruthSpillCycle is the same gate over what a warm map task
// does with a spill besides collecting it: hand-off, the sort of every
// partition on the support goroutine's scratch, release. With regions and
// scratch grown, a spill of ten thousand records costs no allocation at
// all — a task allocates per spill at most, never per record.
func TestGroundTruthSpillCycle(t *testing.T) {
	if debugBuild {
		t.Skip("an mrdebug build checks every sort against the reference sort, which allocates per record")
	}
	var sorter kvio.Sorter
	c := newSpillCycler(t, func(s Spill) { sorter.SortRegion(s.Recs) })
	c.cycle()
	c.cycle()
	allocs := testing.AllocsPerRun(10, c.cycle)
	if allocs != 0 && !raceEnabled {
		t.Errorf("warm collect → hand-off → sort → release cycle of %d records: %.2f allocs, want 0", c.perSpill, allocs)
	}
}

// TestHandoffAtThreshold: with the consumer parked, the producer hands the
// region off inside the first Append that brings it to x·M, and in none
// before.
func TestHandoffAtThreshold(t *testing.T) {
	b, err := New(3200, spillmatch.NewStatic(0.5), nil)
	if err != nil {
		t.Fatal(err)
	}
	sizes := make(chan int64, 4)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			s, ok := b.NextSpill()
			if !ok {
				return
			}
			sizes <- s.Bytes
			b.Release(s, 0)
		}
	}()
	waitFor(t, "the consumer to park", b.parked.Load)
	key, val := []byte("8 bytes."), []byte("8 more..") // 32 bytes charged: 50 records reach 1600
	for i := 1; i <= 50; i++ {
		if _, err := b.Append(i%3, key, val); err != nil {
			t.Fatal(err)
		}
		if got, want := b.Handoffs(), int64(i/50); got != want {
			t.Fatalf("after %d records (%d of 1600 threshold bytes): %d hand-offs, want %d", i, i*32, got, want)
		}
	}
	if got := <-sizes; got != 1600 {
		t.Errorf("spill of %d bytes, want the 1600 of the threshold", got)
	}
	b.Close()
	<-done
}

// TestHandoffBusyConsumerYieldsLargerSpill: while the consumer works on a
// spill the producer keeps its region past the threshold, and the next
// hand-off carries all of it — the (p/c)·m branch of the recurrence.
func TestHandoffBusyConsumerYieldsLargerSpill(t *testing.T) {
	b, err := New(3200, spillmatch.NewStatic(0.25), nil)
	if err != nil {
		t.Fatal(err)
	}
	sizes := make(chan int64)
	release := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			s, ok := b.NextSpill()
			if !ok {
				return
			}
			sizes <- s.Bytes
			<-release
			b.Release(s, 0)
		}
	}()
	waitFor(t, "the consumer to park", b.parked.Load)
	key, val := []byte("8 bytes."), []byte("8 more..")
	appendN := func(n int) {
		for i := 0; i < n; i++ {
			if _, err := b.Append(0, key, val); err != nil {
				t.Fatal(err)
			}
		}
	}
	appendN(25) // 800 bytes: the threshold
	if got := <-sizes; got != 800 {
		t.Fatalf("first spill %d bytes, want 800", got)
	}
	appendN(60) // 1920 more: far past the threshold, the consumer still busy
	if got := b.Handoffs(); got != 1 {
		t.Fatalf("%d hand-offs while the consumer is busy, want 1", got)
	}
	release <- struct{}{}
	waitFor(t, "the consumer to park", b.parked.Load)
	appendN(1)
	if got := <-sizes; got != 61*32 {
		t.Errorf("second spill %d bytes, want all %d that were pending", got, 61*32)
	}
	b.Close()
	release <- struct{}{}
	<-done
}

// TestSpillFloorMatchesModel runs the buffer against the paper's model of
// it: a producer that needs 1/p of virtual time per byte and a consumer
// that needs 1/c, slower. The test owns the clock: the consumer releases
// a spill when virtual time reaches the moment the model's consumer would
// be done — which, when the producer is parked on the full buffer, is the
// moment it wakes up. Every spill but the last must reach x·M, and the
// sizes must be the ones spillmodel.Simulate derives for the same M, x, p
// and c, to within two records. The parent's NextSpill took whatever was
// pending whenever the producer was parked, and emitted the M − x·M
// remainders the model has no room for.
func TestSpillFloorMatchesModel(t *testing.T) {
	const (
		capacity = 32 * 400 // M: 400 records
		record   = 32       // bytes charged per record
		records  = 3000
	)
	for _, tc := range []struct {
		name string
		x    float64
		p, c float64 // bytes per virtual second
	}{
		{"x=0.8 consumer 4x slower", 0.8, 4, 1},
		{"x=0.5 consumer 2x slower", 0.5, 2, 1},
		{"x=0.25 consumer far slower", 0.25, 64, 1},
		{"x=0.125 consumer 2x slower: spills double until the buffer binds", 0.125, 2, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			clk := &testClock{}
			b, err := New(capacity, spillmatch.NewStatic(tc.x), metrics.NewTaskMetricsClock(clk.now))
			if err != nil {
				t.Fatal(err)
			}
			taken := make(chan int64, 1)
			release := make(chan struct{})
			done := make(chan struct{})
			go func() {
				defer close(done)
				for {
					s, ok := b.NextSpill()
					if !ok {
						return
					}
					taken <- s.Bytes
					<-release
					b.Release(s, 0)
				}
			}()

			var (
				got     []float64
				vt      float64 // virtual time, seconds
				busy    bool    // the consumer holds a spill…
				due     float64 // …until this moment
				handoff int64
			)
			// noteHandoff starts the model's consumer on a spill handed off
			// at virtual time vt.
			noteHandoff := func() {
				if h := b.Handoffs(); h != handoff {
					handoff = h
					size := <-taken
					got = append(got, float64(size))
					busy, due = true, vt+float64(size)/tc.c
				}
			}
			finish := func() {
				busy = false
				release <- struct{}{}
			}
			waitFor(t, "the consumer to park", b.parked.Load)
			key, val := []byte("8 bytes."), []byte("8 more..")
			for i := 0; i < records; i++ {
				vt += record / tc.p
				if busy && vt >= due {
					finish()
					waitFor(t, "the consumer to park", b.parked.Load)
				}
				parks := busy && b.full(record)
				if parks {
					// The producer is about to park for real. The consumer
					// finishes when it has, and time jumps to that moment.
					go func() {
						for !producerBlocked(b) {
							runtime.Gosched()
						}
						finish()
					}()
					vt = due
				}
				clk.ns.Store(int64(vt * 1e9))
				if _, err := b.Append(i%4, key, val); err != nil {
					t.Fatal(err)
				}
				if parks {
					// Released, the consumer either cut the region while the
					// producer was still parked or found it gone and parked.
					waitFor(t, "the consumer to settle", func() bool { return b.Handoffs() != handoff || b.parked.Load() })
				}
				noteHandoff()
			}
			b.Close()
			for sum(got) < records*record { // what was pending at the end of input
				if busy {
					finish()
				}
				got = append(got, float64(<-taken))
				busy = true
			}
			if busy {
				finish()
			}
			<-done

			model, err := spillmodel.Simulate(spillmodel.Params{
				BufferBytes: capacity, InputBytes: records * record, ProduceRate: tc.p, ConsumeRate: tc.c,
			}, spillmatch.NewStatic(tc.x))
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(model.Spills) {
				t.Fatalf("%d spills %v, the model has %d %v", len(got), got, len(model.Spills), model.Spills)
			}
			for i, size := range got {
				if i < len(got)-1 && size < tc.x*capacity {
					t.Errorf("spill %d of %d is %v bytes, below the floor x·M = %v", i, len(got), size, tc.x*capacity)
				}
				// The model hands off at an instant; the buffer at the first
				// Append that finds the consumer parked, which may follow
				// the Append the producer was parked in.
				if d := size - model.Spills[i]; d < -2*record || d > 2*record {
					t.Errorf("spill %d is %v bytes, the model's %v: more than two records apart", i, size, model.Spills[i])
				}
			}
		})
	}
}

func sum(xs []float64) (s float64) {
	for _, x := range xs {
		s += x
	}
	return s
}

// TestSpillFloorOversizeEscape: the floor yields where holding it would
// deadlock. A region below x·M leaves when the record the producer waits
// to append cannot fit beside it, and a record larger than the whole
// buffer still passes through an empty one.
func TestSpillFloorOversizeEscape(t *testing.T) {
	b, err := New(1000, spillmatch.NewStatic(0.8), nil)
	if err != nil {
		t.Fatal(err)
	}
	var sizes []int64
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			s, ok := b.NextSpill()
			if !ok {
				return
			}
			sizes = append(sizes, s.Bytes)
			b.Release(s, 0)
		}
	}()
	for _, valueLen := range []int{383, 683, 4983, 83} { // charges 400, 700, 5000, 100
		if _, err := b.Append(0, []byte("k"), make([]byte, valueLen)); err != nil {
			t.Fatal(err)
		}
	}
	b.Close()
	<-done
	// 400 is below the floor of 800 but 700 does not fit beside it; 700 is
	// below it but nothing fits beside 5000; 5000 is over it on arrival.
	want := []int64{400, 700, 5000, 100}
	if fmt.Sprint(sizes) != fmt.Sprint(want) {
		t.Errorf("spills %v, want %v", sizes, want)
	}
}

// TestAbortUnparksProducer: a consumer that gives up while the producer is
// parked on the full buffer gets it out of Append with ErrClosed, and every
// region is back in the pool once the producer has closed.
func TestAbortUnparksProducer(t *testing.T) {
	b, err := New(1000, spillmatch.NewStatic(0.5), nil)
	if err != nil {
		t.Fatal(err)
	}
	pool := NewPool(RegionsPerBuffer)
	b.AttachPool(pool)
	appendErr := make(chan error)
	go func() {
		defer b.Close()
		for {
			if _, err := b.Append(0, []byte("k"), make([]byte, 83)); err != nil {
				appendErr <- err
				return
			}
		}
	}()
	s, ok := b.NextSpill()
	if !ok {
		t.Fatal("no spill")
	}
	waitFor(t, "the producer to block", func() bool { return producerBlocked(b) })
	b.Release(s, 0)
	b.Abort()
	select {
	case err := <-appendErr:
		if err != ErrClosed {
			t.Errorf("Append after Abort: %v, want ErrClosed", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("producer still parked after Abort")
	}
	waitFor(t, "the producer's region to come back", func() bool { return pool.Out() == 0 })
}

// TestAppendTakesNoLock: below the threshold Append completes while
// another goroutine holds the buffer's mutex.
func TestAppendTakesNoLock(t *testing.T) {
	b, err := New(1<<20, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	b.mu.Lock()
	done := make(chan error)
	go func() {
		var err error
		for i := 0; i < 1000 && err == nil; i++ {
			_, err = b.Append(i%4, []byte("word"), []byte{2})
		}
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Error(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Append waits for the mutex on its fast path")
	}
	b.mu.Unlock()
}

// TestHandoffStress: one producer and one consumer over a 4 KiB buffer and
// a hundred thousand records of random size, under the adaptive
// controller so the threshold moves as they go. Every record arrives once,
// in emit order within its partition. CI runs it -race -count=20.
func TestHandoffStress(t *testing.T) {
	const parts = 5
	n := 100000
	if testing.Short() {
		n = 20000
	}
	b, err := New(4<<10, spillmatch.NewMatcher(spillmatch.DefaultConfig()), nil)
	if err != nil {
		t.Fatal(err)
	}
	var next [parts]uint32 // per partition: the serial number expected next
	total := 0
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			s, ok := b.NextSpill()
			if !ok {
				return
			}
			for p := range s.Recs.Parts {
				recs := s.Recs.Part(p)
				for i := 0; i < recs.Len(); i++ {
					v := recs.Value(i)
					serial := uint32(v[0]) | uint32(v[1])<<8 | uint32(v[2])<<16
					if serial != next[p] || len(recs.Key(i)) != int(v[3]) {
						t.Errorf("partition %d: record %d with a %d-byte key, want record %d with a %d-byte key", p, serial, len(recs.Key(i)), next[p], v[3])
						next[p] = serial
					}
					next[p]++
					total++
				}
			}
			b.Release(s, time.Duration(s.Bytes))
		}
	}()
	rng := rand.New(rand.NewSource(1))
	var sent [parts]uint32
	key := make([]byte, 64)
	for i := 0; i < n; i++ {
		p := rng.Intn(parts)
		k := key[:1+rng.Intn(len(key)-1)]
		v := append([]byte{byte(sent[p]), byte(sent[p] >> 8), byte(sent[p] >> 16), byte(len(k))}, make([]byte, rng.Intn(200))...)
		sent[p]++
		if _, err := b.Append(p, k, v); err != nil {
			t.Fatal(err)
		}
	}
	b.Close()
	<-done
	if total != n {
		t.Errorf("%d records delivered, %d appended", total, n)
	}
	if st := b.Stats(); st.Spills < n/100 {
		t.Errorf("%d spills for %d records through a 4 KiB buffer", st.Spills, n)
	}
}

// TestPoolBound: the pool keeps at most its bound of regions, hands the
// kept ones out again, and knows how many are out.
func TestPoolBound(t *testing.T) {
	p := NewPool(2)
	var regions []kvio.Region
	for i := 0; i < 5; i++ {
		r := p.get()
		r.Append(0, []byte("key"), []byte("value"))
		regions = append(regions, r)
	}
	if out := p.Out(); out != 5 {
		t.Fatalf("%d regions out, want 5", out)
	}
	for _, r := range regions {
		p.put(r)
	}
	if free, out := p.Free(), p.Out(); free != 2 || out != 0 {
		t.Fatalf("%d free, %d out; want 2 and 0", free, out)
	}
	if r := p.get(); cap(r.Arena) == 0 || r.Len() != 0 {
		t.Errorf("recycled region has arena cap %d and %d records", cap(r.Arena), r.Len())
	}
}

// TestPoolTrim: the cut leaves one region per buffer served since the last
// one, at most half the bound, and waits while a buffer is still attached.
func TestPoolTrim(t *testing.T) {
	p := NewPool(8)
	// serve has n buffers come and go, leaving the pool as full as its
	// bound allows.
	serve := func(n int) {
		var regions []kvio.Region
		for i := 0; i < n; i++ {
			regions = append(regions, p.attach())
		}
		for len(regions) < 10 {
			regions = append(regions, p.get())
		}
		for i, r := range regions {
			r.Append(0, []byte("key"), []byte("value"))
			p.put(r)
			if i < n {
				p.detach()
			}
		}
		if free, out := p.Free(), p.Out(); free != 8 || out != 0 {
			t.Fatalf("%d regions free and %d out, want the bound of 8 and none", free, out)
		}
	}
	for _, tc := range []struct{ buffers, kept int }{{3, 3}, {1, 1}, {7, 4}, {0, 0}} {
		serve(tc.buffers)
		p.Trim()
		if free := p.Free(); free != tc.kept {
			t.Errorf("%d regions kept after %d buffers, want %d", free, tc.buffers, tc.kept)
		}
	}
	serve(2)
	r := p.attach()
	p.Trim()
	if free := p.Free(); free != 7 {
		t.Errorf("%d regions free beside the one in use: the pool was cut while a buffer is attached", free)
	}
	p.put(r)
	p.detach()
	p.Trim()
	if free := p.Free(); free != 3 {
		t.Errorf("%d regions kept after three buffers, want 3", free)
	}
}

// TestPoolHoldsRegionsForStarts: what Trim leaves is for buffers to start
// on. A buffer already running gets a fresh region for its second while
// the kept ones wait for the buffers that have not attached yet.
func TestPoolHoldsRegionsForStarts(t *testing.T) {
	p := NewPool(8)
	var regions []kvio.Region
	for i := 0; i < 3; i++ {
		r := p.attach()
		r.Append(0, []byte("key"), []byte("value"))
		regions = append(regions, r)
	}
	for _, r := range regions {
		p.put(r)
		p.detach()
	}
	p.Trim() // three buffers served: three regions kept, all held
	first := p.attach()
	if second := p.get(); cap(first.Arena) == 0 || cap(second.Arena) != 0 {
		t.Errorf("first buffer: started on a region of arena cap %d and got a second of cap %d; want a kept one, then a fresh one", cap(first.Arena), cap(second.Arena))
	}
	if a, b := p.attach(), p.attach(); cap(a.Arena) == 0 || cap(b.Arena) == 0 {
		t.Error("the regions kept for the second and third buffer were gone when they attached")
	}
	if c := p.attach(); cap(c.Arena) != 0 {
		t.Error("a fourth buffer started on a kept region: three were kept")
	}
}
