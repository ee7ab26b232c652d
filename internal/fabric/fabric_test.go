package fabric

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(0, Config{}); err == nil {
		t.Error("zero nodes accepted")
	}
	f, err := New(3, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if f.Nodes() != 3 {
		t.Errorf("nodes %d", f.Nodes())
	}
}

func TestTransferBounds(t *testing.T) {
	f, _ := New(2, Config{})
	for _, c := range [][2]int{{-1, 0}, {0, 2}, {5, 0}} {
		if err := f.Transfer(c[0], c[1], 100); err == nil {
			t.Errorf("transfer %d→%d accepted", c[0], c[1])
		}
	}
}

func TestLocalTransfersFree(t *testing.T) {
	f, _ := New(2, Config{BytesPerSec: 1, Latency: time.Hour}) // absurdly slow
	start := time.Now()
	if err := f.Transfer(1, 1, 1<<30); err != nil {
		t.Fatal(err)
	}
	if time.Since(start) > 100*time.Millisecond {
		t.Error("same-node transfer was throttled")
	}
	s := f.Stats()
	if s.LocalBytes != 1<<30 || s.LocalReads != 1 || s.BytesMoved != 0 {
		t.Errorf("stats %+v", s)
	}
}

func TestRemoteTransferMetered(t *testing.T) {
	f, _ := New(2, Config{BytesPerSec: 1 << 20}) // 1 MiB/s
	start := time.Now()
	if err := f.Transfer(0, 1, 128<<10); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 100*time.Millisecond {
		t.Errorf("128 KiB at 1 MiB/s finished in %v", elapsed)
	}
	s := f.Stats()
	if s.BytesMoved != 128<<10 || s.Transfers != 1 {
		t.Errorf("stats %+v", s)
	}
}

func TestUnthrottledCountsOnly(t *testing.T) {
	f, _ := New(2, Config{})
	start := time.Now()
	if err := f.Transfer(0, 1, 1<<30); err != nil {
		t.Fatal(err)
	}
	if time.Since(start) > 100*time.Millisecond {
		t.Error("unthrottled transfer slept")
	}
	if f.Stats().BytesMoved != 1<<30 {
		t.Errorf("stats %+v", f.Stats())
	}
}

func TestNICSerialization(t *testing.T) {
	// Two concurrent transfers into the same destination NIC must queue.
	f, _ := New(3, Config{BytesPerSec: 1 << 20})
	start := time.Now()
	var wg sync.WaitGroup
	for src := 0; src < 2; src++ {
		wg.Add(1)
		go func(src int) {
			defer wg.Done()
			f.Transfer(src, 2, 64<<10)
		}(src)
	}
	wg.Wait()
	// Each transfer alone: 62.5 ms; serialized: ~125 ms.
	if elapsed := time.Since(start); elapsed < 100*time.Millisecond {
		t.Errorf("concurrent transfers to one NIC completed in %v", elapsed)
	}
}

func TestContentionSerializesAndAccounts(t *testing.T) {
	// Four sources hammer one destination NIC concurrently: the transfers
	// must queue (serialized time, not parallel time) and the per-node and
	// global accounting must balance exactly despite the contention.
	const (
		sources = 4
		size    = int64(32 << 10)
	)
	f, _ := New(5, Config{BytesPerSec: 1 << 20}) // 1 MiB/s: 31.25 ms per transfer
	start := time.Now()
	var wg sync.WaitGroup
	for src := 0; src < sources; src++ {
		wg.Add(1)
		go func(src int) {
			defer wg.Done()
			if err := f.Transfer(src, 4, size); err != nil {
				t.Errorf("transfer %d→4: %v", src, err)
			}
		}(src)
	}
	wg.Wait()
	// Serialized: ~125 ms. Fully parallel would be ~31 ms.
	if elapsed := time.Since(start); elapsed < 100*time.Millisecond {
		t.Errorf("four contending transfers finished in %v, want serialized ≥100ms", elapsed)
	}
	s := f.Stats()
	if s.BytesMoved != sources*size || s.Transfers != sources {
		t.Errorf("global stats %+v, want %d bytes over %d transfers", s, sources*size, sources)
	}
	dst, err := f.NodeStats(4)
	if err != nil {
		t.Fatal(err)
	}
	if dst.BytesIn != sources*size || dst.BytesOut != 0 {
		t.Errorf("destination NIC stats %+v", dst)
	}
	for src := 0; src < sources; src++ {
		ns, err := f.NodeStats(src)
		if err != nil {
			t.Fatal(err)
		}
		if ns.BytesOut != size || ns.BytesIn != 0 {
			t.Errorf("source %d NIC stats %+v, want out=%d in=0", src, ns, size)
		}
	}
}

func TestPerNodeAccountingUnderConcurrentLoad(t *testing.T) {
	// An all-to-all burst on an unthrottled fabric: every ordered pair
	// (i≠j) moves i*nodes+j+1 bytes, many times, from many goroutines.
	// Afterwards each NIC's in/out totals must match the closed-form sums
	// and the global counter must equal the sum of either side.
	const (
		nodes  = 4
		rounds = 50
	)
	f, _ := New(nodes, Config{})
	var wg sync.WaitGroup
	for r := 0; r < rounds; r++ {
		for i := 0; i < nodes; i++ {
			for j := 0; j < nodes; j++ {
				if i == j {
					continue
				}
				wg.Add(1)
				go func(i, j int) {
					defer wg.Done()
					if err := f.Transfer(i, j, int64(i*nodes+j+1)); err != nil {
						t.Errorf("transfer %d→%d: %v", i, j, err)
					}
				}(i, j)
			}
		}
	}
	wg.Wait()
	var totalOut, totalIn int64
	for n := 0; n < nodes; n++ {
		var wantOut, wantIn int64
		for o := 0; o < nodes; o++ {
			if o == n {
				continue
			}
			wantOut += int64(rounds * (n*nodes + o + 1))
			wantIn += int64(rounds * (o*nodes + n + 1))
		}
		ns, err := f.NodeStats(n)
		if err != nil {
			t.Fatal(err)
		}
		if ns.BytesOut != wantOut || ns.BytesIn != wantIn {
			t.Errorf("node %d stats %+v, want out=%d in=%d", n, ns, wantOut, wantIn)
		}
		totalOut += ns.BytesOut
		totalIn += ns.BytesIn
	}
	s := f.Stats()
	if totalOut != s.BytesMoved || totalIn != s.BytesMoved {
		t.Errorf("NIC sums out=%d in=%d disagree with BytesMoved=%d", totalOut, totalIn, s.BytesMoved)
	}
	if s.Transfers != rounds*nodes*(nodes-1) {
		t.Errorf("transfers %d, want %d", s.Transfers, rounds*nodes*(nodes-1))
	}
}

func TestNodeStatsBounds(t *testing.T) {
	f, _ := New(2, Config{})
	for _, n := range []int{-1, 2, 7} {
		if _, err := f.NodeStats(n); err == nil {
			t.Errorf("NodeStats(%d) accepted", n)
		}
	}
}

func TestFaultHookFailsTransfersWithoutCounting(t *testing.T) {
	f, _ := New(3, Config{})
	boom := fmt.Errorf("node 1 is dead")
	f.SetFaultHook(func(src, dst int) error {
		if src == 1 || dst == 1 {
			return boom
		}
		return nil
	})
	if err := f.Transfer(0, 1, 100); !errors.Is(err, boom) {
		t.Errorf("transfer into dead node: %v", err)
	}
	if err := f.Transfer(1, 2, 100); !errors.Is(err, boom) {
		t.Errorf("transfer out of dead node: %v", err)
	}
	if err := f.Transfer(1, 1, 100); !errors.Is(err, boom) {
		t.Errorf("local transfer on dead node: %v", err)
	}
	if err := f.Transfer(0, 2, 100); err != nil {
		t.Errorf("transfer between live nodes: %v", err)
	}
	s := f.Stats()
	if s.BytesMoved != 100 || s.Transfers != 1 || s.LocalBytes != 0 {
		t.Errorf("failed transfers leaked into accounting: %+v", s)
	}
	for _, n := range []int{1} {
		ns, _ := f.NodeStats(n)
		if ns.BytesIn != 0 || ns.BytesOut != 0 {
			t.Errorf("dead node %d accrued traffic %+v", n, ns)
		}
	}
	f.SetFaultHook(nil)
	if err := f.Transfer(0, 1, 50); err != nil {
		t.Errorf("transfer after hook removal: %v", err)
	}
}

func TestFaultHookSwapUnderLoad(t *testing.T) {
	// Installing, replacing, and removing the hook while transfers are in
	// flight must be race-free (the hook is an atomic pointer); transfers
	// observe either hook state but never crash or corrupt accounting.
	f, _ := New(2, Config{})
	stop := make(chan struct{})
	swapperDone := make(chan struct{})
	go func() {
		defer close(swapperDone)
		reject := fmt.Errorf("rejected")
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			switch i % 3 {
			case 0:
				f.SetFaultHook(func(src, dst int) error { return nil })
			case 1:
				f.SetFaultHook(func(src, dst int) error { return reject })
			default:
				f.SetFaultHook(nil)
			}
		}
	}()
	var moved atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				if err := f.Transfer(0, 1, 10); err == nil {
					moved.Add(10)
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	<-swapperDone
	if got := f.Stats().BytesMoved; got != moved.Load() {
		t.Errorf("bytes moved %d, successful transfers moved %d", got, moved.Load())
	}
}

func TestOppositeDirectionNoDeadlock(t *testing.T) {
	f, _ := New(2, Config{BytesPerSec: 8 << 20, Latency: time.Millisecond})
	done := make(chan struct{})
	go func() {
		var wg sync.WaitGroup
		for i := 0; i < 50; i++ {
			wg.Add(2)
			go func() { defer wg.Done(); f.Transfer(0, 1, 4<<10) }()
			go func() { defer wg.Done(); f.Transfer(1, 0, 4<<10) }()
		}
		wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("deadlock between opposite-direction transfers")
	}
	if f.Stats().Transfers != 100 {
		t.Errorf("transfers %d", f.Stats().Transfers)
	}
}

// TestMaxInFlightWatermark pins the in-flight gauges: transfers that
// overlap in time must push the fabric-wide and per-NIC high-water marks
// past one, and a strictly serial workload must not.
func TestMaxInFlightWatermark(t *testing.T) {
	f, err := New(4, Config{Latency: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Transfer(0, 1, 1); err != nil {
		t.Fatal(err)
	}
	if got := f.Stats().MaxInFlight; got != 1 {
		t.Fatalf("serial transfer: MaxInFlight = %d, want 1", got)
	}

	// Disjoint NIC pairs so the transfers genuinely overlap instead of
	// queueing on a shared endpoint.
	var wg sync.WaitGroup
	for _, pair := range [][2]int{{0, 1}, {2, 3}} {
		wg.Add(1)
		go func(src, dst int) {
			defer wg.Done()
			if err := f.Transfer(src, dst, 1); err != nil {
				t.Error(err)
			}
		}(pair[0], pair[1])
	}
	wg.Wait()
	if got := f.Stats().MaxInFlight; got < 2 {
		t.Fatalf("overlapping transfers: fabric MaxInFlight = %d, want >= 2", got)
	}
	ns, err := f.NodeStats(0)
	if err != nil {
		t.Fatal(err)
	}
	if ns.MaxInFlight != 1 {
		t.Fatalf("node 0 MaxInFlight = %d, want 1", ns.MaxInFlight)
	}
}
