package mr

import (
	"errors"
	"fmt"
	"maps"
	"testing"
	"time"

	"mrtext/internal/chaos"
	"mrtext/internal/cluster"
	"mrtext/internal/metrics"
	"mrtext/internal/vdisk"
)

// assertStagingHolds waits for the copiers to go idle and requires staging
// to hold exactly the nonempty segments of outs' runs and the budget to
// reserve exactly their bytes: nothing of a withdrawn run is left.
func assertStagingHolds(t *testing.T, svc *shuffleService, outs ...mapOutput) {
	t.Helper()
	waitCopiersIdle(t, svc)
	want, got := map[string]int64{}, map[string]int64{}
	var wantBytes int64
	for _, out := range outs {
		for _, run := range out.runs {
			for p, seg := range run.Segments {
				if seg.Len > 0 {
					want[fmt.Sprintf("p%d/%s", p, run.Name)] = seg.Len
					wantBytes += seg.Len
				}
			}
		}
	}
	svc.mu.Lock()
	for p, staged := range svc.staged {
		for name, st := range staged {
			got[fmt.Sprintf("p%d/%s", p, name)] = int64(len(st.data))
		}
	}
	svc.mu.Unlock()
	if !maps.Equal(got, want) {
		t.Errorf("staging holds %v, want the committed segments %v", got, want)
	}
	if used := bufUsed(svc); used != wantBytes {
		t.Errorf("staging reserves %d bytes, the committed segments hold %d", used, wantBytes)
	}
}

// TestOneWaveJobStagesEarly: a job of one map task on throttled disks,
// cutting many spills, stages segments before its map phase ends: each run
// is offered as soon as it is written, not when the task commits, which in
// a one-wave job is the end of the map phase.
func TestOneWaveJobStagesEarly(t *testing.T) {
	data := wordsInput(6000, 8, 2500)
	c, err := cluster.New(cluster.Config{Nodes: 3, MapSlotsPerNode: 1, ReduceSlotsPerNode: 1,
		BlockSize: int64(len(data)), Replication: 1,
		DiskThrottle: &vdisk.ThrottleConfig{WriteBytesPerSec: 35 << 20, ReadBytesPerSec: 70 << 20, OpLatency: 4 * time.Millisecond}})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.FS.WriteFile("f", data); err != nil {
		t.Fatal(err)
	}
	want, err := RunReference(c, wordSumSpec("one-wave-ref"))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(c, wordSumSpec("one-wave"))
	if err != nil {
		t.Fatal(err)
	}
	assertReferenceOutput(t, c, res, want)
	if res.MapTasks != 1 || res.Agg.Counters[metrics.CtrSpillCount] < 4 {
		t.Fatalf("%d map tasks, %d spills: want one task of several spills", res.MapTasks, res.Agg.Counters[metrics.CtrSpillCount])
	}
	if res.ShuffleEarlySegments == 0 {
		t.Error("no segment staged before the map phase ended")
	}
}

// TestWithdrawGivesStagingBack: withdrawing offered runs gives a landed
// segment's bytes back at once and an in-flight copy's reservation when it
// lands, and a reduce attempt finds none of them staged.
func TestWithdrawGivesStagingBack(t *testing.T) {
	c := newUnitCluster(t, nil)
	outs := writeUnitMapOuts(t, c, false)
	h := newHold(func(s string) bool { return s == section(outs[0].runs[0], 0) })
	h.wrap(c)
	svc := newShuffleService(c, unitShuffleJob(1<<20))
	defer svc.close()
	for m, out := range outs {
		svc.offer(m, out)
	}
	h.awaitHeld(t)
	waitStagedSegments(t, svc, unitSegs-unitRuns*(unitParts-1))
	var names []string
	for _, out := range outs {
		names = append(names, out.files()...)
	}
	svc.withdraw(names)
	if used, held := bufUsed(svc), outsBytes(outs[:1]); used != held {
		t.Errorf("%d bytes reserved after the withdrawal, want the in-flight copy's %d", used, held)
	}
	h.release <- nil
	assertStagingHolds(t, svc)
	for _, name := range names {
		if _, ok := svc.take(0, name, 0, spanner{}); ok {
			t.Errorf("withdrawn run %s taken from staging", name)
		}
	}
}

// TestMergeFaultWithdrawsOfferedRuns: a map attempt that fails at its last
// fault point has already offered its runs; its sweep gives all of their
// staging back, and the next attempt's commit leaves staging holding its
// runs alone. A job whose attempts fail there matches the reference.
func TestMergeFaultWithdrawsOfferedRuns(t *testing.T) {
	mergeFaults := func(t *testing.T, rate float64) *chaos.Injector {
		inj, err := chaos.New(chaos.Config{Seed: 3, FailRate: rate, Sites: []chaos.Site{chaos.SiteMerge}, KillNode: -1}, 3)
		if err != nil {
			t.Fatal(err)
		}
		return inj
	}
	t.Run("attempt", func(t *testing.T) {
		c, split := oneSplit(t, wordsInput(4000, 8, 3000))
		job := acctJob(t, sumValues, 64<<10, nil)
		ft := newFTRun(c, job, []Split{split})
		ft.shuffle = newShuffleService(c, job)
		defer ft.shuffle.close()
		ft.inj = mergeFaults(t, 1)
		ft.inj.Arm()
		ph := newPhase(1, newScheduler(c.Nodes(), c.MapSlots(), ft.splits), c.MapSlots(), nil)
		if err := ft.mapAttempt(ph, pendingAttempt{task: 0, attempt: 0}, 0, 0); !errors.Is(err, chaos.ErrInjected) {
			t.Fatalf("attempt 0: %v, want the injected merge fault", err)
		}
		if bufPeak(ft.shuffle) == 0 {
			t.Fatal("the failed attempt offered no run")
		}
		assertStagingHolds(t, ft.shuffle)
		ft.inj.Disarm()
		if err := ft.mapAttempt(ph, pendingAttempt{task: 0, attempt: 1, kind: attemptRetry}, 0, 0); err != nil {
			t.Fatal(err)
		}
		assertStagingHolds(t, ft.shuffle, ft.mapOuts[0])
	})
	t.Run("job", func(t *testing.T) {
		c := buildFS(t, wordsInput(6000, 8, 2500), 64<<10)
		want, err := RunReference(c, wordSumSpec("merge-fault-ref"))
		if err != nil {
			t.Fatal(err)
		}
		spec := wordSumSpec("merge-fault")
		spec.Chaos = mergeFaults(t, 0.5)
		res, err := Run(c, spec)
		if err != nil {
			t.Fatal(err)
		}
		if res.FailedAttempts == 0 {
			t.Fatal("no attempt failed at the merge fault point")
		}
		assertReferenceOutput(t, c, res, want)
	})
}
