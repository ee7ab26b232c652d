package main

import (
	"time"

	"mrtext"
	"mrtext/internal/fabric"
	"mrtext/internal/metrics"
	"mrtext/internal/vdisk"
)

// ioStats is the cluster's cumulative disk and fabric accounting; the
// traced run's share is the difference of two snapshots.
type ioStats struct {
	disk vdisk.Stats
	net  fabric.Stats
}

func (e *env) ioStats() ioStats {
	var s ioStats
	for _, d := range e.c.Disks {
		ds := d.Stats()
		s.disk.BytesWritten += ds.BytesWritten
		s.disk.BytesRead += ds.BytesRead
	}
	s.net = e.c.Net.Stats()
	return s
}

// resultMetrics copies the R metrics unchanged off the public Result of the
// traced run, its task reports and the cluster's I/O accounting.
func resultMetrics(e *env, res *mrtext.Result, before, after ioStats, m map[string]float64) {
	in := float64(e.inputBytes)
	ctr := res.Agg.Counters
	ops := res.Agg.Ops

	m["vdisk.bytes_written_per_input_byte"] = float64(after.disk.BytesWritten-before.disk.BytesWritten) / in
	m["vdisk.bytes_read_per_input_byte"] = float64(after.disk.BytesRead-before.disk.BytesRead) / in
	m["fabric.bytes_per_input_byte"] = float64(after.net.BytesMoved-before.net.BytesMoved) / in
	m["fabric.transfers"] = float64(after.net.Transfers - before.net.Transfers)
	m["fabric.max_in_flight"] = float64(after.net.MaxInFlight) // high-water mark since cluster start

	m["collect.map_idle_frac"] = res.MapIdleFraction()
	m["collect.support_idle_frac"] = res.SupportIdleFraction()

	fs := res.FreqStats()
	m["freqbuf.hit_ratio"] = ratio(float64(fs.Hits), float64(fs.Hits+fs.Misses))
	m["freqbuf.evictions"] = float64(fs.Evictions)
	m["freqbuf.profile_s"] = ops[metrics.OpProfile].Seconds()

	ss := res.SpillStats()
	m["spillbuf.spills"] = float64(ss.Spills)
	m["spillbuf.spill_bytes_per_input_byte"] = float64(ss.SpillBytes) / in

	m["kvio.sort_s"] = ops[metrics.OpSort].Seconds()
	m["kvio.spill_io_s"] = ops[metrics.OpSpillIO].Seconds()
	m["kvio.merge_s"] = ops[metrics.OpMerge].Seconds()

	m["shuffle.s"] = ops[metrics.OpShuffle].Seconds()
	m["shuffle.bytes_per_input_byte"] = float64(ctr[metrics.CtrShuffleBytes]) / in
	m["shuffle.early_segment_frac"] = ratio(float64(res.ShuffleEarlySegments), float64(ctr[metrics.CtrShuffleStagedSegments]))
	m["shuffle.batch_factor"] = ratio(float64(res.ShuffleBatchSegments), float64(res.ShuffleBatchFetches))
	staged := float64(ctr[metrics.CtrShuffleStagedBytes])
	m["shuffle.wire_saved_frac"] = ratio(float64(res.ShuffleWireSavedBytes), staged+float64(res.ShuffleWireSavedBytes))
	m["shuffle.gov_throttles"] = float64(res.ShuffleGovThrottles)
	m["shuffle.staged_spills"] = float64(res.ShuffleStagedSpills)
	m["shuffle.fetch_retries"] = float64(res.ShuffleFetchRetries)

	var mapWalls []float64
	var mapWall, reduceWall, queueWait time.Duration
	var maxShuffle, sumShuffle float64
	for _, t := range res.Tasks {
		if t.Kind == "map" {
			mapWalls = append(mapWalls, t.Wall.Seconds())
			mapWall += t.Wall
			continue
		}
		reduceWall += t.Wall
		queueWait += t.QueueWait
		sb := float64(t.ShuffleBytes)
		sumShuffle += sb
		if sb > maxShuffle {
			maxShuffle = sb
		}
	}
	m["shuffle.partition_skew"] = ratio(maxShuffle*float64(res.ReduceTasks), sumShuffle)

	m["reduce.phase_s"] = res.ReduceWall.Seconds()
	m["reduce.queue_wait_s"] = queueWait.Seconds()

	m["runner.map_phase_s"] = res.MapWall.Seconds()
	m["runner.map_tasks"] = float64(res.MapTasks)
	m["runner.stolen_frac"] = ratio(float64(res.StolenMapTasks), float64(res.MapTasks))
	m["runner.map_task_wall_p50_s"] = median(mapWalls)
	_, m["runner.map_task_wall_max_s"] = minMax(mapWalls)
	m["runner.map_slot_util"] = ratio(mapWall.Seconds(), res.MapWall.Seconds()*float64(e.c.TotalMapSlots()))
	m["runner.reduce_slot_util"] = ratio(reduceWall.Seconds(), res.ReduceWall.Seconds()*float64(e.c.TotalReduceSlots()))
	m["runner.post_phase_s"] = (res.Wall - res.MapWall - res.ReduceWall).Seconds()
	m["runner.failed_attempts"] = float64(res.FailedAttempts)
	m["runner.retries"] = float64(res.TaskRetries)
}
