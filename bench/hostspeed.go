package main

import (
	"math"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"time"
)

// The host this benchmark runs on is a few cores of a shared machine whose
// speed changes by 20-40 % in spells of seconds to minutes: wall and CPU
// seconds of a fixed job rise and fall together, every workload with the
// others, and the guest is told nothing (steal time reads 0). Over seven
// minutes of back-to-back wc_fast repetitions the median of any 15, 30 or
// 45 s window spread 16 % between windows, whatever the window's length or
// the summary taken within it, while the ratio of each repetition to a fixed
// kernel timed just before and after it spread 5 %.
//
// So every timed section lies between two readings of that kernel, and the
// time metrics are reported at reference host speed: scaled by how much
// slower than referenceGaugeSeconds the kernel ran around the section. The
// kernel belongs to the benchmark and calls nothing of the program, so a
// change to the program moves a metric by what it changes and not by the
// hour it was measured in. The unscaled medians and the slowdowns are
// printed beside the metrics (raw_*, host_slowdown, host_cpu_slowdown).
// README.md has the measurements behind this.

// referenceGaugeSeconds is what one reading takes on the reference host, the
// 2-core VM the baseline in README.md was measured on, in its fast state.
const referenceGaugeSeconds = 0.100

// gaugeRounds is how many times a reading repeats the kernel's three kinds
// of work; the smoke test lowers it.
var gaugeRounds = 4

const (
	gaugeStreamWords  = 1 << 20 // 8 MiB per goroutine: past L2, streamed
	gaugeStreamPasses = 5
	gaugeSortWords    = 100_000
	gaugeTextBytes    = 512 << 10
	gaugeTableSlots   = 1 << 18 // four slots per word of the vocabulary
)

// hostGauge times a fixed mix of the kinds of work a job does — streaming
// memory, comparison sorting, counting words in a hash table — on one
// goroutine per core, which is how a job occupies the host.
type hostGauge struct {
	lanes []gaugeLane
}

// reading is one pass of the kernel: its wall seconds and the CPU seconds it
// cost per goroutine. The two move together when the whole host is slow
// (busy neighbours, which a guest sees as slower processors, not as stolen
// time). When another process of this machine takes a core for a while the
// wall doubles and the CPU seconds stay, as a job's do.
type reading struct{ wall, cpu float64 }

// gaugeLane is one goroutine's share of the kernel. It allocates nothing
// while it works, so a reading starts no collection of its own.
type gaugeLane struct {
	stream   []uint64
	unsorted []uint64
	scratch  []uint64
	text     []byte
	// hashes and counts are an open-addressed table of the words of text,
	// keyed by their 64-bit hash; 0 marks a free slot.
	hashes []uint64
	counts []uint32
	sink   uint64
}

func newHostGauge() *hostGauge {
	g := &hostGauge{lanes: make([]gaugeLane, runtime.GOMAXPROCS(0))}
	x := uint64(88172645463325252)
	next := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	for i := range g.lanes {
		l := &g.lanes[i]
		l.stream = make([]uint64, gaugeStreamWords)
		for j := range l.stream {
			l.stream[j] = next()
		}
		l.unsorted = l.stream[:gaugeSortWords]
		l.scratch = make([]uint64, gaugeSortWords)
		l.hashes = make([]uint64, gaugeTableSlots)
		l.counts = make([]uint32, gaugeTableSlots)
		// Words drawn unevenly from a vocabulary of 64 Ki, so that the table
		// both fills and is hit.
		l.text = make([]byte, 0, gaugeTextBytes+16)
		for len(l.text) < gaugeTextBytes {
			v := next()
			l.text = strconv.AppendUint(l.text, (v&0xffff)*(v>>60&3+1)/4, 36)
			l.text = append(l.text, ' ')
		}
	}
	g.read() // touch every page before the first reading counts
	return g
}

func (l *gaugeLane) work() {
	for round := 0; round < gaugeRounds; round++ {
		var s uint64
		for pass := 0; pass < gaugeStreamPasses; pass++ {
			for _, v := range l.stream {
				s += v
			}
		}
		copy(l.scratch, l.unsorted)
		sort.Slice(l.scratch, func(i, j int) bool { return l.scratch[i] < l.scratch[j] })
		l.sink += s + l.scratch[0] + l.countWords()
	}
}

// countWords counts the words of text in the table and returns how many
// distinct ones there are.
func (l *gaugeLane) countWords() uint64 {
	clear(l.hashes)
	clear(l.counts)
	var distinct uint64
	for i := 0; ; {
		start, end := nextWord(l.text, i)
		if start == end {
			return distinct
		}
		i = end
		h := uint64(14695981039346656037) // FNV-1a
		for _, c := range l.text[start:end] {
			h = (h ^ uint64(c)) * 1099511628211
		}
		h |= 1
		slot := h >> 8 & (gaugeTableSlots - 1)
		for l.hashes[slot] != 0 && l.hashes[slot] != h {
			slot = (slot + 1) & (gaugeTableSlots - 1)
		}
		if l.hashes[slot] == 0 {
			l.hashes[slot] = h
			distinct++
		}
		l.counts[slot]++
	}
}

// read times one pass of the kernel. It first lets the collector finish with
// what the section before left behind, which would otherwise share the
// processors with the kernel.
func (g *hostGauge) read() reading {
	runtime.GC()
	c0 := cpuTime()
	t0 := time.Now()
	var wg sync.WaitGroup
	for i := range g.lanes {
		wg.Add(1)
		go func(l *gaugeLane) {
			defer wg.Done()
			l.work()
		}(&g.lanes[i])
	}
	wg.Wait()
	return reading{wall: time.Since(t0).Seconds(), cpu: (cpuTime() - c0).Seconds() / float64(len(g.lanes))}
}

// slowdown is how much slower than the reference host the host ran during a
// section bracketed by the two readings: by the clock, which is what the
// section's wall seconds are scaled by, and in CPU seconds, which is what
// its CPU seconds are scaled by.
func slowdown(before, after reading) (wall, cpu float64) {
	return (before.wall + after.wall) / 2 / referenceGaugeSeconds,
		(before.cpu + after.cpu) / 2 / referenceGaugeSeconds
}

// atReferenceSpeed scales a section's wall seconds to the reference host:
// the share of the wall the processors were busy (cpu seconds over wall
// seconds times cores) shrinks by the slowdown, the rest — waiting for the
// modelled disks and fabric, which sleep by the clock — stays. A job on the
// unthrottled cluster is busy throughout and scales whole; wc_paper_opt is
// busy for six tenths of its wall and scaling all of it would put back half
// the noise taken out.
func atReferenceSpeed(wall, cpu, slow float64) float64 {
	busy := math.Min(1, ratio(cpu, wall*float64(runtime.GOMAXPROCS(0))))
	return wall * (1 - busy*(1-1/slow))
}
