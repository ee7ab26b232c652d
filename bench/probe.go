package main

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"mrtext"
)

// sampleMask makes the per-record wrappers time one call in 64 and scale
// the sum by calls over timed calls; counts are taken on every call.
const sampleMask = 63

// Lanes of a run's spans: one per map task from 0, one per reduce task from
// laneReduce, and one each for combine calls and the job itself.
const (
	laneReduce  = 1000
	laneCombine = 2000
	laneJob     = 3000
)

// clockCost is what an empty timed interval reads: the cost of one clock
// read. An interval is shortened by it, and by two of them for every timed
// interval nested inside it; for a 300 ns Collect the correction is a fifth.
var clockCost = func() time.Duration {
	l := newSpanLog()
	best := time.Hour
	for round := 0; round < 8; round++ {
		const n = 4096
		var sum time.Duration
		for i := 0; i < n; i++ {
			t0 := l.now()
			sum += l.now() - t0
		}
		if d := sum / n; d < best {
			best = d
		}
	}
	return best
}()

// elapsed is the length of a timed interval that had nested timed intervals
// inside it, corrected for the clock reads.
func elapsed(start, end time.Duration, nested int) time.Duration {
	d := end - start - clockCost*time.Duration(1+2*nested)
	if d < 0 {
		return 0
	}
	return d
}

// probe observes one job run from outside by standing between the runtime
// and the job's user code: it replaces Job.NewMapper, Job.Combine and
// Job.NewReducer with wrappers that count every call, time a sample of
// them, and record the sampled calls as spans under the run's job span.
type probe struct {
	log       *spanLog
	run       int32
	jobSpan   int32
	blockSize int64

	mu       sync.Mutex
	mappers  []*mapProbe
	reducers []*reduceProbe
	combines []time.Duration // sampled Combine calls

	combineCalls atomic.Int64
}

func newProbe(log *spanLog, blockSize int64) *probe {
	p := &probe{log: log, run: log.newRun(), blockSize: blockSize}
	now := log.now()
	p.jobSpan = log.add("job", p.run, laneJob, 0, now, now)
	return p
}

// wrap installs the probe on job.
func (p *probe) wrap(job *mrtext.Job) {
	newMapper, newReducer, combine := job.NewMapper, job.NewReducer, job.Combine
	job.NewMapper = func() mrtext.Mapper {
		m := &mapProbe{p: p, inner: newMapper(), created: p.log.now(), task: -1}
		m.col.log = p.log
		p.mu.Lock()
		m.lane = int32(len(p.mappers))
		p.mappers = append(p.mappers, m)
		p.mu.Unlock()
		m.taskSpan = p.log.add("map_task", p.run, m.lane, p.jobSpan, m.created, m.created)
		return m
	}
	job.NewReducer = func() mrtext.Reducer {
		r := &reduceProbe{p: p, inner: newReducer(), created: p.log.now()}
		r.col.log = p.log
		p.mu.Lock()
		r.lane = int32(laneReduce + len(p.reducers))
		p.reducers = append(p.reducers, r)
		p.mu.Unlock()
		r.taskSpan = p.log.add("reduce_task", p.run, r.lane, p.jobSpan, r.created, r.created)
		return r
	}
	if combine != nil {
		// Combine runs on support goroutines, in the final merge and inside
		// the frequency buffer, concurrently across tasks.
		job.Combine = func(key []byte, values [][]byte, emit func(k, v []byte) error) error {
			if p.combineCalls.Add(1)&sampleMask != 0 {
				return combine(key, values, emit)
			}
			t0 := p.log.now()
			err := combine(key, values, emit)
			t1 := p.log.now()
			p.log.add("combine", p.run, laneCombine, p.jobSpan, t0, t1)
			p.mu.Lock()
			p.combines = append(p.combines, elapsed(t0, t1, 0))
			p.mu.Unlock()
			return err
		}
	}
}

// close gives the run's enclosing spans their bounds once the job is over.
func (p *probe) close(start, end time.Duration) {
	p.log.setBounds(p.jobSpan, start, end)
	for _, m := range p.mappers {
		if m.last > 0 {
			p.log.setBounds(m.taskSpan, m.created, m.last)
		}
	}
	for _, r := range p.reducers {
		if r.last > 0 {
			p.log.setBounds(r.taskSpan, r.created, r.last)
		}
	}
}

// interval is one timed call nested in a sampled call.
type interval struct{ start, end time.Duration }

// mapProbe wraps one map task's Mapper. The runtime calls it from that
// task's map goroutine only, so its fields need no lock; the harness reads
// them after Run has returned.
type mapProbe struct {
	p        *probe
	inner    mrtext.Mapper
	lane     int32
	taskSpan int32
	created  time.Duration
	last     time.Duration // return of the last sampled Map call
	task     int           // split index, from the first line's offset

	lines int64
	self  []time.Duration // sampled Map calls minus the Collect calls inside them
	col   collectProbe
}

// collectProbe wraps the Collector the runtime hands to Map: everything the
// runtime does per emitted record (partition, frequency buffer, spill
// buffer append including blocking) happens inside its Collect.
type collectProbe struct {
	log *spanLog
	out mrtext.Collector

	records, bytes int64
	timed          bool
	samples        []time.Duration // Collect calls of sampled lines
	line           []interval      // Collect calls of the current sampled line
}

func (m *mapProbe) Map(off int64, line []byte, out mrtext.Collector) error {
	c := &m.col
	c.out = out
	m.lines++
	if (m.lines-1)&sampleMask != 0 {
		return m.inner.Map(off, line, c)
	}
	if m.task < 0 {
		m.task = int(off / m.p.blockSize)
	}
	log := m.p.log
	c.timed, c.line = true, c.line[:0]
	t0 := log.now()
	err := m.inner.Map(off, line, c)
	t1 := log.now()
	c.timed = false
	m.last = t1
	self := elapsed(t0, t1, len(c.line))
	id := log.add("map", m.p.run, m.lane, m.taskSpan, t0, t1)
	for _, iv := range c.line {
		d := elapsed(iv.start, iv.end, 0)
		c.samples = append(c.samples, d)
		self -= d
		log.add("collect", m.p.run, m.lane, id, iv.start, iv.end)
	}
	if self < 0 {
		self = 0
	}
	m.self = append(m.self, self)
	return err
}

func (c *collectProbe) Collect(key, value []byte) error {
	c.records++
	c.bytes += int64(len(key) + len(value))
	if !c.timed {
		return c.out.Collect(key, value)
	}
	t0 := c.log.now()
	err := c.out.Collect(key, value)
	c.line = append(c.line, interval{t0, c.log.now()})
	return err
}

// reduceProbe wraps one reduce task's Reducer; like mapProbe it is used by
// one goroutine.
type reduceProbe struct {
	p        *probe
	inner    mrtext.Reducer
	lane     int32
	taskSpan int32
	created  time.Duration
	last     time.Duration

	groups int64
	self   []time.Duration // sampled Reduce calls minus value pulls and output
	col    outputProbe
}

// nestedCalls accumulates the timed calls nested in sampled calls.
type nestedCalls struct {
	log *spanLog
	n   int
	ns  time.Duration
}

func (t *nestedCalls) add(t0 time.Duration) {
	t.n++
	t.ns += elapsed(t0, t.log.now(), 0)
}

// outputProbe wraps the Collector handed to Reduce: formatting and the DFS
// write happen inside its Collect.
type outputProbe struct {
	out   mrtext.Collector
	timed bool
	nestedCalls
}

func (c *outputProbe) Collect(key, value []byte) error {
	if !c.timed {
		return c.out.Collect(key, value)
	}
	t0 := c.log.now()
	err := c.out.Collect(key, value)
	c.add(t0)
	return err
}

// timedValues wraps the ValueIter of a sampled group, so that the time the
// runtime spends merging inside Next is not charged to the user's reduce().
type timedValues struct {
	inner mrtext.ValueIter
	nestedCalls
}

func (v *timedValues) Next() ([]byte, bool, error) {
	t0 := v.log.now()
	val, ok, err := v.inner.Next()
	v.add(t0)
	return val, ok, err
}

func (r *reduceProbe) Reduce(key []byte, values mrtext.ValueIter, out mrtext.Collector) error {
	c := &r.col
	c.out = out
	r.groups++
	if (r.groups-1)&sampleMask != 0 {
		return r.inner.Reduce(key, values, c)
	}
	log := r.p.log
	pulls := &timedValues{inner: values, nestedCalls: nestedCalls{log: log}}
	c.timed = true
	before := c.nestedCalls
	t0 := log.now()
	err := r.inner.Reduce(key, pulls, c)
	t1 := log.now()
	c.timed = false
	r.last = t1
	output := c.ns - before.ns
	self := elapsed(t0, t1, pulls.n+c.n-before.n) - pulls.ns - output
	if self < 0 {
		self = 0
	}
	r.self = append(r.self, self)
	id := log.add("reduce", r.p.run, r.lane, r.taskSpan, t0, t1)
	if output > 0 {
		// The trace file shows one group's output as one interval at the
		// end of its reduce span; where in the span it fell is not kept.
		log.add("output", r.p.run, r.lane, id, t1-output, t1)
	}
	return err
}

// robustSum estimates the total time of calls calls from a sample of them.
// The tasks of a job time-share the host's cores, so a sampled interval of
// a microsecond now and then contains a descheduling of many milliseconds;
// such intervals (over a hundred times the median) are set aside before
// the mean is taken, or a handful of them would decide the estimate. A
// Collect blocked on a full spill buffer is set aside with them: that wait
// is collect.map_idle_frac, not the cost of emitting.
func robustSum(samples []time.Duration, calls int64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), samples...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	limit := 100 * (s[len(s)/2] + clockCost)
	var sum time.Duration
	n := 0
	for _, d := range s {
		if d > limit {
			break
		}
		sum += d
		n++
	}
	return sum.Seconds() / float64(n) * float64(calls)
}

// metrics folds the probe's observations of a finished run into the W
// metrics. res supplies the task reports the map tails are measured
// against.
func (p *probe) metrics(res *mrtext.Result, m map[string]float64) {
	var lines, records, bytes int64
	var mapS, emitS float64
	mapSpan := map[int]time.Duration{} // task -> NewMapper .. last sampled Map return
	for _, mp := range p.mappers {
		lines += mp.lines
		records += mp.col.records
		bytes += mp.col.bytes
		mapS += robustSum(mp.self, mp.lines)
		emitS += robustSum(mp.col.samples, mp.col.records)
		if mp.task >= 0 {
			mapSpan[mp.task] = mp.last - mp.created
		}
	}
	m["apps.map_s"] = mapS
	m["apps.map_ns_per_line"] = ratio(mapS*1e9, float64(lines))
	m["apps.map_out_records"] = float64(records)
	m["apps.map_out_bytes"] = float64(bytes)
	m["collect.emit_s"] = emitS
	m["collect.emit_ns_per_record"] = ratio(emitS*1e9, float64(records))

	m["apps.combine_calls"] = float64(p.combineCalls.Load())
	m["apps.combine_s"] = robustSum(p.combines, p.combineCalls.Load())

	var groups int64
	var reduceS, outputS float64
	for _, rp := range p.reducers {
		groups += rp.groups
		reduceS += robustSum(rp.self, rp.groups)
		// Output keeps its long intervals: one Collect in thousands flushes
		// the writer and waits for the modeled disk, and that wait is the
		// cost being measured.
		outputS += ratio(rp.col.ns.Seconds()*float64(rp.groups), float64(len(rp.self)))
	}
	m["apps.reduce_groups"] = float64(groups)
	m["apps.reduce_s"] = reduceS
	m["reduce.output_s"] = outputS

	// Map tail: what a map task still does after its last map() call
	// returned — flushing the buffers and the final merge of its spill runs.
	var tails []float64
	for _, t := range res.Tasks {
		if span, ok := mapSpan[t.Index]; ok && t.Kind == "map" {
			tails = append(tails, float64(t.Wall-span)/1e6)
		}
	}
	m["runner.map_tail_ms_p50"] = median(tails)
}
