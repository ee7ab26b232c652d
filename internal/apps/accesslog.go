package apps

import (
	"bytes"
	"fmt"
	"sort"

	"mrtext/internal/fastparse"
	"mrtext/internal/mr"
	"mrtext/internal/serde"
)

// UserVisits schema (textgen):
//
//	sourceIP|destURL|visitDate|adRevenueCents|userAgent|countryCode|duration
//
// Rankings schema:
//
//	pageURL|pageRank|avgDuration
const (
	visitFields   = 7
	rankingFields = 3
)

// ---------- AccessLogSum ----------
// SELECT destURL, sum(adRevenue) FROM UserVisits GROUP BY destURL;

type accessLogSumMapper struct {
	fields [][]byte // '|'-split scratch, reused across lines
	val    []byte   // encoded-value scratch
}

// Map implements the AccessLogSum map(): (destURL, adRevenueCents) per
// visit. The revenue field is parsed in place with fastparse.ParseInt —
// the strconv.ParseInt(string(f[3]), ...) it replaced allocated a string
// per record — and the varint value is encoded into reused scratch.
func (m *accessLogSumMapper) Map(_ int64, line []byte, out mr.Collector) error {
	if len(line) == 0 {
		return nil
	}
	m.fields = fastparse.SplitByte(m.fields[:0], line, '|')
	f := m.fields
	if len(f) != visitFields {
		return fmt.Errorf("apps: malformed UserVisits line (%d fields)", len(f))
	}
	cents, err := fastparse.ParseInt(f[3])
	if err != nil {
		return fmt.Errorf("apps: parsing adRevenue: %w", err)
	}
	m.val = serde.AppendInt64(m.val[:0], cents)
	return out.Collect(f[1], m.val)
}

// AccessLogSum aggregates ad revenue per destination URL — the paper's
// relational GROUP BY benchmark.
func AccessLogSum(visits string) *mr.Job {
	return &mr.Job{
		Name:       "accesslogsum",
		Inputs:     []string{visits},
		NewMapper:  func() mr.Mapper { return &accessLogSumMapper{} },
		NewReducer: func() mr.Reducer { return &sumReducer{} },
		Combine:    mr.SumInt64,
		Format:     textKVFormat,
	}
}

// ---------- AccessLogJoin ----------
// SELECT sourceIP, adRevenue, pageRank FROM UserVisits UV, Rankings R
// WHERE UV.destURL = R.pageURL;

// Join values are tagged: 'R' + pageRank for ranking tuples,
// 'V' + sourceIP + '|' + adRevenueCents for visit tuples. There is no
// combiner — join tuples cannot be aggregated — which is exactly why the
// paper sees only marginal frequency-buffering gains here.
type accessLogJoinMapper struct {
	fields  [][]byte // '|'-split scratch, reused across lines
	scratch []byte
}

// Map implements the AccessLogJoin map(): tagged tuples keyed by URL.
func (m *accessLogJoinMapper) Map(_ int64, line []byte, out mr.Collector) error {
	if len(line) == 0 {
		return nil
	}
	m.fields = fastparse.SplitByte(m.fields[:0], line, '|')
	f := m.fields
	switch len(f) {
	case visitFields:
		m.scratch = append(m.scratch[:0], 'V')
		m.scratch = append(m.scratch, f[0]...)
		m.scratch = append(m.scratch, '|')
		m.scratch = append(m.scratch, f[3]...)
		return out.Collect(f[1], m.scratch)
	case rankingFields:
		m.scratch = append(m.scratch[:0], 'R')
		m.scratch = append(m.scratch, f[1]...)
		return out.Collect(f[0], m.scratch)
	default:
		return fmt.Errorf("apps: malformed join input line (%d fields)", len(f))
	}
}

type accessLogJoinReducer struct{}

func (accessLogJoinReducer) Reduce(key []byte, values mr.ValueIter, out mr.Collector) error {
	var rank []byte
	var visits [][]byte
	for {
		v, ok, err := values.Next()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		switch {
		case len(v) > 0 && v[0] == 'R':
			rank = append(rank[:0], v[1:]...)
		case len(v) > 0 && v[0] == 'V':
			visits = append(visits, append([]byte(nil), v[1:]...))
		default:
			return fmt.Errorf("apps: untagged join value for %q", key)
		}
	}
	if rank == nil || len(visits) == 0 {
		return nil // URL on one side only: inner join drops it
	}
	// Sort matched tuples so output is deterministic regardless of the
	// order values arrived in (frequency-buffering reorders values).
	sort.Slice(visits, func(i, j int) bool { return bytes.Compare(visits[i], visits[j]) < 0 })
	var line []byte
	for _, v := range visits {
		idx := bytes.LastIndexByte(v, '|')
		if idx < 0 {
			return fmt.Errorf("apps: malformed visit tuple for %q", key)
		}
		line = line[:0]
		line = append(line, v[:idx]...) // sourceIP
		line = append(line, '\t')
		line = append(line, v[idx+1:]...) // adRevenue
		line = append(line, '\t')
		line = append(line, rank...) // pageRank
		if err := out.Collect(line, nil); err != nil {
			return err
		}
	}
	return nil
}

// joinFormat emits the already-formatted key as one line.
func joinFormat(dst, key, _ []byte) ([]byte, error) {
	dst = append(dst, key...)
	return append(dst, '\n'), nil
}

// AccessLogJoin joins the visit log with the rankings table on URL — the
// paper's relational join benchmark. It has no combiner.
func AccessLogJoin(visits, rankings string) *mr.Job {
	return &mr.Job{
		Name:       "accesslogjoin",
		Inputs:     []string{visits, rankings},
		NewMapper:  func() mr.Mapper { return &accessLogJoinMapper{} },
		NewReducer: func() mr.Reducer { return accessLogJoinReducer{} },
		Format:     joinFormat,
	}
}
