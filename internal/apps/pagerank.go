package apps

import (
	"bytes"
	"fmt"
	"strconv"

	"mrtext/internal/fastparse"
	"mrtext/internal/mr"
	"mrtext/internal/serde"
)

// PageRank input (textgen.WebGraph): one page per line,
//
//	url<TAB>rank<TAB>out1,out2,...
//
// map() re-emits the graph structure under the page's own key and fans a
// rank contribution out to every linked page — the §II-B description. The
// combiner sums contributions (and forwards the unique graph record); the
// reducer applies one damped PageRank update and writes the page back in
// input format, ready to be the next iteration's input.

const pageRankDamping = 0.85

// rankScale converts ranks to integer "rank units". All rank arithmetic is
// done on integral values (carried exactly in float64, far below 2^53), so
// sums are associative and every configuration — combined, frequency-
// buffered or reference — produces bit-identical output.
const rankScale = 1 << 40

type pageRankMapper struct {
	links   [][]byte // parsed-outlink scratch, reused across lines
	scratch []byte   // graph-record encode scratch
	contrib []byte   // contribution-record encode scratch
}

// Map implements the PageRank map(): the graph record plus one rank
// contribution per outlink, all encoded into reused scratch — the links
// are subslices of the input line, never copied to strings (the
// strconv.ParseFloat(string(...)) rank parse and the []byte(t) key
// conversion each allocated per record before the fast path).
func (m *pageRankMapper) Map(_ int64, line []byte, out mr.Collector) error {
	if len(line) == 0 {
		return nil
	}
	url, rank, outlinks, err := parseGraphLine(m.links[:0], line)
	m.links = outlinks
	if err != nil {
		return err
	}
	// Reconstruct the graph: (URL, (0, outlinks)).
	m.scratch = serde.AppendRankRecord(m.scratch[:0], 0, true, outlinks)
	if err := out.Collect(url, m.scratch); err != nil {
		return err
	}
	// Fan out contributions: (T, rank/|outlinks|) for each T.
	if len(outlinks) == 0 {
		return nil
	}
	units := int64(rank*rankScale + 0.5)
	share := units / int64(len(outlinks))
	m.contrib = serde.AppendRankRecord(m.contrib[:0], float64(share), false, nil)
	for _, t := range outlinks {
		if err := out.Collect(t, m.contrib); err != nil {
			return err
		}
	}
	return nil
}

// parseGraphLine splits "url<TAB>rank<TAB>out1,out2,..." in place: url and
// the outlinks alias line, the outlink headers are appended to dst, and
// the rank is parsed with fastparse.ParseFloat (bit-identical to strconv
// on the generator's format, without the string conversion).
func parseGraphLine(dst [][]byte, line []byte) (url []byte, rank float64, outlinks [][]byte, err error) {
	tab1 := bytes.IndexByte(line, '\t')
	if tab1 < 0 {
		return nil, 0, dst, fmt.Errorf("apps: malformed graph line (no rank field)")
	}
	rest := line[tab1+1:]
	tab2 := bytes.IndexByte(rest, '\t')
	if tab2 < 0 {
		return nil, 0, dst, fmt.Errorf("apps: malformed graph line (no links field)")
	}
	rank, err = fastparse.ParseFloat(rest[:tab2])
	if err != nil {
		return nil, 0, dst, fmt.Errorf("apps: parsing rank %q: %w", rest[:tab2], err)
	}
	links := rest[tab2+1:]
	if len(links) > 0 {
		dst = fastparse.SplitByte(dst, links, ',')
	}
	return line[:tab1], rank, dst, nil
}

// pageRankCombine folds a set of rank records into at most one: the summed
// contribution units plus the graph payload if present. Unit sums are
// exact integers, so combining in any order or grouping is lossless.
func pageRankCombine(key []byte, values [][]byte, emit func(k, v []byte) error) error {
	sum, graph, outlinks, err := foldRankRecords(key, values)
	if err != nil {
		return err
	}
	return emit(key, serde.EncodeRankRecord(serde.RankRecord{Rank: sum, Graph: graph, Outlinks: outlinks}))
}

func foldRankRecords(key []byte, values [][]byte) (sum float64, graph bool, outlinks []string, err error) {
	for _, v := range values {
		rec, err := serde.DecodeRankRecord(v)
		if err != nil {
			return 0, false, nil, fmt.Errorf("apps: decoding rank record for %q: %w", key, err)
		}
		sum += rec.Rank
		if rec.Graph {
			graph = true
			outlinks = rec.Outlinks
		}
	}
	return sum, graph, outlinks, nil
}

// pageRankReducer applies the damped update r' = (1−d)/N + d·Σcontrib and
// re-emits the page line.
type pageRankReducer struct {
	pages float64
}

func (r pageRankReducer) Reduce(key []byte, values mr.ValueIter, out mr.Collector) error {
	var sum float64
	var graph bool
	var outlinks []string
	for {
		v, ok, err := values.Next()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		rec, err := serde.DecodeRankRecord(v)
		if err != nil {
			return fmt.Errorf("apps: decoding rank record for %q: %w", key, err)
		}
		sum += rec.Rank
		if rec.Graph {
			graph = true
			outlinks = rec.Outlinks
		}
	}
	if !graph {
		// Dangling target: it exists only as a link destination; it still
		// receives rank but has no outlinks.
		outlinks = nil
	}
	sumUnits := int64(sum)
	teleport := int64((1 - pageRankDamping) * rankScale / r.pages)
	damped := sumUnits / 20 * 17 // ×0.85 in integer arithmetic
	newUnits := teleport + damped
	return out.Collect(key, serde.EncodeRankRecord(serde.RankRecord{Rank: float64(newUnits), Graph: graph, Outlinks: outlinks}))
}

// pageRankFormat renders the next-iteration input line, converting rank
// units back to a float rank.
func pageRankFormat(dst, key, value []byte) ([]byte, error) {
	rank, err := serde.DecodeFloat64(value) // a rank record leads with its rank
	if err != nil {
		return dst, err
	}
	dst = append(dst, key...)
	dst = append(dst, '\t')
	dst = strconv.AppendFloat(dst, rank/rankScale, 'e', 8, 64)
	dst = append(dst, '\t')
	dst, err = serde.AppendRankRecordOutlinks(dst, value, ',')
	if err != nil {
		return dst, err
	}
	return append(dst, '\n'), nil
}

// PageRank performs one damped PageRank iteration over the crawl. pages is
// the total page count N (for the teleport term).
func PageRank(graph string, pages int64) *mr.Job {
	return &mr.Job{
		Name:       "pagerank",
		Inputs:     []string{graph},
		NewMapper:  func() mr.Mapper { return &pageRankMapper{} },
		NewReducer: func() mr.Reducer { return pageRankReducer{pages: float64(pages)} },
		Combine:    pageRankCombine,
		Format:     pageRankFormat,
	}
}
