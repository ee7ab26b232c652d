package main

import (
	"bytes"
	"fmt"
)

// The naive programs compute each application's answer the way one would
// without a framework: one goroutine, one pass over the input bytes, one
// hash map. They are the oracle for the full-size outputs (distinct keys
// and value total) and, timed, the denominator of apps.abstraction_cost_x.
// They share no code with internal/apps.

// tally is what a naive program and a parsed job output are compared on:
// the number of distinct keys and the sum of their values (word counts,
// revenue cents, or posting-list lengths).
type tally struct {
	keys  int64
	total int64
}

func isSpace(c byte) bool {
	return c == ' ' || c == '\n' || c == '\t' || c == '\r' || c == '\v' || c == '\f'
}

// nextWord returns the bounds of the first whitespace-separated word of b at
// or after i; start == end means there is none.
func nextWord(b []byte, i int) (start, end int) {
	for i < len(b) && isSpace(b[i]) {
		i++
	}
	start = i
	for i < len(b) && !isSpace(b[i]) {
		i++
	}
	return start, i
}

func (a app) naive(data []byte) (tally, error) {
	switch a {
	case appInvertedIndex:
		return naiveInvertedIndex(data), nil
	case appLogSum:
		return naiveLogSum(data)
	default:
		return naiveWordCount(data), nil
	}
}

func naiveWordCount(data []byte) tally {
	counts := make(map[string]*int64, 1<<16)
	var t tally
	for i := 0; ; {
		start, end := nextWord(data, i)
		if start == end {
			break
		}
		word := data[start:end]
		i = end
		if p, ok := counts[string(word)]; ok {
			*p++
		} else {
			n := int64(1)
			counts[string(word)] = &n
		}
		t.total++
	}
	t.keys = int64(len(counts))
	return t
}

// posting mirrors what InvertedIndex records per token: the 64 KiB
// pseudo-document of the line and the line's byte offset.
type posting struct{ doc, off uint64 }

func naiveInvertedIndex(data []byte) tally {
	index := make(map[string]*[]posting, 1<<16)
	var t tally
	for lineStart := 0; lineStart < len(data); {
		end := len(data)
		if nl := bytes.IndexByte(data[lineStart:], '\n'); nl >= 0 {
			end = lineStart + nl
		}
		line := data[lineStart:end]
		p := posting{doc: uint64(lineStart) >> 16, off: uint64(lineStart)}
		for j := 0; ; {
			s, e := nextWord(line, j)
			if s == e {
				break
			}
			if l, ok := index[string(line[s:e])]; ok {
				*l = append(*l, p)
			} else {
				index[string(line[s:e])] = &[]posting{p}
			}
			t.total++
			j = e
		}
		lineStart = end + 1
	}
	t.keys = int64(len(index))
	return t
}

func naiveLogSum(data []byte) (tally, error) {
	revenue := make(map[string]*int64, 1<<16)
	var t tally
	for len(data) > 0 {
		line := data
		if nl := bytes.IndexByte(data, '\n'); nl >= 0 {
			line, data = data[:nl], data[nl+1:]
		} else {
			data = nil
		}
		if len(line) == 0 {
			continue
		}
		// sourceIP|destURL|visitDate|adRevenueCents|...
		var field [4][]byte
		rest := line
		for f := 0; f < 4; f++ {
			bar := bytes.IndexByte(rest, '|')
			if bar < 0 {
				return t, fmt.Errorf("naive logsum: malformed line %q", line)
			}
			field[f], rest = rest[:bar], rest[bar+1:]
		}
		var cents int64
		for _, c := range field[3] {
			if c < '0' || c > '9' {
				return t, fmt.Errorf("naive logsum: bad revenue in %q", line)
			}
			cents = cents*10 + int64(c-'0')
		}
		if p, ok := revenue[string(field[1])]; ok {
			*p += cents
		} else {
			n := cents
			revenue[string(field[1])] = &n
		}
		t.total += cents
	}
	t.keys = int64(len(revenue))
	return t, nil
}

// tallyOutput parses concatenated job output ("key<TAB>value\n" lines) into
// the same tally: for the two summing applications the value is a decimal
// integer, for InvertedIndex a list of doc:off postings.
func (a app) tallyOutput(out []byte) (tally, error) {
	var t tally
	for len(out) > 0 {
		nl := bytes.IndexByte(out, '\n')
		if nl < 0 {
			return t, fmt.Errorf("output does not end in a newline")
		}
		line := out[:nl]
		out = out[nl+1:]
		tab := bytes.IndexByte(line, '\t')
		if tab < 0 {
			return t, fmt.Errorf("output line %q has no tab", line)
		}
		t.keys++
		val := line[tab+1:]
		if a == appInvertedIndex {
			t.total += int64(bytes.Count(val, []byte{':'}))
			continue
		}
		var n int64
		for _, c := range val {
			if c < '0' || c > '9' {
				return t, fmt.Errorf("output line %q has a non-numeric value", line)
			}
			n = n*10 + int64(c-'0')
		}
		t.total += n
	}
	return t, nil
}
