// Package fastparse implements the byte-level parsing kernels of the
// ingest fast path: integer, float and field parsing directly over []byte
// subslices of the split reader's arena, with no intermediate strings and
// no per-record heap allocation — the 1BRC idiom applied to the
// record-read → tokenize → emit pipeline.
//
// The strconv round-trip the runtime's parsers used to pay
// (`strconv.ParseInt(string(f[3]), 10, 64)`) costs one string copy per
// record before parsing even starts; the paper counts exactly this kind of
// per-record conversion as MapReduce abstraction cost. Every kernel here
// is verified against its strconv/bytes counterpart by property and fuzz
// tests: same accept/reject decisions and bit-identical values on the
// supported grammar, so swapping a parser cannot change job output.
//
// Grammar note: ParseFloat accepts the plain decimal subset
// [+-]?digits[.digits][(e|E)[+-]?digits] — the only float syntax the
// runtime's generators emit. Inputs outside the subset (inf, NaN, hex
// floats, underscores, leading dots) are rejected even when strconv would
// accept them; inputs inside it parse to the exact bits strconv produces.
package fastparse

import (
	"bytes"
	"errors"
	"math"
	"math/bits"
	"strconv"
	"unicode/utf8"
)

// ErrSyntax reports input outside the supported grammar.
var ErrSyntax = errors.New("fastparse: invalid syntax")

// ErrRange reports a value that does not fit the result type.
var ErrRange = errors.New("fastparse: value out of range")

// ParseUint parses b as a base-10 uint64, exactly like
// strconv.ParseUint(string(b), 10, 64): digits only, no sign, no
// underscores. On overflow it returns math.MaxUint64 and ErrRange.
func ParseUint(b []byte) (uint64, error) {
	if len(b) == 0 {
		return 0, ErrSyntax
	}
	const cutoff = math.MaxUint64/10 + 1
	var n uint64
	for _, c := range b {
		d := c - '0'
		if d > 9 {
			return 0, ErrSyntax
		}
		if n >= cutoff {
			return math.MaxUint64, ErrRange
		}
		n *= 10
		n1 := n + uint64(d)
		if n1 < n {
			return math.MaxUint64, ErrRange
		}
		n = n1
	}
	return n, nil
}

// ParseInt parses b as a base-10 int64, exactly like
// strconv.ParseInt(string(b), 10, 64): an optional leading sign followed
// by digits. On overflow it returns the clamped extreme and ErrRange.
func ParseInt(b []byte) (int64, error) {
	if len(b) == 0 {
		return 0, ErrSyntax
	}
	neg := false
	if b[0] == '+' || b[0] == '-' {
		neg = b[0] == '-'
		b = b[1:]
	}
	un, err := ParseUint(b)
	if err == ErrRange {
		if neg {
			return math.MinInt64, ErrRange
		}
		return math.MaxInt64, ErrRange
	}
	if err != nil {
		return 0, err
	}
	if neg {
		if un > 1<<63 {
			return math.MinInt64, ErrRange
		}
		return -int64(un), nil
	}
	if un > 1<<63-1 {
		return math.MaxInt64, ErrRange
	}
	return int64(un), nil
}

// pow10 holds the exactly-representable powers of ten: 10^0 .. 10^22 all
// have mantissas below 2^53, so multiplying or dividing by one is a single
// correctly-rounded operation (Clinger's fast path).
var pow10 = [...]float64{
	1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11,
	1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
}

// ParseFloat parses b as a float64 over the plain decimal subset
// [+-]?digits[.digits][(e|E)[+-]?digits], producing bit-identical results
// to strconv.ParseFloat on every accepted input. Mantissas up to 19
// significant digits with decimal exponents in [-22, 22] take the exact
// single-operation fast path; anything longer falls back to strconv for
// correct rounding (a cold path on generated data, which never exceeds 17
// significant digits).
func ParseFloat(b []byte) (float64, error) {
	if len(b) == 0 {
		return 0, ErrSyntax
	}
	orig := b
	neg := false
	if b[0] == '+' || b[0] == '-' {
		neg = b[0] == '-'
		b = b[1:]
	}
	// Mantissa: integer digits, then optional '.' + fraction digits. The
	// subset grammar requires at least one integer digit (".5" rejected).
	var mant uint64
	digits, truncated := 0, false
	intDigits := 0
	for ; intDigits < len(b); intDigits++ {
		d := b[intDigits] - '0'
		if d > 9 {
			break
		}
		if digits < 19 {
			mant = mant*10 + uint64(d)
			if mant > 0 {
				digits++
			}
		} else {
			truncated = true
		}
	}
	if intDigits == 0 {
		return 0, ErrSyntax
	}
	exp10 := 0
	b = b[intDigits:]
	if len(b) > 0 && b[0] == '.' {
		b = b[1:]
		fracDigits := 0
		for ; fracDigits < len(b); fracDigits++ {
			d := b[fracDigits] - '0'
			if d > 9 {
				break
			}
			if digits < 19 && !truncated {
				mant = mant*10 + uint64(d)
				exp10--
				if mant > 0 {
					digits++
				}
			} else {
				truncated = true
			}
		}
		if fracDigits == 0 {
			return 0, ErrSyntax
		}
		b = b[fracDigits:]
	}
	if len(b) > 0 && (b[0] == 'e' || b[0] == 'E') {
		b = b[1:]
		eneg := false
		if len(b) > 0 && (b[0] == '+' || b[0] == '-') {
			eneg = b[0] == '-'
			b = b[1:]
		}
		if len(b) == 0 {
			return 0, ErrSyntax
		}
		e := 0
		for _, c := range b {
			d := c - '0'
			if d > 9 {
				return 0, ErrSyntax
			}
			if e < 10000 {
				e = e*10 + int(d)
			}
		}
		if eneg {
			e = -e
		}
		exp10 += e
		b = nil
	}
	if len(b) != 0 {
		return 0, ErrSyntax
	}

	// A zero mantissa is ±0 regardless of exponent (matching strconv,
	// which never range-errors a zero value).
	if !truncated && mant == 0 {
		f := 0.0
		if neg {
			f = -f
		}
		return f, nil
	}
	// Exact fast path: mantissa fits in 2^53 and the scaling power of ten
	// is itself exact, so one multiply or divide is correctly rounded.
	if !truncated && mant < 1<<53 {
		f := float64(mant)
		switch {
		case exp10 == 0:
			// exact
		case exp10 > 0 && exp10 <= 22:
			f *= pow10[exp10]
		case exp10 < 0 && exp10 >= -22:
			f /= pow10[-exp10]
		default:
			return parseFloatSlow(orig)
		}
		if neg {
			f = -f
		}
		if math.IsInf(f, 0) {
			return f, ErrRange
		}
		return f, nil
	}
	return parseFloatSlow(orig)
}

// parseFloatSlow is the correctness fallback for mantissas or exponents
// outside the exact fast path: delegate to strconv, which is correctly
// rounded for arbitrary inputs. The grammar was already validated, so
// strconv can only fail with ErrRange.
func parseFloatSlow(b []byte) (float64, error) {
	f, err := strconv.ParseFloat(string(b), 64)
	if err != nil {
		return f, ErrRange
	}
	return f, nil
}

// SplitByte appends the sep-separated fields of line to dst and returns
// the extended slice: the zero-copy equivalent of
// bytes.Split(line, []byte{sep}), with the fields aliasing line and the
// field headers reusing dst's capacity. Callers pass a scratch slice
// resliced to [:0] to stay allocation-free across records.
func SplitByte(dst [][]byte, line []byte, sep byte) [][]byte {
	const lo, hi = 0x0101010101010101, 0x8080808080808080
	sepx := uint64(sep) * lo
	start, i := 0, 0
	// SWAR scan, 8 bytes per step: XOR with the repeated separator turns
	// separator bytes into zero bytes, the zero-byte trick flags them, and
	// set bits are walked in order. The borrow cascade can flag a byte
	// adjacent to a real separator, so every flagged byte is re-checked —
	// false positives cost one compare, false negatives cannot happen.
	// Fields this short would pay bytes.IndexByte's call overhead per
	// field; the in-line scan costs one load per 8 bytes instead.
	for i+8 <= len(line) {
		v := uint64(line[i]) | uint64(line[i+1])<<8 | uint64(line[i+2])<<16 | uint64(line[i+3])<<24 |
			uint64(line[i+4])<<32 | uint64(line[i+5])<<40 | uint64(line[i+6])<<48 | uint64(line[i+7])<<56
		v ^= sepx
		m := (v - lo) & ^v & hi
		for m != 0 {
			k := i + bits.TrailingZeros64(m)>>3
			if line[k] == sep {
				dst = append(dst, line[start:k])
				start = k + 1
			}
			m &= m - 1
		}
		i += 8
	}
	for ; i < len(line); i++ {
		if line[i] == sep {
			dst = append(dst, line[start:i])
			start = i + 1
		}
	}
	return append(dst, line[start:])
}

// Byte classes for the Fields scan. Word bytes (the overwhelming majority
// on text input) classify to 0, so the hot loop is one table load and one
// taken-on-boundary branch per byte.
const (
	classSpace    = 1 // the six ASCII bytes unicode.IsSpace reports true for
	classNonASCII = 2 // ≥ 0x80: delegate to bytes.Fields for Unicode spaces
)

// fieldClass classifies every byte for Fields in a single lookup; the
// space class is exactly the ASCII bytes unicode.IsSpace reports true for.
var fieldClass = func() (t [256]uint8) {
	for _, c := range []byte{'\t', '\n', '\v', '\f', '\r', ' '} {
		t[c] = classSpace
	}
	for c := utf8.RuneSelf; c < 256; c++ {
		t[c] = classNonASCII
	}
	return
}()

// Fields appends the whitespace-separated fields of line to dst and
// returns the extended slice: the zero-copy equivalent of
// bytes.Fields(line). ASCII lines (everything the corpus generators emit)
// take the table-driven single pass; a line containing any byte ≥ 0x80
// delegates to bytes.Fields so multi-byte Unicode spaces keep their exact
// semantics.
func Fields(dst [][]byte, line []byte) [][]byte {
	const hi = 0x8080808080808080
	n0 := len(dst)
	start := -1 // current word start, -1 while between words
	i := 0
	// SWAR scan, 8 bytes per step: candidate boundary bytes are anything
	// below 0x21 (all six ASCII spaces live there) or at/above 0x80
	// (possible Unicode space). The common word bytes 0x21..0x7F raise no
	// candidate and cost no data-dependent branch — the per-byte boundary
	// branch is what mispredicts once per word on real text. Candidates
	// are classified exactly below, so the borrow-cascade false positives
	// of the below-0x21 trick (and rare control-char word bytes) are
	// handled, not mis-tokenized.
	for i+8 <= len(line) {
		v := uint64(line[i]) | uint64(line[i+1])<<8 | uint64(line[i+2])<<16 | uint64(line[i+3])<<24 |
			uint64(line[i+4])<<32 | uint64(line[i+5])<<40 | uint64(line[i+6])<<48 | uint64(line[i+7])<<56
		cand := ((v - 0x2121212121212121) & ^v & hi) | (v & hi)
		if cand == 0 {
			if start < 0 {
				start = i
			}
			i += 8
			continue
		}
		base, scan := i, i
		for cand != 0 {
			k := base + bits.TrailingZeros64(cand)>>3
			if start < 0 && k > scan {
				start = scan // word bytes preceded this candidate
			}
			switch fieldClass[line[k]] {
			case classSpace:
				if start >= 0 {
					dst = append(dst, line[start:k])
					start = -1
				}
			case classNonASCII:
				return append(dst[:n0], bytes.Fields(line)...)
			default:
				// Control-char word byte flagged by the below-0x21 filter.
				if start < 0 {
					start = k
				}
			}
			scan = k + 1
			cand &= cand - 1
		}
		if start < 0 && scan < base+8 {
			start = scan // trailing word bytes after the last candidate
		}
		i = base + 8
	}
	// Scalar tail for the final partial chunk.
	for ; i < len(line); i++ {
		c := fieldClass[line[i]]
		if c == 0 {
			if start < 0 {
				start = i
			}
			continue
		}
		if c == classNonASCII {
			return append(dst[:n0], bytes.Fields(line)...)
		}
		if start >= 0 {
			dst = append(dst, line[start:i])
			start = -1
		}
	}
	if start >= 0 {
		dst = append(dst, line[start:])
	}
	return dst
}
