package kvio

import (
	"fmt"
	"reflect"

	"mrtext/internal/serde"
)

// SumInt64 is the int64-sum combiner: every value is one zig-zag varint
// (serde.EncodeInt64) and it emits their total. It is the one combiner the
// runtime recognises. A job whose Combine is this exact value (IsSumInt64)
// gets the in-place path: the spill writer, MergeInto and the frequency
// buffer fold a key's values into one int64 where they lie, and call no
// combiner at all. A wrapped copy — any other func, even one that only
// calls SumInt64 — is an ordinary combiner and takes the generic path.
func SumInt64(key []byte, values [][]byte, emit func(key, value []byte) error) error {
	var sum int64
	for _, v := range values {
		var err error
		if sum, err = AddInt64(sum, key, v); err != nil {
			return err
		}
	}
	return emit(key, serde.EncodeInt64(sum))
}

// IsSumInt64 reports whether combine is SumInt64 itself, the check every
// in-place sum kernel is chosen by. Func values do not compare with ==, so
// it compares code pointers: a copy of SumInt64's value matches, a closure
// around it does not.
func IsSumInt64(combine CombineFunc) bool {
	return combine != nil && reflect.ValueOf(combine).Pointer() == reflect.ValueOf(SumInt64).Pointer()
}

// AddInt64 decodes value, one zig-zag varint, and adds it to sum: the step
// every SumInt64 kernel folds a value with. A malformed value is an error
// naming key.
func AddInt64(sum int64, key, value []byte) (int64, error) {
	n, err := serde.DecodeInt64(value)
	if err != nil {
		return sum, fmt.Errorf("kvio: summing values of key %q: %w", key, err)
	}
	return sum + n, nil
}
