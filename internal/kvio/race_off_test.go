//go:build !race

package kvio

// raceEnabled relaxes the zero-allocation assertions under -race, whose
// instrumentation inflates allocation counts.
const raceEnabled = false
