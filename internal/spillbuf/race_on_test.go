//go:build race

package spillbuf

// raceEnabled relaxes the zero-allocation assertions under -race, whose
// instrumentation inflates allocation counts.
const raceEnabled = true
