//go:build race

package freqbuf

// raceEnabled relaxes the zero-allocation assertions under -race, whose
// instrumentation inflates allocation counts.
const raceEnabled = true
