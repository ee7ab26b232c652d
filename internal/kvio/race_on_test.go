//go:build race

package kvio

const raceEnabled = true
