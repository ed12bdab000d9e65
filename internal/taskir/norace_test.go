//go:build !race

package taskir_test

// raceEnabled mirrors the -race build flag: allocation-count gates are
// skipped under the race detector, whose instrumentation allocates.
const raceEnabled = false
