//go:build !race

package main

// raceEnabled mirrors the -race build flag: the golden test checks
// only a subset of the experiments under the race detector.
const raceEnabled = false
