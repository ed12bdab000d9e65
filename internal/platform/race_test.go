//go:build race

package platform

// raceEnabled mirrors the -race build flag. The race detector slows
// float loops several-fold and has no concurrency to check in the
// exhaustive table sweeps, so those run fewer seeds under it.
const raceEnabled = true
