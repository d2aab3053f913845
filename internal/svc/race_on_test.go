//go:build race

package svc

// raceEnabled reports a -race build, whose instrumentation changes
// allocation counts.
const raceEnabled = true
