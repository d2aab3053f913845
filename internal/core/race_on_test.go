//go:build race

package core

// raceEnabled reports a -race build, under which sync.Pool drops items
// at random, so steady-state allocation bounds do not hold.
const raceEnabled = true
