//go:build race

package core

// raceEnabled reports a -race build, under which sync.Pool drops items
// at random, so pool-reuse allocation bounds do not hold.
const raceEnabled = true
