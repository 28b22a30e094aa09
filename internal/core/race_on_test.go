//go:build race

package core

// raceEnabled reports whether the race detector is compiled in, so
// assertions it invalidates (sync.Pool drops Puts at random under the
// detector) can skip themselves.
const raceEnabled = true
