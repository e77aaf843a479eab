//go:build !race

package ndmesh

// raceEnabled reports a build with the race detector (see race_on_test.go).
const raceEnabled = false
