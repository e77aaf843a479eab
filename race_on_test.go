//go:build race

package ndmesh

// raceEnabled reports a build with the race detector, whose shadow memory
// and bookkeeping move what a heap reading sees.
const raceEnabled = true
