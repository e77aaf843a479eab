//go:build race

package server

// raceEnabled reports a build with the race detector, under which sync.Pool
// drops items at random, so allocation counts through encoding/json and
// net/http vary from run to run.
const raceEnabled = true
