// Package finding holds one determinism finding: a wall-clock read.
package finding

import "time"

// Stamp reads the wall clock.
func Stamp() int64 { return time.Now().UnixNano() }
