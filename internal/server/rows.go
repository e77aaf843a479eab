// This file is the meshd row encodings. The sweeps' Emit hook hands rows
// over in index order, one at a time (the library's runGrid restores it),
// so env.emit writes each straight to the stream — the byte-identity
// contract of the package comment.

package server

import (
	"encoding/json"
	"fmt"

	"ndmesh/internal/traffic"
)

// ReplayRow is the single NDJSON row a replay job streams: the router it
// ran under and the replayed load point.
type ReplayRow struct {
	Router string            `json:"router"`
	Point  traffic.LoadPoint `json:"point"`
}

// encodeNDJSON renders one row as a newline-terminated JSON line.
// json.Marshal on the row structs cannot fail (no non-finite floats
// survive a run, no unmarshalable field types), so errors are programmer
// errors and panic.
func encodeNDJSON[R any](row R) []byte {
	data, err := json.Marshal(row)
	if err != nil {
		panic(fmt.Sprintf("server: encoding row: %v", err))
	}
	return append(data, '\n')
}
