// This file is the meshd row encodings. The sweeps' Emit hook hands rows
// over in index order, one at a time (the library's runGrid restores it),
// so env.emit writes each straight to the stream — the byte-identity
// contract of the package comment.

package server

import (
	"bytes"
	"encoding/json"
	"fmt"
)

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

// ndjsonLines returns an encoder of a job's rows: each row goes through one
// json.Encoder into one buffer the encoder reuses, and is encoded through a
// pointer to one variable the encoder keeps, so a row costs neither a copy
// of its line nor a boxed copy of itself. The bytes are encodeNDJSON's
// (json.Marshal escapes HTML, as the Encoder does by default, a pointer
// encodes as what it points to, and the Encoder ends each value with the
// '\n'); a returned line is valid until the next call.
func ndjsonLines[R any]() func(R) []byte {
	var (
		buf bytes.Buffer
		cur R
	)
	enc := json.NewEncoder(&buf)
	return func(row R) []byte {
		buf.Reset()
		cur = row
		if err := enc.Encode(&cur); err != nil {
			panic(fmt.Sprintf("server: encoding row: %v", err))
		}
		return buf.Bytes()
	}
}
