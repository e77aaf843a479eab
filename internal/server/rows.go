// This file is the meshd streaming layer: the row encodings and the
// sequencer that turns the sweeps' completion-order Emit callbacks (cell 7
// may land before cell 2) back into index order — the byte-identity
// contract of the package comment.

package server

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"

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

// sequencer restores index order over out-of-order (index, bytes) pairs:
// push buffers a row, and every row that becomes contiguous with the
// prefix already written flushes immediately to the sink. Safe for
// concurrent push calls (the sweeps emit from parallel workers); the
// sink is only ever written under the sequencer's lock.
type sequencer struct {
	mu      sync.Mutex
	sink    io.Writer
	flush   func()
	next    int
	pending map[int][]byte
	err     error
}

func newSequencer(sink io.Writer, flush func()) *sequencer {
	return &sequencer{sink: sink, flush: flush, pending: make(map[int][]byte)}
}

// push hands the sequencer row index i. Rows write out as soon as they
// extend the contiguous prefix; later rows wait buffered. Write errors
// (client went away mid-stream) latch and swallow the rest.
func (q *sequencer) push(i int, row []byte) {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.pending[i] = row
	flushed := false
	for {
		next, ok := q.pending[q.next]
		if !ok {
			break
		}
		delete(q.pending, q.next)
		q.next++
		if q.err != nil {
			continue
		}
		if _, err := q.sink.Write(next); err != nil {
			q.err = err
			continue
		}
		flushed = true
	}
	if flushed && q.flush != nil {
		q.flush()
	}
}

// flushErr reports the first sink write error, if any.
func (q *sequencer) flushErr() error {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.err
}
