package traffic

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"ndmesh/internal/fault"
	"ndmesh/internal/grid"
)

// Trace is a recorded workload: every endpoint pair a load run offered, per
// step, plus the fault schedule and the run metadata needed to replay the
// identical experiment. A replayed trace is byte-identical to its origin by
// construction — no rng is consumed during replay, so limited-vs-congested
// (or any other) comparisons can run the *same offered workload* instead of
// relying on rng-state copies, and a workload recorded on one machine
// replays exactly on another.
//
// What is recorded is the *offered* stream (every emit the source made,
// including offers the engine refused at admission): replaying the offers
// against an engine in the same configuration reproduces the admission
// verdicts, the flight population and therefore the LoadPoint of the
// original run bit for bit. A closed-loop run records the offers its
// delivery feedback actually produced; replaying such a trace is open-loop
// by construction (the recorded injection times are fixed), which is
// exactly what makes it a controlled workload for cross-router comparison —
// the ClosedLoop flag is kept so the replay can mirror the original run's
// drop accounting.
type Trace struct {
	// Dims is the mesh shape the workload was recorded on; a trace only
	// replays on the same shape.
	Dims []int //meshvet:keep recording metadata, the caller's to manage (see Reset doc)
	// Rate is the nominal open-loop rate (0 for a closed-loop recording);
	// it feeds the replayed LoadPoint's OfferedRate.
	Rate float64 //meshvet:keep recording metadata, the caller's to manage
	// Window is the closed-loop window (0 for an open-loop recording).
	Window int //meshvet:keep recording metadata, the caller's to manage
	// ClosedLoop marks the origin mode: closed-loop runs do not count
	// refused offers as drops, and the replay mirrors that.
	ClosedLoop bool //meshvet:keep recording metadata, the caller's to manage
	// Warmup, Measure, Drain are the origin run's phase lengths; the
	// replay must use them so the measurement window matches.
	Warmup, Measure, Drain int //meshvet:keep recording metadata, the caller's to manage
	// Lambda, LinkRate and NodeCapacity record the origin run's
	// engine-side configuration. Replays inherit them by default (a
	// capacity mismatch silently changes every admission verdict, which
	// would break the byte-identical-replay contract for anyone who
	// forgot to repeat a flag), but a caller may still override them
	// deliberately to run the same offered workload under a different
	// engine configuration.
	Lambda, LinkRate, NodeCapacity int //meshvet:keep recording metadata, the caller's to manage
	// FlightTimeout, GridlockWindow and Bubble record the origin run's
	// deadlock-escape configuration (format v2; v1 traces read as all
	// zero). Like the fields above they are engine-side state that changes
	// admission verdicts and flight populations, so replays inherit them by
	// default. The workload-side retry backoff is NOT recorded: the
	// recorded offer stream already embeds its effect, and a replay never
	// re-runs the closed-loop logic.
	FlightTimeout, GridlockWindow int  //meshvet:keep recording metadata, the caller's to manage
	Bubble                        bool //meshvet:keep recording metadata, the caller's to manage
	// Faults is the origin run's fault schedule (empty for fault-free).
	Faults []fault.Event

	// counts[s] is the number of offers made at step s; srcs/dsts hold the
	// offered endpoint pairs, flattened in step order.
	counts     []int32
	srcs, dsts []int32
}

// Steps returns the number of injection steps recorded.
func (t *Trace) Steps() int { return len(t.counts) }

// Offers returns the total number of offered endpoint pairs recorded.
func (t *Trace) Offers() int { return len(t.srcs) }

// Reset clears the recorded offer stream and fault schedule (keeping the
// buffers' capacity) so the trace can hold a fresh recording.
// TraceRecorder.Reset calls it: wrapping a source always begins a new
// recording — without this, reusing one Trace value across two runs would
// silently concatenate their offer streams or leak a stale fault schedule
// into a fault-free recording. The scalar metadata fields are the
// caller's to manage (and callers set Faults after attaching the
// recorder, since Reset clears it).
func (t *Trace) Reset() {
	t.Faults = t.Faults[:0]
	t.counts = t.counts[:0]
	t.srcs = t.srcs[:0]
	t.dsts = t.dsts[:0]
}

// beginStep opens the next step's offer run.
func (t *Trace) beginStep() { t.counts = append(t.counts, 0) }

// appendOffer records one offered pair in the current step.
func (t *Trace) appendOffer(src, dst grid.NodeID) {
	t.counts[len(t.counts)-1]++
	t.srcs = append(t.srcs, int32(src))
	t.dsts = append(t.dsts, int32(dst))
}

// TraceRecorder implements Injector by passing an inner source's offers
// through to the run while appending each of them (and each step boundary)
// to the trace. Wrap the live source with it and the run is unchanged —
// same rng consumption, same admission outcomes — but the trace afterwards
// holds everything needed to replay it. A recorder is set to a source and a
// trace by Reset.
type TraceRecorder struct {
	inner Injector
	tr    *Trace
	// emit is the current step's caller emit; pass is rec.offer, bound once
	// (a method value or closure made each step allocates).
	emit, pass func(src, dst grid.NodeID) bool
}

// Reset wraps inner so its offers are recorded into tr, starting a fresh
// recording (any previously recorded offers and faults in tr are
// discarded; the caller owns the metadata fields). Reset(nil, nil) lets go
// of both.
func (rec *TraceRecorder) Reset(inner Injector, tr *Trace) {
	if tr != nil {
		tr.Reset()
	}
	rec.inner, rec.tr, rec.emit = inner, tr, nil
	if rec.pass == nil {
		rec.pass = rec.offer
	}
}

// Step implements Injector.
func (rec *TraceRecorder) Step(emit func(src, dst grid.NodeID) bool) {
	rec.tr.beginStep()
	rec.emit = emit
	rec.inner.Step(rec.pass)
}

// offer records one offered pair and hands it to the caller's emit.
func (rec *TraceRecorder) offer(src, dst grid.NodeID) bool {
	rec.tr.appendOffer(src, dst)
	return rec.emit(src, dst)
}

// TracePlayer implements Injector by replaying a recorded trace: step s
// offers exactly the pairs recorded at step s, in recorded order, consuming
// no randomness. Steps past the end of the recording offer nothing. A
// player is set to a trace by Reset.
type TracePlayer struct {
	tr   *Trace
	step int
	pos  int
}

// Reset positions the player at tr's first step (nil: lets go of a trace).
func (p *TracePlayer) Reset(tr *Trace) { *p = TracePlayer{tr: tr} }

// Step implements Injector.
func (p *TracePlayer) Step(emit func(src, dst grid.NodeID) bool) {
	if p.step < len(p.tr.counts) {
		for end := p.pos + int(p.tr.counts[p.step]); p.pos < end; p.pos++ {
			emit(grid.NodeID(p.tr.srcs[p.pos]), grid.NodeID(p.tr.dsts[p.pos]))
		}
	}
	p.step++
}

// ---------------------------------------------------------------------------
// Binary encoding.

// traceMagic opens every serialized trace; traceVersion is bumped on any
// incompatible format change (readers reject unknown versions). Version 2
// appended the deadlock-escape engine fields (FlightTimeout,
// GridlockWindow, Bubble) after NodeCapacity; version 1 traces are still
// readable and decode those fields as zero (escape mechanisms off, which
// is what a v1 recording ran with).
const (
	traceMagic   = "NDWT"
	traceVersion = 2
	// maxTraceDrain caps the decoded drain phase: drain steps run the
	// engine without any recorded-offer witness to bound them, so a
	// corrupt value must not turn replay into an unbounded computation.
	maxTraceDrain = 1 << 24
)

// Marshal serializes the trace into the compact binary format: the magic
// and version, the metadata header, the fault events, then the per-step
// offer counts and the flattened endpoint pairs — all integers
// uvarint-encoded, so a typical load run's workload is a few bytes per
// offer.
func (t *Trace) Marshal() []byte {
	buf := make([]byte, 0, 64+10*len(t.srcs))
	buf = append(buf, traceMagic...)
	buf = binary.AppendUvarint(buf, traceVersion)
	buf = binary.AppendUvarint(buf, uint64(len(t.Dims)))
	for _, d := range t.Dims {
		buf = binary.AppendUvarint(buf, uint64(d))
	}
	buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(t.Rate))
	buf = binary.AppendUvarint(buf, uint64(t.Window))
	flags := uint64(0)
	if t.ClosedLoop {
		flags = 1
	}
	buf = binary.AppendUvarint(buf, flags)
	buf = binary.AppendUvarint(buf, uint64(t.Warmup))
	buf = binary.AppendUvarint(buf, uint64(t.Measure))
	buf = binary.AppendUvarint(buf, uint64(t.Drain))
	buf = binary.AppendUvarint(buf, uint64(t.Lambda))
	buf = binary.AppendUvarint(buf, uint64(t.LinkRate))
	buf = binary.AppendUvarint(buf, uint64(t.NodeCapacity))
	buf = binary.AppendUvarint(buf, uint64(t.FlightTimeout))
	buf = binary.AppendUvarint(buf, uint64(t.GridlockWindow))
	bubble := uint64(0)
	if t.Bubble {
		bubble = 1
	}
	buf = binary.AppendUvarint(buf, bubble)
	buf = binary.AppendUvarint(buf, uint64(len(t.Faults)))
	for _, ev := range t.Faults {
		buf = binary.AppendUvarint(buf, uint64(ev.Step))
		buf = binary.AppendUvarint(buf, uint64(ev.Kind))
		buf = binary.AppendUvarint(buf, uint64(ev.Node))
	}
	buf = binary.AppendUvarint(buf, uint64(len(t.counts)))
	for _, c := range t.counts {
		buf = binary.AppendUvarint(buf, uint64(c))
	}
	buf = binary.AppendUvarint(buf, uint64(len(t.srcs)))
	for i := range t.srcs {
		buf = binary.AppendUvarint(buf, uint64(t.srcs[i]))
		buf = binary.AppendUvarint(buf, uint64(t.dsts[i]))
	}
	return buf
}

// UnmarshalTrace parses a serialized trace, validating the magic, the
// version and the internal consistency of the counts (the sum of per-step
// counts must equal the number of recorded pairs).
func UnmarshalTrace(data []byte) (*Trace, error) {
	if len(data) < len(traceMagic) || string(data[:len(traceMagic)]) != traceMagic {
		return nil, fmt.Errorf("traffic: not a workload trace (bad magic)")
	}
	r := &uvarintReader{data: data[len(traceMagic):]}
	version := r.next()
	if version < 1 || version > traceVersion {
		return nil, fmt.Errorf("traffic: unsupported trace version %d (want 1..%d)", version, traceVersion)
	}
	t := &Trace{}
	nd := int(r.next())
	if nd < 1 || nd > 16 {
		return nil, fmt.Errorf("traffic: trace has %d dimensions", nd)
	}
	t.Dims = make([]int, nd)
	for i := range t.Dims {
		t.Dims[i] = int(r.next())
	}
	if len(r.data)-r.pos < 8 {
		return nil, fmt.Errorf("traffic: truncated trace header")
	}
	t.Rate = math.Float64frombits(binary.BigEndian.Uint64(r.data[r.pos:]))
	r.pos += 8
	// A recording writes a validated offered rate or 0; anything else is
	// corruption that would reach the replayed LoadPoint's OfferedRate.
	if math.IsNaN(t.Rate) || math.IsInf(t.Rate, 0) || t.Rate < 0 {
		return nil, fmt.Errorf("traffic: corrupt trace rate %v", t.Rate)
	}
	t.Window = int(r.next32())
	t.ClosedLoop = r.next()&1 != 0
	t.Warmup = int(r.next32())
	t.Measure = int(r.next32())
	t.Drain = int(r.next32())
	// Phases are replayed as step counts, so they are attack surface for
	// unbounded compute, not just allocation: a crafted Drain (or a
	// bit-flipped Warmup/Measure) would spin the engine for billions of
	// steps. The injection phases are cross-checked against the recorded
	// step table below (a recording is stepped exactly Warmup+Measure
	// times); the drain has no structural witness, so it gets a generous
	// hard cap instead.
	if t.Drain > maxTraceDrain {
		return nil, fmt.Errorf("traffic: trace drain %d exceeds the format cap %d", t.Drain, maxTraceDrain)
	}
	t.Lambda = int(r.next32())
	t.LinkRate = int(r.next32())
	t.NodeCapacity = int(r.next32())
	if version >= 2 {
		t.FlightTimeout = int(r.next32())
		t.GridlockWindow = int(r.next32())
		t.Bubble = r.next()&1 != 0
	}
	// Every element count below is checked against the bytes actually left
	// in the buffer (each fault event encodes to >= 3 bytes, each step
	// count to >= 1, each offer pair to >= 2), so a corrupt or crafted
	// length field errors out instead of driving a huge allocation.
	nf := int(r.next())
	if r.bad || nf < 0 || nf > r.remaining()/3 {
		return nil, fmt.Errorf("traffic: corrupt trace header")
	}
	t.Faults = make([]fault.Event, nf)
	for i := range t.Faults {
		step := int(r.next())
		kind := r.next()
		node := r.next32()
		if kind > uint64(fault.Recover) {
			return nil, fmt.Errorf("traffic: corrupt trace fault kind %d", kind)
		}
		t.Faults[i] = fault.Event{Step: step, Kind: fault.Kind(kind), Node: grid.NodeID(node)}
	}
	ns := int(r.next())
	if r.bad || ns < 0 || ns > r.remaining() {
		return nil, fmt.Errorf("traffic: corrupt trace step table")
	}
	if ns != t.Warmup+t.Measure {
		return nil, fmt.Errorf("traffic: trace records %d injection steps, phases say %d (warmup %d + measure %d)",
			ns, t.Warmup+t.Measure, t.Warmup, t.Measure)
	}
	t.counts = make([]int32, ns)
	total := 0
	for i := range t.counts {
		t.counts[i] = r.next32()
		total += int(t.counts[i])
	}
	np := int(r.next())
	if r.bad || np != total || np > r.remaining()/2 {
		return nil, fmt.Errorf("traffic: trace offer count %d does not match step counts (sum %d)", np, total)
	}
	t.srcs = make([]int32, np)
	t.dsts = make([]int32, np)
	for i := 0; i < np; i++ {
		t.srcs[i] = r.next32()
		t.dsts[i] = r.next32()
	}
	if r.bad {
		return nil, fmt.Errorf("traffic: truncated trace body")
	}
	return t, nil
}

// Validate checks the trace against the radices of the mesh it is to
// replay on: every recorded endpoint and fault node must be a valid node
// id. It allocates nothing unless it fails.
func (t *Trace) Validate(dims []int) error {
	if !slices.Equal(t.Dims, dims) {
		return fmt.Errorf("traffic: trace recorded on %v, replaying on %v", t.Dims, dims)
	}
	nodes, err := grid.Nodes(dims...)
	if err != nil {
		return err
	}
	n := int32(nodes)
	for _, ev := range t.Faults {
		if int32(ev.Node) < 0 || int32(ev.Node) >= n {
			return fmt.Errorf("traffic: trace fault node %d outside mesh", ev.Node)
		}
	}
	for i := range t.srcs {
		if t.srcs[i] < 0 || t.srcs[i] >= n || t.dsts[i] < 0 || t.dsts[i] >= n {
			return fmt.Errorf("traffic: trace offer %d endpoints (%d -> %d) outside mesh", i, t.srcs[i], t.dsts[i])
		}
	}
	return nil
}

// uvarintReader walks a uvarint-packed buffer, latching any decode error
// into bad so callers can check once per section.
type uvarintReader struct {
	data []byte
	pos  int
	bad  bool
}

func (r *uvarintReader) next() uint64 {
	if r.bad {
		return 0
	}
	v, n := binary.Uvarint(r.data[r.pos:])
	if n <= 0 {
		r.bad = true
		return 0
	}
	r.pos += n
	return v
}

// next32 is next for values that must fit an int32 (counts, node ids): a
// larger value marks the trace corrupt instead of truncating silently —
// a bit-flipped length that happened to truncate consistently could
// otherwise replay a *different* workload without any error.
func (r *uvarintReader) next32() int32 {
	v := r.next()
	if v > 1<<31-1 {
		r.bad = true
		return 0
	}
	return int32(v)
}

// remaining returns the undecoded byte count.
func (r *uvarintReader) remaining() int { return len(r.data) - r.pos }
