package traffic

import (
	"encoding/binary"
	"math"
	"reflect"
	"testing"

	"ndmesh/internal/fault"
	"ndmesh/internal/grid"
	"ndmesh/internal/meshtest"
	"ndmesh/internal/rng"
)

// recordOffers runs an open-loop generator under a recorder for steps
// steps, returning the trace and the offers the run actually saw.
func recordOffers(t *testing.T, shape *grid.Shape, steps int) (*Trace, [][2]grid.NodeID) {
	t.Helper()
	pat, err := ByName(shape, "uniform")
	if err != nil {
		t.Fatal(err)
	}
	gen := NewGenerator(shape, pat, &Bernoulli{}, 0.3, rng.New(11))
	tr := &Trace{
		Dims: shape.Radices(), Rate: 0.3,
		Warmup: 2, Measure: steps - 2, Drain: 4,
	}
	var rec TraceRecorder
	rec.Reset(gen, tr)
	// The recorder reset the trace, so the fault schedule attaches after —
	// the same order loadPoint uses.
	tr.Faults = append(tr.Faults,
		fault.Event{Step: 3, Node: 5, Kind: fault.Fail},
		fault.Event{Step: 9, Node: 5, Kind: fault.Recover})
	var seen [][2]grid.NodeID
	for s := 0; s < steps; s++ {
		rec.Step(func(src, dst grid.NodeID) bool {
			seen = append(seen, [2]grid.NodeID{src, dst})
			return src%2 == 0 // mixed verdicts: refusals must be recorded too
		})
	}
	return tr, seen
}

// TestTraceRecordsEveryOffer pins what a trace captures: every offer the
// source made — accepted or refused — in step order.
func TestTraceRecordsEveryOffer(t *testing.T) {
	shape := meshtest.MustShape(4, 4)
	tr, seen := recordOffers(t, shape, 12)
	if tr.Steps() != 12 {
		t.Fatalf("trace recorded %d steps, want 12", tr.Steps())
	}
	if tr.Offers() != len(seen) {
		t.Fatalf("trace recorded %d offers, run saw %d", tr.Offers(), len(seen))
	}
	var replayed [][2]grid.NodeID
	var p TracePlayer
	p.Reset(tr)
	for s := 0; s < 12; s++ {
		p.Step(func(src, dst grid.NodeID) bool {
			replayed = append(replayed, [2]grid.NodeID{src, dst})
			return true
		})
	}
	if !reflect.DeepEqual(replayed, seen) {
		t.Fatalf("replay diverged from recording:\n got %v\nwant %v", replayed, seen)
	}
}

// TestTraceMarshalRoundTrip pins the binary format: marshal → unmarshal
// reproduces the trace exactly, including metadata, fault schedule and the
// full offer stream.
func TestTraceMarshalRoundTrip(t *testing.T) {
	shape := meshtest.MustShape(4, 4)
	tr, _ := recordOffers(t, shape, 12)
	tr.Window = 0
	tr.ClosedLoop = false

	got, err := UnmarshalTrace(tr.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, tr) {
		t.Fatalf("round trip diverged:\n got %+v\nwant %+v", got, tr)
	}
	if err := got.Validate(shape.Radices()); err != nil {
		t.Fatalf("round-tripped trace failed validation: %v", err)
	}

	// Closed-loop metadata survives too.
	tr.Window = 8
	tr.ClosedLoop = true
	tr.Rate = 0
	got, err = UnmarshalTrace(tr.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if !got.ClosedLoop || got.Window != 8 || got.Rate != 0 {
		t.Fatalf("closed-loop metadata lost: %+v", got)
	}

	// The v2 escape-mechanism metadata (flight timeout, gridlock window,
	// bubble admission) rides the same round trip.
	tr.FlightTimeout = 16
	tr.GridlockWindow = 8
	tr.Bubble = true
	got, err = UnmarshalTrace(tr.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if got.FlightTimeout != 16 || got.GridlockWindow != 8 || !got.Bubble {
		t.Fatalf("escape-mechanism metadata lost: %+v", got)
	}
}

// TestTracePlayerPastEnd pins the drain behavior: steps beyond the
// recording offer nothing (and do not panic).
func TestTracePlayerPastEnd(t *testing.T) {
	shape := meshtest.MustShape(4, 4)
	tr, _ := recordOffers(t, shape, 5)
	var p TracePlayer
	p.Reset(tr)
	for s := 0; s < 5; s++ {
		p.Step(func(src, dst grid.NodeID) bool { return true })
	}
	p.Step(func(src, dst grid.NodeID) bool {
		t.Fatal("offer past the end of the recording")
		return false
	})
}

// TestUnmarshalTraceRejectsCorrupt pins the format's defenses: bad magic,
// unknown version, truncation and inconsistent counts all error instead of
// yielding a half-parsed trace.
func TestUnmarshalTraceRejectsCorrupt(t *testing.T) {
	shape := meshtest.MustShape(4, 4)
	tr, _ := recordOffers(t, shape, 8)
	good := tr.Marshal()

	if _, err := UnmarshalTrace([]byte("not a trace")); err == nil {
		t.Error("bad magic accepted")
	}
	bad := append([]byte(nil), good...)
	bad[4] = 99 // version byte (uvarint, small values are one byte)
	if _, err := UnmarshalTrace(bad); err == nil {
		t.Error("unknown version accepted")
	}
	if _, err := UnmarshalTrace(good[:len(good)/2]); err == nil {
		t.Error("truncated trace accepted")
	}
	if _, err := UnmarshalTrace(good[:len(good)-1]); err == nil {
		t.Error("trace missing its final byte accepted")
	}
	// A recording writes a validated rate or 0, never a non-finite or
	// negative one.
	for _, rate := range []float64{math.NaN(), math.Inf(1), -0.1} {
		bad := *tr
		bad.Rate = rate
		if _, err := UnmarshalTrace(bad.Marshal()); err == nil {
			t.Errorf("trace rate %v accepted", rate)
		}
	}
}

// marshalV1 encodes a trace with no escape metadata in format version 1,
// whose header ends at NodeCapacity.
func marshalV1(tr *Trace) []byte {
	buf := append([]byte(traceMagic), 1)
	buf = binary.AppendUvarint(buf, uint64(len(tr.Dims)))
	for _, d := range tr.Dims {
		buf = binary.AppendUvarint(buf, uint64(d))
	}
	buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(tr.Rate))
	flags := 0
	if tr.ClosedLoop {
		flags = 1
	}
	for _, v := range []int{tr.Window, flags, tr.Warmup, tr.Measure, tr.Drain, tr.Lambda, tr.LinkRate, tr.NodeCapacity} {
		buf = binary.AppendUvarint(buf, uint64(v))
	}
	// Version 2 has the same header up to here (both versions are one
	// byte), then three one-byte zero escape fields.
	return append(buf, tr.Marshal()[len(buf)+3:]...)
}

// FuzzUnmarshalTrace: on any bytes the decoder returns a trace or an error,
// never a panic, and an accepted trace decodes back from its own Marshal to
// an equal trace (a NaN rate would not: NaN is unequal to itself). Seeded
// with a recording, its version-1 encoding and truncations of both.
func FuzzUnmarshalTrace(f *testing.F) {
	shape := meshtest.MustShape(4, 4)
	pat, err := ByName(shape, "uniform")
	if err != nil {
		f.Fatal(err)
	}
	var tr Trace
	gen := NewGenerator(shape, pat, &Bernoulli{}, 0.3, rng.New(3))
	var rec TraceRecorder
	rec.Reset(gen, &tr)
	tr.Dims, tr.Rate, tr.Warmup, tr.Measure, tr.Drain = []int{4, 4}, 0.3, 2, 4, 6
	for s := 0; s < 6; s++ {
		rec.Step(func(src, dst grid.NodeID) bool { return true })
	}
	tr.Faults = append(tr.Faults, fault.Event{Step: 3, Node: 5, Kind: fault.Fail})
	v2, v1 := tr.Marshal(), marshalV1(&tr)
	if got, err := UnmarshalTrace(v1); err != nil || !reflect.DeepEqual(got, &tr) {
		f.Fatalf("the version-1 seed does not decode to its trace: %v", err)
	}
	for _, seed := range [][]byte{v2, v1, v2[:len(v2)/2], v1[:len(v1)-1], v2[:len(traceMagic)+1]} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := UnmarshalTrace(data)
		if err != nil {
			return
		}
		again, err := UnmarshalTrace(got.Marshal())
		if err != nil {
			t.Fatalf("an accepted trace does not decode from its own Marshal: %v", err)
		}
		if !reflect.DeepEqual(again, got) {
			t.Fatalf("round trip diverged:\n got %+v\nwant %+v", again, got)
		}
	})
}

// TestUnmarshalTraceRejectsOversizedCounts pins the allocation guard: a
// tiny crafted file whose length fields claim billions of elements must
// error instead of attempting multi-gigabyte allocations, and values past
// int32 must be rejected instead of silently truncated into a different
// workload.
func TestUnmarshalTraceRejectsOversizedCounts(t *testing.T) {
	craft := func(mutate func(tr *Trace) []byte) []byte {
		tr := &Trace{Dims: []int{4, 4}, Measure: 1, Drain: 1}
		tr.beginStep()
		tr.appendOffer(1, 2)
		return mutate(tr)
	}
	// ns=1 but counts[0] claims 2^31-1 offers: np matches the sum, yet the
	// remaining bytes cannot possibly hold them.
	huge := craft(func(tr *Trace) []byte {
		tr.counts[0] = 1<<31 - 1
		buf := tr.Marshal()
		return buf[:len(buf)-4] // drop the one real pair; np stays huge
	})
	if _, err := UnmarshalTrace(huge); err == nil {
		t.Error("trace claiming 2^31-1 offers in a few bytes accepted")
	}
	// A fault count far past the buffer must be caught before allocation.
	manyFaults := craft(func(tr *Trace) []byte {
		for i := 0; i < 1000; i++ {
			tr.Faults = append(tr.Faults, fault.Event{Step: i, Node: 1})
		}
		buf := tr.Marshal()
		return buf[:40]
	})
	if _, err := UnmarshalTrace(manyFaults); err == nil {
		t.Error("truncated trace with a large fault table accepted")
	}
	// Phases that disagree with the recorded step table must be rejected:
	// a bit-flipped Measure would otherwise misalign the measurement
	// window (or spin the replay engine for a crafted number of steps).
	badPhases := craft(func(tr *Trace) []byte {
		tr.Measure = 1 << 20
		return tr.Marshal()
	})
	if _, err := UnmarshalTrace(badPhases); err == nil {
		t.Error("phases disagreeing with the step table accepted")
	}
	hugeDrain := craft(func(tr *Trace) []byte {
		tr.Drain = 1 << 30
		return tr.Marshal()
	})
	if _, err := UnmarshalTrace(hugeDrain); err == nil {
		t.Error("drain past the format cap accepted")
	}

	// A node id past int32 must error, not truncate.
	tr := &Trace{Dims: []int{4, 4}, Measure: 1}
	tr.beginStep()
	tr.appendOffer(1, 2)
	buf := tr.Marshal()
	// The final uvarint is dst=2 (one byte); rewrite it as 2^35.
	buf = append(buf[:len(buf)-1], 0x80, 0x80, 0x80, 0x80, 0x80, 0x01)
	if _, err := UnmarshalTrace(buf); err == nil {
		t.Error("endpoint past int32 accepted (silent truncation)")
	}
}

// TestTraceValidate pins the replay-time checks: shape mismatches and
// out-of-mesh endpoints are rejected before a replay can misindex.
func TestTraceValidate(t *testing.T) {
	shape := meshtest.MustShape(4, 4)
	tr, _ := recordOffers(t, shape, 6)
	if err := tr.Validate([]int{5, 5}); err == nil {
		t.Error("shape mismatch accepted")
	}
	tr2, _ := recordOffers(t, shape, 6)
	if tr2.Offers() == 0 {
		t.Fatal("recording offered nothing; test lost its teeth")
	}
	tr2.dsts[0] = 99 // outside the 16-node mesh
	if err := tr2.Validate(shape.Radices()); err == nil {
		t.Error("out-of-mesh endpoint accepted")
	}
	tr3, _ := recordOffers(t, shape, 6)
	tr3.Faults[0].Node = -2
	if err := tr3.Validate(shape.Radices()); err == nil {
		t.Error("out-of-mesh fault node accepted")
	}
}
