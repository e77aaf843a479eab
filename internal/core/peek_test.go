package core

import (
	"fmt"
	"reflect"

	"ndmesh/internal/info"
)

// The model's tests digest and bound a few counters of the protocols it
// owns that no production path reads, so the protocols export no accessor
// for them; these helpers read the fields by name. A renamed field panics
// here rather than reading zero.

// floods returns the boundary floods in flight.
func floods(md *Model) int { return field(md.Boundary, "cons").Len() }

// floodBlocks appends to dst the blocks in-flight floods hold (with
// repeats): each flood's base blocks.
func floodBlocks(dst []info.BlockID, md *Model) []info.BlockID {
	cons := field(md.Boundary, "cons")
	for i := 0; i < cons.Len(); i++ {
		bases := cons.Index(i).Elem().FieldByName("bases")
		for j := 0; j < bases.Len(); j++ {
			dst = append(dst, info.BlockID(bases.Index(j).Int()))
		}
	}
	return dst
}

// tombstones returns the cancel tombstones the nodes hold.
func tombstones(md *Model) int { return int(field(md.Boundary, "live").Int()) }

// identRuns returns the identification runs in flight.
func identRuns(md *Model) int { return field(md.Ident, "runs").Len() }

// namedBlocks returns how many ids the store's box table holds.
func namedBlocks(md *Model) int { return field(md.Store, "refs").Len() - field(md.Store, "free").Len() }

// field returns the named field of the struct p points to.
func field(p any, name string) reflect.Value {
	v := reflect.ValueOf(p).Elem().FieldByName(name)
	if !v.IsValid() {
		panic(fmt.Sprintf("core: %T has no field %s", p, name))
	}
	return v
}
