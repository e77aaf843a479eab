package route

import "ndmesh/internal/grid"

// Used returns the used-direction set recorded at node id of a message on
// the given shape.
func (msg *Message) Used(shape *grid.Shape, id grid.NodeID) grid.DirSet {
	if msg.strayed {
		if i := msg.find(id); i >= 0 {
			return (*msg.table)[i].used
		}
		return 0
	}
	u := msg.Src
	for _, d := range msg.path {
		if u == id {
			return grid.DirSet(0).Add(d)
		}
		u = shape.Neighbor(u, d)
	}
	return 0
}

// visits returns the message's used-direction table, nil while it holds
// none.
func (msg *Message) visits() []visit {
	if msg.table == nil {
		return nil
	}
	return *msg.table
}
