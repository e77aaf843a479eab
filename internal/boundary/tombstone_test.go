package boundary

import (
	"testing"

	"ndmesh/internal/grid"
	"ndmesh/internal/info"
	"ndmesh/internal/mesh"
)

// TestCancelMarksOnlyWhileOutrunnable pins when a cancellation leaves
// tombstones: only while a deposit of its block older than the cancellation
// is in flight, since no other deposit can be stopped by one. It runs the
// Figure 1 block's placement three ways: a cancel after its deposit finished
// (no marks, ever), a cancel racing its deposit from the opposite frame
// corner (marks, and the deposit is outrun where the cancel swept first), and
// a newer deposit over the marks that race left (it passes them all).
func TestCancelMarksOnlyWhileOutrunnable(t *testing.T) {
	m := stabilized(t)
	shape := m.Shape()
	near, far := shape.Index(grid.Coord{6, 4, 5}), shape.Index(grid.Coord{2, 7, 2})
	run := func(p *Protocol, each func()) {
		t.Helper()
		for rounds := 0; !p.Quiescent(); rounds++ {
			if rounds > 500 {
				t.Fatal("floods did not terminate")
			}
			p.Round()
			each()
		}
	}
	placed := func(store *info.Store) (held, enabled int) {
		b, ok := store.Find(fig1Box)
		for _, id := range Placement(shape, fig1Box) {
			if m.Status(id) != mesh.Enabled {
				continue
			}
			enabled++
			if ok && store.Has(id, b) {
				held++
			}
		}
		return held, enabled
	}

	t.Run("no-older-deposit", func(t *testing.T) {
		store := info.NewStore(shape)
		p := NewProtocol(m, store)
		p.Start(store.Intern(fig1Box), 1, Deposit, []grid.NodeID{near})
		run(p, func() {})
		if held, enabled := placed(store); held != enabled {
			t.Fatalf("deposit reached %d of %d placement nodes", held, enabled)
		}
		p.Start(store.Intern(fig1Box), 2, Cancel, []grid.NodeID{far})
		run(p, func() {
			if n := p.live; n != 0 {
				t.Fatalf("cancel with no deposit in flight holds %d tombstones in round %d", n, p.round)
			}
		})
		if n := store.TotalRecords(); n != 0 {
			t.Fatalf("%d records survive the cancel", n)
		}
	})

	t.Run("older-deposit-then-newer", func(t *testing.T) {
		store := info.NewStore(shape)
		p := NewProtocol(m, store)
		p.Start(store.Intern(fig1Box), 1, Deposit, []grid.NodeID{near})
		p.Start(store.Intern(fig1Box), 2, Cancel, []grid.NodeID{far})
		peak := 0
		run(p, func() { peak = max(peak, p.live) })
		if peak == 0 {
			t.Fatal("cancel racing an older deposit left no tombstones")
		}
		// Every node the deposit reached first was swept after it; every
		// node the cancel swept first stopped the deposit.
		if n := store.TotalRecords(); n != 0 {
			t.Fatalf("%d records survive: the deposit was not outrun where the cancel swept first", n)
		}
		if p.live == 0 {
			t.Fatal("the marks expired before the newer deposit could meet them")
		}
		p.Start(store.Intern(fig1Box), 3, Deposit, []grid.NodeID{near})
		run(p, func() {})
		if held, enabled := placed(store); held != enabled {
			t.Fatalf("newer deposit reached %d of %d placement nodes past the marks", held, enabled)
		}
	})
}

// TestMarkRule holds markRule to its three cases, and entomb under
// refreshMarks to refreshing only a mark already there.
func TestMarkRule(t *testing.T) {
	m := stabilized(t)
	store := info.NewStore(m.Shape())
	p := NewProtocol(m, store)
	a, b := store.Intern(fig1Box), store.Intern(grid.BoxAt(grid.Coord{0, 0, 0}))
	seed := []grid.NodeID{m.Shape().Index(grid.Coord{6, 4, 5})}
	c := p.Start(a, 5, Cancel, seed)
	if got := p.markRule(c); got != noMarks {
		t.Fatalf("no deposit in flight: rule %d, want noMarks", got)
	}
	p.Start(b, 1, Deposit, seed)
	if got := p.markRule(c); got != noMarks {
		t.Fatalf("another block's deposit in flight: rule %d, want noMarks", got)
	}
	p.Start(a, 7, Deposit, seed)
	if got := p.markRule(c); got != refreshMarks {
		t.Fatalf("newer deposit in flight: rule %d, want refreshMarks", got)
	}
	p.Start(a, 3, Deposit, seed)
	if got := p.markRule(c); got != leaveMarks {
		t.Fatalf("older deposit in flight: rule %d, want leaveMarks", got)
	}

	id, other := seed[0], m.Shape().Index(grid.Coord{2, 7, 2})
	c.marks = refreshMarks
	p.entomb(id, c)
	if n := p.live; n != 0 {
		t.Fatalf("refreshing with no mark held left %d", n)
	}
	c.marks = leaveMarks
	p.entomb(id, c)
	p.round += 3
	newer := p.Start(a, 9, Cancel, seed)
	newer.marks = refreshMarks
	p.entomb(other, newer)
	p.entomb(id, newer)
	if n := p.live; n != 1 {
		t.Fatalf("refreshing left a mark: %d held, want 1", n)
	}
	if tb := p.tombs[p.findTomb(id, a)]; tb.epoch != 9 || tb.round != p.round {
		t.Fatalf("refreshed mark has epoch %d round %d, want 9 and %d", tb.epoch, tb.round, p.round)
	}
}
