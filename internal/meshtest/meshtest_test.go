package meshtest

import (
	"testing"

	"ndmesh/internal/grid"
)

func TestNewBoxValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("inverted box accepted")
		}
	}()
	NewBox(grid.Coord{2, 2}, grid.Coord{1, 3})
}

func TestNewBoxDimMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched corners accepted")
		}
	}()
	NewBox(grid.Coord{1}, grid.Coord{2, 3})
}
