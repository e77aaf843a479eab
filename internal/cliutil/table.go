// This file is the one definition of the open-loop (E19) result table:
// the column order, the cell formatting, and the CSV rendition. It exists
// so the meshd daemon's streamed CSV and loadgen's batch CSV are the same
// bytes by construction — the CI smoke job diffs the two outputs whole,
// and a drive-by format tweak that touched only one of them would be a
// silent contract break. Change the columns here and both sides move
// together.

package cliutil

import (
	"fmt"
	"strings"

	"ndmesh"
	"ndmesh/internal/stats"
)

// OpenLoopHeader returns the open-loop saturation table's column names,
// in order.
func OpenLoopHeader() []string {
	return []string{
		"pattern", "router", "offered", "accepted", "delivered", "dropped",
		"unreach", "lost", "unfin", "lat mean", "p50", "p95", "p99", "max",
	}
}

// OpenLoopCells renders one saturation row into table cells, with the
// offered/accepted rates at the sweep's canonical three decimals. The
// cells are stats.Table.AddRow arguments; CSVLine formats them with the
// identical rules, so a streamed CSV row matches the batch table's.
func OpenLoopCells(r ndmesh.SaturationRow) []any {
	return []any{
		r.Pattern, r.Router,
		fmt.Sprintf("%.3f", r.OfferedRate), fmt.Sprintf("%.3f", r.AcceptedRate),
		r.Delivered, r.Dropped, r.Unreachable, r.Lost, r.Unfinished,
		r.LatMean, r.LatP50, r.LatP95, r.LatP99, r.LatMax,
	}
}

// OpenLoopTable builds the full open-loop result table from a sweep's
// rows — the batch path (cmd/loadgen) in one call.
func OpenLoopTable(title string, rows []ndmesh.SaturationRow) *stats.Table {
	tab := stats.NewTable(title, OpenLoopHeader()...)
	for _, r := range rows {
		tab.AddRow(OpenLoopCells(r)...)
	}
	return tab
}

// CSVHeader renders a header slice as one CSV line (trailing newline
// included), matching stats.Table.CSV's header line.
func CSVHeader(header []string) string {
	return strings.Join(header, ",") + "\n"
}

// CSVLine renders one row of AddRow-style cells as a CSV line (trailing
// newline included), each cell by stats.Cell, the rule Table.AddRow uses.
// Pinned against Table.CSV by TestCSVLineMatchesTable, so the incremental
// writer (meshd streaming rows as cells complete) cannot drift from the
// batch one.
func CSVLine(cells []any) string {
	var b strings.Builder
	for i, c := range cells {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(stats.Cell(c))
	}
	b.WriteByte('\n')
	return b.String()
}
