package engine

import (
	"strings"
	"testing"

	"xdb/internal/sqltypes"
)

// TestForeignTableWidthChecked: a foreign table's stream carries no schema
// (the FDW asks for rows only), so the consumer holds the first batch to
// the width its CREATE FOREIGN TABLE declared. A remote relation one
// column narrower or wider fails the statement with an error naming the
// foreign table, whether the scan streams, fills a materialized copy
// scanned serially, or fills one that heads a morsel exchange.
func TestForeignTableWidthChecked(t *testing.T) {
	const n = 4 * morselRows // two morsels per worker at two workers
	for _, width := range []int{boundarySchema.Len() - 1, boundarySchema.Len() + 1} {
		rows := make([]sqltypes.Row, n)
		for i := range rows {
			rows[i] = make(sqltypes.Row, width)
			for j := range rows[i] {
				rows[i][j] = sqltypes.NewInt(int64(i))
			}
		}
		for _, tc := range []struct {
			name        string
			materialize bool
			workers     int
		}{{"streamed", false, 1}, {"materialized", true, 1}, {"exchange", true, 2}} {
			withWorkers(tc.workers, func() {
				remote := &stagedRemote{rels: map[string]*stagedRel{"r": {rows: rows}}}
				e := stagedEngine(t, Profiles(VendorTest), remote, foreignDDL("ft", "r", n, tc.materialize))
				_, err := e.QueryAll("SELECT v FROM ft WHERE k >= 0")
				if err == nil || !strings.Contains(err.Error(), "foreign table ft declares 5 columns") {
					t.Errorf("%s, %d columns sent: err %v", tc.name, width, err)
				}
			})
		}
	}
}
