package core

import (
	"testing"

	"xdb/internal/engine"
	"xdb/internal/planner"
)

func rowsStats(rows int64) *engine.TableStats { return &engine.TableStats{RowCount: rows} }

// TestCatalogRefreshLearn walks the catalog entry through its transitions:
// reports from the home DBMS (Refresh), learned corrections (Learn), and
// re-registration (Put). Each step states what Learn returns and what the
// entry then holds.
func TestCatalogRefreshLearn(t *testing.T) {
	a, b, c := rowsStats(100), rowsStats(200), rowsStats(1000)
	type step struct {
		do          string // "report", "learn", "learn-stale" or "register"
		st          *engine.TableStats
		want        bool // Learn's published (false for the other steps)
		wantRows    int64
		wantLearned bool
	}
	cases := []struct {
		name  string
		steps []step
	}{
		{"the first report is adopted without a change", []step{
			{"report", a, false, 100, false},
		}},
		{"a repeated report keeps the correction learned against it", []step{
			{"report", a, false, 100, false},
			{"learn", c, true, 1000, true},
			{"report", rowsStats(100), false, 1000, true},
		}},
		{"a new report replaces the correction", []step{
			{"report", a, false, 100, false},
			{"learn", c, true, 1000, true},
			{"report", b, false, 200, false},
		}},
		{"a report matching the correction clears the mark, nothing changed", []step{
			{"report", a, false, 100, false},
			{"learn", c, true, 1000, true},
			{"report", rowsStats(1000), false, 1000, false},
		}},
		{"a new report replaces plain statistics", []step{
			{"report", a, false, 100, false},
			{"report", b, false, 200, false},
		}},
		{"a second correction keeps the first one's report", []step{
			{"report", a, false, 100, false},
			{"learn", c, true, 1000, true},
			{"learn", b, true, 200, true},
			{"report", rowsStats(100), false, 200, true},
		}},
		{"learning the current statistics is a no-op", []step{
			{"report", a, false, 100, false},
			{"learn", rowsStats(100), false, 100, false},
		}},
		{"learning onto an entry without statistics is a no-op", []step{
			{"learn", c, false, 0, false},
		}},
		{"a correction derived from a republished entry is refused", []step{
			{"report", a, false, 100, false},
			{"learn-stale", c, false, 200, false},
		}},
		{"re-registering a table clears its learned facts", []step{
			{"report", a, false, 100, false},
			{"learn", c, true, 1000, true},
			{"register", nil, false, 0, false},
			{"report", rowsStats(100), false, 100, false},
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cat := planner.NewCatalog()
			cat.Put(&planner.TableInfo{Name: "T", Node: "db1"})
			for i, s := range tc.steps {
				var got bool
				switch s.do {
				case "report":
					cat.Refresh("t", nil, s.st)
				case "learn":
					from, _ := cat.Lookup("t")
					got = cat.Learn(from, s.st)
				case "learn-stale":
					// The correction is derived from the entry as read;
					// a new report (b) lands before it is learned.
					from, _ := cat.Lookup("t")
					cat.Refresh("t", nil, b)
					got = cat.Learn(from, s.st)
				case "register":
					cat.Put(&planner.TableInfo{Name: "T", Node: "db1"})
				}
				info, _ := cat.Lookup("t")
				var rows int64
				if info.Stats != nil {
					rows = info.Stats.RowCount
				}
				if got != s.want || rows != s.wantRows || info.Learned != s.wantLearned {
					t.Fatalf("step %d (%s): returned %v, entry rows=%d learned=%v; want %v, rows=%d learned=%v",
						i, s.do, got, rows, info.Learned, s.want, s.wantRows, s.wantLearned)
				}
			}
		})
	}
}
