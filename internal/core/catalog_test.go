package core

import (
	"sync"
	"testing"

	"xdb/internal/engine"
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
			cat := NewCatalog()
			cat.Put(&TableInfo{Name: "T", Node: "db1"})
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
					cat.Put(&TableInfo{Name: "T", Node: "db1"})
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

// TestCatalogLearnRefreshConcurrent races corrections against reports
// (run under -race by `make race`): every published entry stays
// consistent — a correction always remembers the report it stands in
// for, plain statistics are the report — and the last report wins.
func TestCatalogLearnRefreshConcurrent(t *testing.T) {
	cat := NewCatalog()
	cat.Put(&TableInfo{Name: "t", Node: "db1"})
	a, b := rowsStats(100), rowsStats(200)
	cat.Refresh("t", nil, a)

	check := func(info *TableInfo) {
		if info.Learned && info.Reported == nil {
			t.Errorf("learned entry without a report: %+v", info)
		}
		if !info.Learned && info.Stats != info.Reported {
			t.Errorf("plain entry's statistics are not its report: %+v", info)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(2)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				from, _ := cat.Lookup("t")
				cat.Learn(from, rowsStats(int64(1000+g*1000+i)))
				check(from)
			}
		}(g)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				st := a
				if (g+i)%2 == 0 {
					st = b
				}
				cat.Refresh("t", nil, st)
			}
		}(g)
	}
	wg.Wait()
	final := rowsStats(300)
	cat.Refresh("t", nil, final)
	if info, _ := cat.Lookup("t"); info.Stats != final || info.Learned {
		t.Errorf("entry after the last report = %+v, want its statistics, not learned", info)
	}
}
