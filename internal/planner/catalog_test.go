package planner

import (
	"sync"
	"testing"

	"xdb/internal/engine"
)

func stats(rows int64) *engine.TableStats { return &engine.TableStats{RowCount: rows} }

// TestCatalogLearnRefreshConcurrent races corrections against reports
// (run under -race by `make race`): every published entry stays
// consistent — a correction always remembers the report it stands in
// for, plain statistics are the report — and the last report wins.
func TestCatalogLearnRefreshConcurrent(t *testing.T) {
	cat := NewCatalog()
	cat.Put(&TableInfo{Name: "t", Node: "db1"})
	a, b := stats(100), stats(200)
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
				cat.Learn(from, stats(int64(1000+g*1000+i)))
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
	final := stats(300)
	cat.Refresh("t", nil, final)
	if info, _ := cat.Lookup("t"); info.Stats != final || info.Learned {
		t.Errorf("entry after the last report = %+v, want its statistics, not learned", info)
	}
}
