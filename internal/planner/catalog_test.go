package planner

import (
	"math"
	"sync"
	"testing"

	"xdb/internal/engine"
	"xdb/internal/sqltypes"
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

// TestCatalogRefreshSameReport: a report built anew but the same as the
// one in the catalog changes nothing, also where an extreme's payload bits
// are a NaN's (int -1, a date before 1970) or a negative zero's
// (MinInt64): the learned correction and its mark stay, and a plan built
// from the report still holds. A report whose extreme is int 0 instead of
// MinInt64 is a new report.
func TestCatalogRefreshSameReport(t *testing.T) {
	schema := sqltypes.NewSchema(
		sqltypes.Column{Name: "i", Type: sqltypes.TypeInt},
		sqltypes.Column{Name: "d", Type: sqltypes.TypeDate},
		sqltypes.Column{Name: "z", Type: sqltypes.TypeInt},
	)
	report := func(zmin int64) *engine.TableStats {
		return engine.ComputeStats(schema, []sqltypes.Row{
			{sqltypes.NewInt(-1), sqltypes.NewDate(-1), sqltypes.NewInt(zmin)},
			{sqltypes.NewInt(5), sqltypes.DateFromYMD(1931, 5, 1), sqltypes.NewInt(9)},
		})
	}
	cat := NewCatalog()
	cat.Put(&TableInfo{Name: "t", Node: "db1"})
	cat.Refresh("t", nil, report(math.MinInt64))
	if !cat.Holds([]*Scan{{Table: "t", Node: "db1", Stats: report(math.MinInt64)}}) {
		t.Error("a plan built from an equal report does not hold")
	}
	from, _ := cat.Lookup("t")
	if !cat.Learn(from, stats(1)) {
		t.Fatal("the correction was refused")
	}
	learned, _ := cat.Lookup("t")
	cat.Refresh("t", nil, report(math.MinInt64))
	if info, _ := cat.Lookup("t"); info != learned || !info.Learned {
		t.Errorf("an equal report replaced the learned entry: %+v", info)
	}
	cat.Refresh("t", nil, report(0))
	if info, _ := cat.Lookup("t"); info.Learned || info.Stats.Columns[2].Min.I() != 0 {
		t.Errorf("a report with a new extreme was not adopted: %+v", info)
	}
}
