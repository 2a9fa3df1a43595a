package sqltypes

import "testing"

var benchRow = Row{
	NewInt(123456789),
	NewFloat(3.14159),
	NewString("BUILDING"),
	NewDate(9200),
	NewBool(true),
	NewString("carefully final deposits sleep furiously"),
}

func BenchmarkAppendRowBinary(b *testing.B) {
	buf := make([]byte, 0, 256)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = AppendRow(buf[:0], benchRow)
	}
}

func BenchmarkDecodeRowBinary(b *testing.B) {
	enc := AppendRow(nil, benchRow)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := DecodeRow(enc); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAppendRowText(b *testing.B) {
	buf := make([]byte, 0, 256)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = AppendRowText(buf[:0], benchRow)
	}
}

func BenchmarkDecodeRowText(b *testing.B) {
	enc := AppendRowText(nil, benchRow)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := DecodeRowText(enc); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHashRow(b *testing.B) {
	cols := []int{0, 2, 3}
	for i := 0; i < b.N; i++ {
		if HashRow(benchRow, cols) == 0 {
			b.Fatal("zero hash")
		}
	}
}

// BenchmarkHasColumn asks what the join planners ask most: does a
// reference resolve here? Mostly it does not, and must cost no allocation
// either way (Resolve would render the whole schema into its error).
func BenchmarkHasColumn(b *testing.B) {
	s := &Schema{}
	for _, t := range []string{"lineitem", "orders", "customer"} {
		for _, c := range []string{"key", "name", "price", "date", "comment", "flag"} {
			s.Columns = append(s.Columns, Column{Name: t[:1] + "_" + c, Table: t, Type: TypeInt})
		}
	}
	probe := func() {
		if !s.HasColumn("orders", "o_date") || s.HasColumn("", "s_suppkey") || s.HasColumn("part", "o_date") {
			b.Fatal("HasColumn answered wrong")
		}
	}
	if allocs := testing.AllocsPerRun(100, probe); allocs != 0 {
		b.Fatalf("HasColumn allocates: %v allocs per 3 lookups, want 0", allocs)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		probe()
	}
}
