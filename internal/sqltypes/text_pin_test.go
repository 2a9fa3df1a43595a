package sqltypes_test

import (
	"bytes"
	"encoding/binary"
	"testing"

	"xdb/internal/sqltypes"
	"xdb/internal/tpch"
)

// referenceRowText is the text encoding by definition: every value rendered
// by Value.String (NULL as empty), behind a type tag and a 4-byte length,
// after a 4-byte column count. It models the bytes of a JDBC-style
// connector, which the MariaDB/Hive profiles and the presto baseline are
// costed by.
func referenceRowText(dst []byte, r sqltypes.Row) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(r)))
	for _, v := range r {
		dst = append(dst, byte(v.T))
		s := ""
		if !v.IsNull() {
			s = v.String()
		}
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(s)))
		dst = append(dst, s...)
	}
	return dst
}

// TestTextEncodingPinnedOnTPCH: the allocation-free text encoder produces,
// for every generated row of every TPC-H table, exactly the bytes of the
// definition above — and it does not allocate.
func TestTextEncodingPinnedOnTPCH(t *testing.T) {
	edge := sqltypes.Row{
		sqltypes.Null, sqltypes.NewBool(true), sqltypes.NewBool(false), sqltypes.NewInt(-1 << 63),
		sqltypes.NewFloat(1e21), sqltypes.NewFloat(-0.1), sqltypes.NewDate(0), sqltypes.NewDate(-719468),
		sqltypes.NewDate(-719469), sqltypes.NewDate(2932896), sqltypes.NewDate(2932897), sqltypes.NewDate(-1),
		sqltypes.DateFromYMD(2000, 2, 29), sqltypes.DateFromYMD(1900, 3, 1),
	}
	var got, want []byte
	check := func(table string, rows []sqltypes.Row) {
		for i, r := range rows {
			got, want = sqltypes.AppendRowText(got[:0], r), referenceRowText(want[:0], r)
			if !bytes.Equal(got, want) {
				t.Fatalf("%s row %d %v: encoded\n  %q\nwant\n  %q", table, i, r, got, want)
			}
		}
	}
	check("edge cases", []sqltypes.Row{edge})
	var dates []sqltypes.Row // years 0 to 10000, every 97th day
	for d := int64(-719600); d < 2933000; d += 97 {
		dates = append(dates, sqltypes.Row{sqltypes.NewDate(d)})
	}
	check("dates", dates)
	for table, rows := range tpch.NewGenerator(0.002, 42).GenAll() {
		check(table, rows)
	}
	buf := make([]byte, 0, 1024)
	if n := testing.AllocsPerRun(100, func() { buf = sqltypes.AppendRowText(buf[:0], edge) }); n != 0 {
		t.Errorf("AppendRowText allocates %v times per row", n)
	}
}
