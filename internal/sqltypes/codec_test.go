package sqltypes

import (
	"encoding/binary"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

func randomValue(r *rand.Rand) Value {
	switch r.Intn(6) {
	case 0:
		return Null
	case 1:
		return NewInt(r.Int63() - r.Int63())
	case 2:
		return NewFloat(r.NormFloat64() * 1e6)
	case 3:
		b := make([]byte, r.Intn(40))
		for i := range b {
			b[i] = byte(r.Intn(256))
		}
		return NewString(string(b))
	case 4:
		return NewBool(r.Intn(2) == 0)
	default:
		return NewDate(int64(r.Intn(30000)))
	}
}

// sameRow reports whether two rows are value by value Same: what a codec
// round trip must give back.
func sameRow(a, b Row) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !Same(a[i], b[i]) {
			return false
		}
	}
	return true
}

func TestValueCodecRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 2000; i++ {
		v := randomValue(r)
		enc := AppendValue(nil, v)
		got, n, err := DecodeValue(enc)
		if err != nil {
			t.Fatalf("DecodeValue(%v): %v", v, err)
		}
		if n != len(enc) {
			t.Fatalf("DecodeValue(%v) consumed %d of %d bytes", v, n, len(enc))
		}
		if !Same(got, v) {
			t.Fatalf("round trip: got %+v, want %+v", got, v)
		}
	}
}

func TestRowCodecRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for i := 0; i < 500; i++ {
		row := make(Row, r.Intn(12))
		for j := range row {
			row[j] = randomValue(r)
		}
		enc := AppendRow(nil, row)
		if len(enc) != row.EncodedSize() {
			t.Fatalf("EncodedSize=%d, actual=%d", row.EncodedSize(), len(enc))
		}
		got, n, err := DecodeRow(enc)
		if err != nil {
			t.Fatal(err)
		}
		if n != len(enc) {
			t.Fatalf("consumed %d of %d bytes", n, len(enc))
		}
		if len(got) != len(row) {
			t.Fatalf("got %d columns, want %d", len(got), len(row))
		}
		for j := range row {
			if !Same(got[j], row[j]) {
				t.Fatalf("column %d: got %+v, want %+v", j, got[j], row[j])
			}
		}
	}
}

func TestRowCodecConcatenatedRows(t *testing.T) {
	rows := []Row{
		{NewInt(1), NewString("a")},
		{NewInt(2), Null},
		{NewFloat(1.25), NewBool(true)},
	}
	var buf []byte
	for _, r := range rows {
		buf = AppendRow(buf, r)
	}
	var got []Row
	for len(buf) > 0 {
		r, n, err := DecodeRow(buf)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, r)
		buf = buf[n:]
	}
	if len(got) != len(rows) {
		t.Fatalf("got %v, want %v", got, rows)
	}
	for i := range rows {
		if !sameRow(got[i], rows[i]) {
			t.Fatalf("row %d: got %v, want %v", i, got[i], rows[i])
		}
	}
}

func TestDecodeTruncated(t *testing.T) {
	full := AppendRow(nil, Row{NewInt(5), NewString("hello")})
	for cut := 0; cut < len(full); cut++ {
		if _, _, err := DecodeRow(full[:cut]); err == nil {
			t.Fatalf("DecodeRow of %d/%d bytes succeeded", cut, len(full))
		}
	}
	if _, _, err := DecodeValue([]byte{250}); err == nil {
		t.Error("DecodeValue of unknown tag succeeded")
	}
	// An 11-byte varint, a 10th byte carrying more than the 64th bit, and
	// a string length of 2^62 in a few bytes.
	for _, b := range [][]byte{
		{byte(TypeInt), 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01},
		{byte(TypeInt), 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x02},
		append([]byte{byte(TypeString)}, binary.AppendUvarint(nil, 1<<62)...),
	} {
		if v, _, err := DecodeValue(b); err == nil {
			t.Errorf("DecodeValue(% x) = %v, want an error", b, v)
		}
	}
}

// TestEncodedSizeExact pins the binary format's size of every value shape:
// a 1-byte tag, then a zigzag varint for ints and dates, a uvarint length
// for strings, 8 bytes for floats and one for bools.
func TestEncodedSizeExact(t *testing.T) {
	for _, tc := range []struct {
		v    Value
		size int
	}{
		{NewInt(0), 2}, {NewInt(1), 2}, {NewInt(-1), 2}, {NewInt(-64), 2}, {NewInt(64), 3},
		{NewInt(math.MinInt64), 11}, {NewInt(math.MaxInt64), 11},
		{DateFromYMD(1969, 12, 31), 2}, {DateFromYMD(1960, 1, 1), 3}, {DateFromYMD(1995, 3, 15), 4},
		{NewString(""), 2}, {NewString(strings.Repeat("x", 127)), 129}, {NewString(strings.Repeat("x", 200)), 203},
		{Null, 1}, {NewBool(true), 2}, {NewBool(false), 2}, {NewFloat(-0.5), 9},
	} {
		enc := AppendValue(nil, tc.v)
		if len(enc) != tc.size || tc.v.EncodedSize() != tc.size {
			t.Errorf("%v: encoded %d bytes, EncodedSize %d, want %d", tc.v, len(enc), tc.v.EncodedSize(), tc.size)
		}
		if got, n, err := DecodeValue(enc); err != nil || n != len(enc) || !Same(got, tc.v) {
			t.Errorf("%v: decoded %v from %d of %d bytes, err %v", tc.v, got, n, len(enc), err)
		}
	}
	for _, tc := range []struct {
		row  Row
		size int
	}{{Row{}, 1}, {Row{Null}, 2}, {make(Row, 127), 128}, {make(Row, 128), 130}} {
		if got := len(AppendRow(nil, tc.row)); got != tc.size || tc.row.EncodedSize() != tc.size {
			t.Errorf("%d-column row: encoded %d bytes, EncodedSize %d, want %d", len(tc.row), got, tc.row.EncodedSize(), tc.size)
		}
	}
}

func TestSchemaCodecRoundTrip(t *testing.T) {
	s := NewSchema(
		Column{Name: "id", Table: "c", Type: TypeInt},
		Column{Name: "name", Table: "", Type: TypeString},
		Column{Name: "when", Table: "m", Type: TypeDate},
	)
	enc := AppendSchema(nil, s)
	got, n, err := DecodeSchema(enc)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(enc) {
		t.Fatalf("consumed %d of %d", n, len(enc))
	}
	if !reflect.DeepEqual(got, s) {
		t.Fatalf("got %v, want %v", got, s)
	}
}

func TestTextRowCodecRoundTrip(t *testing.T) {
	rows := []Row{
		{NewInt(123456789), NewFloat(3.25), NewString("BUILDING"), NewDate(9000)},
		{Null, NewBool(true), NewString("")},
		{NewFloat(-1.5e10)},
	}
	for _, row := range rows {
		enc := AppendRowText(nil, row)
		got, n, err := DecodeRowText(enc)
		if err != nil {
			t.Fatalf("DecodeRowText(%v): %v", row, err)
		}
		if n != len(enc) {
			t.Fatalf("consumed %d of %d", n, len(enc))
		}
		for i := range row {
			if !Equal(got[i], row[i]) || got[i].T != row[i].T {
				t.Fatalf("column %d: got %+v, want %+v", i, got[i], row[i])
			}
		}
	}
}

func TestTextEncodingLargerThanBinary(t *testing.T) {
	// The JDBC-style text encoding must cost more bytes than the binary
	// codec for typical rows — the presto baseline's transfer overhead in
	// Fig. 1 depends on this.
	row := Row{NewInt(123456789), NewFloat(3.14159), NewString("BUILDING"), NewDate(9000)}
	bin := AppendRow(nil, row)
	txt := AppendRowText(nil, row)
	if len(txt) <= len(bin) {
		t.Errorf("text encoding (%dB) not larger than binary (%dB)", len(txt), len(bin))
	}
}

func TestSchemaResolve(t *testing.T) {
	s := NewSchema(
		Column{Name: "id", Table: "c", Type: TypeInt},
		Column{Name: "id", Table: "o", Type: TypeInt},
		Column{Name: "total", Table: "o", Type: TypeFloat},
	)
	if i, err := s.Resolve("c", "id"); err != nil || i != 0 {
		t.Errorf("Resolve(c.id) = %d, %v", i, err)
	}
	if i, err := s.Resolve("o", "total"); err != nil || i != 2 {
		t.Errorf("Resolve(o.total) = %d, %v", i, err)
	}
	if i, err := s.Resolve("", "total"); err != nil || i != 2 {
		t.Errorf("Resolve(total) = %d, %v", i, err)
	}
	if _, err := s.Resolve("", "id"); err == nil {
		t.Error("ambiguous resolve succeeded")
	}
	if _, err := s.Resolve("", "missing"); err == nil {
		t.Error("missing column resolve succeeded")
	}
	// Case-insensitive.
	if i, err := s.Resolve("O", "TOTAL"); err != nil || i != 2 {
		t.Errorf("case-insensitive Resolve = %d, %v", i, err)
	}
	// HasColumn follows the same unique-match rule, and real failures keep
	// Resolve's error text.
	for _, tc := range []struct {
		table, name string
		want        bool
	}{{"c", "id", true}, {"", "total", true}, {"", "id", false}, {"", "missing", false}, {"x", "total", false}} {
		if got := s.HasColumn(tc.table, tc.name); got != tc.want {
			t.Errorf("HasColumn(%q, %q) = %v", tc.table, tc.name, got)
		}
	}
	if allocs := testing.AllocsPerRun(100, func() { s.HasColumn("o", "missing") }); allocs != 0 {
		t.Errorf("HasColumn miss allocates %v times", allocs)
	}
	_, err := s.Resolve("o", "missing")
	if want := `sqltypes: unknown column "o.missing" in schema (c.id BIGINT, o.id BIGINT, o.total DOUBLE)`; err == nil || err.Error() != want {
		t.Errorf("Resolve error = %v, want %s", err, want)
	}
	if _, err := s.Resolve("", "id"); err == nil || err.Error() != `sqltypes: ambiguous column reference "id"` {
		t.Errorf("ambiguous Resolve error = %v", err)
	}
}

func TestSchemaConcatAndClone(t *testing.T) {
	a := NewSchema(Column{Name: "x", Type: TypeInt})
	b := NewSchema(Column{Name: "y", Type: TypeString})
	c := a.Concat(b)
	if c.Len() != 2 || c.Columns[0].Name != "x" || c.Columns[1].Name != "y" {
		t.Fatalf("Concat = %v", c)
	}
	cl := c.Clone()
	cl.Columns[0].Name = "z"
	if c.Columns[0].Name != "x" {
		t.Error("Clone aliases the original column slice")
	}
}

func TestHashRowAndRowsEqualOn(t *testing.T) {
	a := Row{NewInt(1), NewString("x"), NewFloat(2)}
	b := Row{NewFloat(1), NewString("y"), NewInt(2)}
	if HashRow(a, []int{0, 2}) != HashRow(b, []int{0, 2}) {
		t.Error("hash of equal key columns differs")
	}
	if !RowsEqualOn(a, []int{0, 2}, b, []int{0, 2}) {
		t.Error("RowsEqualOn(key cols) = false")
	}
	if RowsEqualOn(a, []int{1}, b, []int{1}) {
		t.Error("RowsEqualOn on differing column = true")
	}
}

func TestFormatRows(t *testing.T) {
	s := NewSchema(Column{Name: "id", Type: TypeInt}, Column{Name: "name", Type: TypeString})
	out := FormatRows(s, []Row{{NewInt(1), NewString("alpha")}, {NewInt(22), NewString("b")}})
	want := "id | name \n---+------\n1  | alpha\n22 | b    \n"
	if out != want {
		t.Errorf("FormatRows:\n%q\nwant:\n%q", out, want)
	}
}
