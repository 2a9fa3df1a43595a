package sqltypes

import (
	"fmt"
	"strings"
)

// Column describes one column of a relation.
type Column struct {
	// Name is the bare column name (no qualifier).
	Name string
	// Table qualifies the column with the relation alias that produced it;
	// empty for computed columns.
	Table string
	// Type is the column's SQL type.
	Type Type
}

// QualifiedName returns table.name, or just name when unqualified.
func (c Column) QualifiedName() string {
	if c.Table == "" {
		return c.Name
	}
	return c.Table + "." + c.Name
}

// Schema describes the columns of a relation in order.
type Schema struct {
	Columns []Column
}

// NewSchema builds a schema from columns.
func NewSchema(cols ...Column) *Schema { return &Schema{Columns: cols} }

// Len returns the number of columns.
func (s *Schema) Len() int { return len(s.Columns) }

// Clone returns a deep copy of the schema.
func (s *Schema) Clone() *Schema {
	cols := make([]Column, len(s.Columns))
	copy(cols, s.Columns)
	return &Schema{Columns: cols}
}

// Concat returns a schema holding s's columns followed by t's.
func (s *Schema) Concat(t *Schema) *Schema {
	cols := make([]Column, 0, len(s.Columns)+len(t.Columns))
	cols = append(cols, s.Columns...)
	cols = append(cols, t.Columns...)
	return &Schema{Columns: cols}
}

// Resolve finds the index of a (possibly qualified) column reference.
// An unqualified name that matches columns from multiple tables is
// ambiguous and returns an error.
func (s *Schema) Resolve(table, name string) (int, error) {
	switch idx := s.lookup(table, name); idx {
	case ambiguous:
		return 0, fmt.Errorf("sqltypes: ambiguous column reference %q", joinQualified(table, name))
	case unknown:
		return 0, fmt.Errorf("sqltypes: unknown column %q in schema %s", joinQualified(table, name), s)
	default:
		return idx, nil
	}
}

// HasColumn reports whether the (possibly qualified) reference resolves
// unambiguously in the schema. The planners ask this of every conjunct
// against every candidate join, mostly to hear no, so it must not build
// Resolve's error.
func (s *Schema) HasColumn(table, name string) bool {
	return s.lookup(table, name) >= 0
}

// Find returns the index of the column the (possibly qualified) reference
// resolves to unambiguously, and whether there is one, without building
// Resolve's error.
func (s *Schema) Find(table, name string) (int, bool) {
	i := s.lookup(table, name)
	return i, i >= 0
}

// lookup's results when the reference does not resolve to one column.
const (
	unknown   = -1
	ambiguous = -2
)

// lookup returns the index of the one column the reference matches, or
// unknown or ambiguous.
func (s *Schema) lookup(table, name string) int {
	found := unknown
	for i := range s.Columns {
		c := &s.Columns[i]
		if !strings.EqualFold(c.Name, name) {
			continue
		}
		if table != "" && !strings.EqualFold(c.Table, table) {
			continue
		}
		if found >= 0 {
			return ambiguous
		}
		found = i
	}
	return found
}

func joinQualified(table, name string) string {
	if table == "" {
		return name
	}
	return table + "." + name
}

// String renders the schema as "(a BIGINT, t.b VARCHAR, ...)".
func (s *Schema) String() string {
	var b strings.Builder
	b.WriteByte('(')
	for i, c := range s.Columns {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(c.QualifiedName())
		b.WriteByte(' ')
		b.WriteString(c.Type.String())
	}
	b.WriteByte(')')
	return b.String()
}

// Row is one tuple of values, positionally aligned with a Schema.
type Row []Value

// Clone returns a copy of the row.
func (r Row) Clone() Row {
	out := make(Row, len(r))
	copy(out, r)
	return out
}

// EncodedSize returns the size of the row's frame-less binary encoding
// (AppendRow). In a row-batch frame the row costs at most that, usually
// less (a frame adds one byte per mixed column, frame.go), so it is the
// bound that AvgRowBytes and the transfer prices use; the transfer ledger
// counts the frames.
func (r Row) EncodedSize() int {
	n := uvarintLen(uint64(len(r))) // column count prefix
	for _, v := range r {
		n += v.EncodedSize()
	}
	return n
}

// HashRow hashes the listed columns of the row, for hash joins and
// grouping.
func HashRow(r Row, cols []int) uint64 {
	const prime64 = 1099511628211
	h := uint64(14695981039346656037)
	for _, c := range cols {
		h ^= Hash(r[c])
		h *= prime64
	}
	return h
}

// RowsEqualOn reports whether two rows agree on the listed column pairs.
func RowsEqualOn(a Row, acols []int, b Row, bcols []int) bool {
	for i := range acols {
		if !Equal(a[acols[i]], b[bcols[i]]) {
			return false
		}
	}
	return true
}

// FormatRows renders rows as aligned text for the CLI tools and examples.
func FormatRows(schema *Schema, rows []Row) string {
	headers := make([]string, schema.Len())
	widths := make([]int, schema.Len())
	for i, c := range schema.Columns {
		headers[i] = c.Name
		widths[i] = len(headers[i])
	}
	cells := make([][]string, len(rows))
	for ri, r := range rows {
		cells[ri] = make([]string, len(r))
		for ci, v := range r {
			s := v.String()
			cells[ri][ci] = s
			if ci < len(widths) && len(s) > widths[ci] {
				widths[ci] = len(s)
			}
		}
	}
	var b strings.Builder
	writeLine := func(fields []string) {
		for i, f := range fields {
			if i > 0 {
				b.WriteString(" | ")
			}
			b.WriteString(f)
			for p := len(f); p < widths[i]; p++ {
				b.WriteByte(' ')
			}
		}
		b.WriteByte('\n')
	}
	writeLine(headers)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("-+-")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, r := range cells {
		writeLine(r)
	}
	return b.String()
}
