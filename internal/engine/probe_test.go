package engine

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"slices"
	"testing"

	"xdb/internal/sqltypes"
)

// rowProbe is the join's probe as it was before the lookup pass: one probe
// row at a time, its key read, hashed and looked up as its chain walk
// starts. It is the oracle TestProbeBatchMatchesRowProbe holds joinIter to.
type rowProbe struct {
	table     *joinTable
	probeKeys []int
	cur       sqltypes.Row
	curI      []int64 // its key (int-keyed table)
	curH      uint64  // its hash (general table)
	m         int32   // next candidate of cur's chain
	// A float probe key of an int-keyed table: check each candidate with
	// Equal (a float never equals a date), and beyond 2^53, where several
	// ints round to the same float, walk every row instead of a chain.
	verify, all bool
}

// seek starts the chain of candidates for probe row r.
func (j *rowProbe) seek(r sqltypes.Row) {
	t := j.table
	j.cur, j.m, j.verify, j.all = r, 0, false, false
	if hasNull(r, j.probeKeys) {
		return
	}
	if !t.intKeyed {
		j.curH = sqltypes.HashRow(r, j.probeKeys)
		j.m = t.heads[j.curH>>t.shift]
		return
	}
	for i, c := range j.probeKeys {
		switch v := r[c]; {
		case intFamily(v):
			j.curI[i] = v.I()
		case v.T == sqltypes.TypeFloat && v.F == math.Trunc(v.F):
			// int 3 = float 3.0: an integral float finds the int of its
			// value; a fraction or NaN finds nothing.
			j.all = j.all || math.Abs(v.F) >= 1<<53
			j.curI[i], j.verify = int64(v.F), true
		default:
			return // no int or date equals a string, a bool or a fraction
		}
	}
	var h uint64
	for _, k := range j.curI {
		h = hashInt(h, k)
	}
	switch {
	case !j.all:
		j.m = t.heads[h>>t.shift]
	case t.n > 0:
		j.m = 1
	}
}

// matches reports whether build row i pairs with the current probe row.
func (j *rowProbe) matches(i int32) bool {
	t := j.table
	switch {
	case j.all:
		return sqltypes.RowsEqualOn(j.cur, j.probeKeys, t.row(i), t.keys)
	case t.intKeyed:
		k := len(j.curI)
		for x, v := range t.ints[int(i)*k : int(i+1)*k] {
			if v != j.curI[x] {
				return false
			}
		}
		return !j.verify || sqltypes.RowsEqualOn(j.cur, j.probeKeys, t.row(i), t.keys)
	default:
		return t.hashes[i] == j.curH && sqltypes.RowsEqualOn(j.cur, j.probeKeys, t.row(i), t.keys)
	}
}

// pairs returns the ids (column 0) of every (probe, build) pair the probe
// rows find, in the order the join emits them.
func (j *rowProbe) pairs(probe []sqltypes.Row) [][2]int64 {
	t := j.table
	j.curI = make([]int64, len(j.probeKeys))
	var out [][2]int64
	for _, r := range probe {
		for j.seek(r); j.m != 0; {
			i := j.m - 1
			if j.all {
				j.m = (j.m + 1) % int32(t.n+1)
			} else {
				j.m = t.next[i]
			}
			if j.matches(i) {
				out = append(out, [2]int64{r[0].I(), t.row(i)[0].I()})
			}
		}
	}
	return out
}

// batchesIter hands out rows in batches of the given sizes, cycling, in
// one Batch it reuses as the engine's producers do.
type batchesIter struct {
	rows  []sqltypes.Row
	sizes []int
	next  int
	batch sqltypes.Batch
}

func (b *batchesIter) Next() (*sqltypes.Batch, error) {
	if len(b.rows) == 0 {
		return nil, io.EOF
	}
	n := min(len(b.rows), b.sizes[b.next%len(b.sizes)])
	b.next++
	b.batch.Rows, b.rows = b.rows[:n:n], b.rows[n:]
	return &b.batch, nil
}

func (b *batchesIter) Close() error { return nil }

// TestProbeBatchMatchesRowProbe: joinIter's lookup pass finds the pairs the
// row-at-a-time probe found, in the same order, over every kind of key
// value — ints, dates, integral, fractional and negative-zero floats, NaN,
// ±Inf, floats beyond 2^53, strings, bools and NULL — with 1 to 3 keys,
// on int-keyed and hashed tables with duplicate keys and on empty ones, in
// probe batches of 1, 1023 and 1024 rows.
func TestProbeBatchMatchesRowProbe(t *testing.T) {
	const big = 1 << 53
	var (
		F, I, D, S = sqltypes.NewFloat, sqltypes.NewInt, sqltypes.NewDate, sqltypes.NewString
		ints       = []sqltypes.Value{I(0), I(1), I(2), D(0), D(1), D(2), I(big), I(big + 1), I(-big)}
		others     = []sqltypes.Value{
			F(0), F(1), F(2), F(math.Copysign(0, -1)), F(2.5), F(math.NaN()), F(math.Inf(1)), F(math.Inf(-1)),
			F(big), F(big + 2), F(-big), F(1e300), S("a"), S("1"), sqltypes.NewBool(true), sqltypes.NewBool(false),
			sqltypes.Null,
		}
		all = append(slices.Clone(ints), others...)
	)
	rng := rand.New(rand.NewSource(1))
	gen := func(n, width int, pool func() sqltypes.Value) []sqltypes.Row {
		rows := make([]sqltypes.Row, n)
		for id := range rows {
			rows[id] = sqltypes.Row{I(int64(id))}
			for range width {
				rows[id] = append(rows[id], pool())
			}
		}
		return rows
	}
	from := func(vals []sqltypes.Value) func() sqltypes.Value {
		return func() sqltypes.Value { return vals[rng.Intn(len(vals))] }
	}
	probePool := func() sqltypes.Value { // half the probe keys are ints or dates
		if rng.Intn(2) == 0 {
			return from(ints)()
		}
		return from(all)()
	}
	// A NULL key keeps a build row out of the table, and leaves it
	// int-keyed.
	intBuild := from(append(slices.Clone(ints), sqltypes.Null))
	sizes := []int{1, 1023, 1024, 1, 1024}
	for _, intKeyed := range []bool{true, false} {
		for width := 1; width <= 3; width++ {
			for _, buildRows := range []int{0, 60} {
				name := fmt.Sprintf("intKeyed=%v/keys=%d/build=%d", intKeyed, width, buildRows)
				keys := make([]int, width)
				for i := range keys {
					keys[i] = i + 1
				}
				pool := from(all)
				if intKeyed {
					pool = intBuild
				}
				build := gen(buildRows, width, pool)
				if !intKeyed && buildRows > 0 {
					build[0][1] = S("s") // one string makes the table hashed
				}
				probe := gen(4000, width, probePool)

				table, err := newJoinTable(&scanIter{rows: build}, keys, nil, float64(buildRows), nil)
				if err != nil {
					t.Fatal(err)
				}
				if buildRows > 0 && table.intKeyed != intKeyed {
					t.Fatalf("%s: table int-keyed = %v", name, table.intKeyed)
				}
				want := (&rowProbe{table: table, probeKeys: keys}).pairs(probe)
				spec := &joinSpec{probeKeys: keys, buildKeys: keys, out: allCols()}
				out, err := Drain(spec.newIter(&batchesIter{rows: probe, sizes: sizes}, table, nil, nil, 1))
				if err != nil {
					t.Fatal(err)
				}
				got := make([][2]int64, len(out))
				for i, r := range out {
					got[i] = [2]int64{r[0].I(), r[1].I()}
				}
				if buildRows > 0 && len(want) == 0 {
					t.Fatalf("%s: no pairs to compare", name)
				}
				if !slices.Equal(got, want) {
					t.Errorf("%s: %d pairs, want %d; first difference at %d", name, len(got), len(want), firstDiff(got, want))
				}
			}
		}
	}
}

func firstDiff(a, b [][2]int64) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}
