package tpch

import (
	"fmt"
	"math"

	"xdb/internal/sqltypes"
)

// Generator produces TPC-H data deterministically for a given scale factor
// and seed: the same (sf, seed) pair always yields identical tables, which
// keeps experiments reproducible without shipping data files.
type Generator struct {
	sf   float64
	rng  rng
	seed uint64
	slab []sqltypes.Value // where row carves the next row from
}

// slabValues sizes the arrays rows are carved from: 2048 values is 80 KiB,
// a whole number of allocator pages.
const slabValues = 2048

// row returns a row holding the values, carved from a shared slab rather
// than allocated on its own. The data is most of what a small-scale
// process holds, and a 16-value lineitem row allocated alone costs 704
// bytes for its 640 (Go rounds to a size class after adding a header).
// The row's capacity is its length, so appending to one copies it.
func (g *Generator) row(vals ...sqltypes.Value) sqltypes.Row {
	if len(g.slab)+len(vals) > cap(g.slab) {
		g.slab = make([]sqltypes.Value, 0, max(slabValues, len(vals)))
	}
	start := len(g.slab)
	g.slab = append(g.slab, vals...)
	return g.slab[start:len(g.slab):len(g.slab)]
}

// NewGenerator returns a generator for the scale factor. Fractional scale
// factors (e.g. 0.01) shrink every table proportionally, except the fixed
// nation and region tables.
func NewGenerator(sf float64, seed uint64) *Generator {
	return &Generator{sf: sf, rng: rng{state: seed ^ 0x9e3779b97f4a7c15}, seed: seed}
}

// Rows returns the row count of a table at the generator's scale factor.
func (g *Generator) Rows(table string) int {
	base := BaseRows[table]
	if table == Nation || table == Region {
		return base
	}
	n := int(math.Round(float64(base) * g.sf))
	if n < 1 {
		n = 1
	}
	return n
}

// rng is splitmix64 — tiny, fast, deterministic.
type rng struct{ state uint64 }

func (r *rng) next() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// intn returns a uniform integer in [0, n).
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// rangeInt returns a uniform integer in [lo, hi].
func (r *rng) rangeInt(lo, hi int) int { return lo + r.intn(hi-lo+1) }

// float returns a uniform float in [0, 1).
func (r *rng) float() float64 { return float64(r.next()>>11) / float64(1<<53) }

// The TPC-H text pools.

var regionNames = []string{"AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"}

// nationDefs maps each TPC-H nation to its region key.
var nationDefs = []struct {
	name   string
	region int
}{
	{"ALGERIA", 0}, {"ARGENTINA", 1}, {"BRAZIL", 1}, {"CANADA", 1},
	{"EGYPT", 4}, {"ETHIOPIA", 0}, {"FRANCE", 3}, {"GERMANY", 3},
	{"INDIA", 2}, {"INDONESIA", 2}, {"IRAN", 4}, {"IRAQ", 4},
	{"JAPAN", 2}, {"JORDAN", 4}, {"KENYA", 0}, {"MOROCCO", 0},
	{"MOZAMBIQUE", 0}, {"PERU", 1}, {"CHINA", 2}, {"ROMANIA", 3},
	{"SAUDI ARABIA", 4}, {"VIETNAM", 2}, {"RUSSIA", 3},
	{"UNITED KINGDOM", 3}, {"UNITED STATES", 1},
}

var mktSegments = []string{"AUTOMOBILE", "BUILDING", "FURNITURE", "MACHINERY", "HOUSEHOLD"}

var orderPriorities = []string{"1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"}

var shipModes = []string{"REG AIR", "AIR", "RAIL", "SHIP", "TRUCK", "MAIL", "FOB"}

var shipInstructs = []string{"DELIVER IN PERSON", "COLLECT COD", "NONE", "TAKE BACK RETURN"}

var containers = []string{"SM CASE", "SM BOX", "MED BAG", "MED BOX", "LG CASE", "LG BOX", "JUMBO PACK", "WRAP JAR"}

// partNameWords is the TPC-H P_NAME color pool; p_name concatenates five
// distinct words, so LIKE '%green%' (Q9) selects ~5/92 of parts.
var partNameWords = []string{
	"almond", "antique", "aquamarine", "azure", "beige", "bisque", "black",
	"blanched", "blue", "blush", "brown", "burlywood", "burnished", "chartreuse",
	"chiffon", "chocolate", "coral", "cornflower", "cornsilk", "cream", "cyan",
	"dark", "deep", "dim", "dodger", "drab", "firebrick", "floral", "forest",
	"frosted", "gainsboro", "ghost", "goldenrod", "green", "grey", "honeydew",
	"hot", "hotpink", "indian", "ivory", "khaki", "lace", "lavender", "lawn",
	"lemon", "light", "lime", "linen", "magenta", "maroon", "medium", "metallic",
	"midnight", "mint", "misty", "moccasin", "navajo", "navy", "olive", "orange",
	"orchid", "pale", "papaya", "peach", "peru", "pink", "plum", "powder",
	"puff", "purple", "red", "rose", "rosy", "royal", "saddle", "salmon",
	"sandy", "seashell", "sienna", "sky", "slate", "smoke", "snow", "spring",
	"steel", "tan", "thistle", "tomato", "turquoise", "violet", "wheat", "white",
}

// p_type syllables, TPC-H clause 4.2.2.13.
var (
	typeSyl1 = []string{"STANDARD", "SMALL", "MEDIUM", "LARGE", "ECONOMY", "PROMO"}
	typeSyl2 = []string{"ANODIZED", "BURNISHED", "PLATED", "POLISHED", "BRUSHED"}
	typeSyl3 = []string{"TIN", "NICKEL", "BRASS", "STEEL", "COPPER"}
)

var commentWords = []string{
	"carefully", "quickly", "furiously", "slyly", "blithely", "regular",
	"final", "express", "special", "pending", "ironic", "even", "bold",
	"silent", "unusual", "deposits", "requests", "accounts", "packages",
	"instructions", "theodolites", "platelets", "foxes", "ideas",
}

// Date range: orders span 1992-01-01 .. 1998-08-02 as in TPC-H.
var (
	orderDateLo = sqltypes.DateFromYMD(1992, 1, 1).I()
	orderDateHi = sqltypes.DateFromYMD(1998, 8, 2).I()
)

func (g *Generator) comment(maxWords int) string {
	n := 2 + g.rng.intn(maxWords)
	out := ""
	for i := 0; i < n; i++ {
		if i > 0 {
			out += " "
		}
		out += commentWords[g.rng.intn(len(commentWords))]
	}
	return out
}

func (g *Generator) phone(nationkey int) string {
	return fmt.Sprintf("%02d-%03d-%03d-%04d", 10+nationkey, g.rng.rangeInt(100, 999), g.rng.rangeInt(100, 999), g.rng.rangeInt(1000, 9999))
}

// money returns a price-like float with two decimals.
func (g *Generator) money(lo, hi float64) float64 {
	v := lo + g.rng.float()*(hi-lo)
	return math.Round(v*100) / 100
}

// GenRegion generates the region table.
func (g *Generator) GenRegion() []sqltypes.Row {
	rows := make([]sqltypes.Row, len(regionNames))
	for i, name := range regionNames {
		rows[i] = g.row(
			sqltypes.NewInt(int64(i)),
			sqltypes.NewString(name),
			sqltypes.NewString(g.comment(6)),
		)
	}
	return rows
}

// GenNation generates the nation table.
func (g *Generator) GenNation() []sqltypes.Row {
	rows := make([]sqltypes.Row, len(nationDefs))
	for i, n := range nationDefs {
		rows[i] = g.row(
			sqltypes.NewInt(int64(i)),
			sqltypes.NewString(n.name),
			sqltypes.NewInt(int64(n.region)),
			sqltypes.NewString(g.comment(8)),
		)
	}
	return rows
}

// GenSupplier generates the supplier table.
func (g *Generator) GenSupplier() []sqltypes.Row {
	n := g.Rows(Supplier)
	rows := make([]sqltypes.Row, n)
	for i := 0; i < n; i++ {
		key := int64(i + 1)
		nation := g.rng.intn(25)
		rows[i] = g.row(
			sqltypes.NewInt(key),
			sqltypes.NewString(fmt.Sprintf("Supplier#%09d", key)),
			sqltypes.NewString(g.comment(3)),
			sqltypes.NewInt(int64(nation)),
			sqltypes.NewString(g.phone(nation)),
			sqltypes.NewFloat(g.money(-999.99, 9999.99)),
			sqltypes.NewString(g.comment(10)),
		)
	}
	return rows
}

// GenPart generates the part table.
func (g *Generator) GenPart() []sqltypes.Row {
	n := g.Rows(Part)
	rows := make([]sqltypes.Row, n)
	for i := 0; i < n; i++ {
		key := int64(i + 1)
		// Five distinct name words.
		name := ""
		seen := map[int]bool{}
		for w := 0; w < 5; w++ {
			idx := g.rng.intn(len(partNameWords))
			for seen[idx] {
				idx = g.rng.intn(len(partNameWords))
			}
			seen[idx] = true
			if w > 0 {
				name += " "
			}
			name += partNameWords[idx]
		}
		mfgr := g.rng.rangeInt(1, 5)
		brand := mfgr*10 + g.rng.rangeInt(1, 5)
		ptype := typeSyl1[g.rng.intn(len(typeSyl1))] + " " +
			typeSyl2[g.rng.intn(len(typeSyl2))] + " " +
			typeSyl3[g.rng.intn(len(typeSyl3))]
		rows[i] = g.row(
			sqltypes.NewInt(key),
			sqltypes.NewString(name),
			sqltypes.NewString(fmt.Sprintf("Manufacturer#%d", mfgr)),
			sqltypes.NewString(fmt.Sprintf("Brand#%d", brand)),
			sqltypes.NewString(ptype),
			sqltypes.NewInt(int64(g.rng.rangeInt(1, 50))),
			sqltypes.NewString(containers[g.rng.intn(len(containers))]),
			sqltypes.NewFloat(g.money(900, 2000)),
			sqltypes.NewString(g.comment(5)),
		)
	}
	return rows
}

// GenPartSupp generates the partsupp table: four suppliers per part, as in
// TPC-H.
func (g *Generator) GenPartSupp() []sqltypes.Row {
	nParts := g.Rows(Part)
	nSupp := g.Rows(Supplier)
	rows := make([]sqltypes.Row, 0, nParts*4)
	for p := 1; p <= nParts; p++ {
		for s := 0; s < 4; s++ {
			supp := ((p+s*(nSupp/4+1))%nSupp + nSupp) % nSupp
			rows = append(rows, g.row(
				sqltypes.NewInt(int64(p)),
				sqltypes.NewInt(int64(supp+1)),
				sqltypes.NewInt(int64(g.rng.rangeInt(1, 9999))),
				sqltypes.NewFloat(g.money(1, 1000)),
				sqltypes.NewString(g.comment(12)),
			))
		}
	}
	return rows
}

// GenCustomer generates the customer table.
func (g *Generator) GenCustomer() []sqltypes.Row {
	n := g.Rows(Customer)
	rows := make([]sqltypes.Row, n)
	for i := 0; i < n; i++ {
		key := int64(i + 1)
		nation := g.rng.intn(25)
		rows[i] = g.row(
			sqltypes.NewInt(key),
			sqltypes.NewString(fmt.Sprintf("Customer#%09d", key)),
			sqltypes.NewString(g.comment(3)),
			sqltypes.NewInt(int64(nation)),
			sqltypes.NewString(g.phone(nation)),
			sqltypes.NewFloat(g.money(-999.99, 9999.99)),
			sqltypes.NewString(mktSegments[g.rng.intn(len(mktSegments))]),
			sqltypes.NewString(g.comment(14)),
		)
	}
	return rows
}

// GenOrders generates the orders table. Order keys are dense (1..n) rather
// than TPC-H's sparse keys; the join structure is unaffected.
func (g *Generator) GenOrders() []sqltypes.Row {
	n := g.Rows(Orders)
	nCust := g.Rows(Customer)
	rows := make([]sqltypes.Row, n)
	for i := 0; i < n; i++ {
		key := int64(i + 1)
		date := orderDateLo + int64(g.rng.intn(int(orderDateHi-orderDateLo+1)))
		status := "O"
		if g.rng.float() < 0.49 {
			status = "F"
		} else if g.rng.float() < 0.04 {
			status = "P"
		}
		rows[i] = g.row(
			sqltypes.NewInt(key),
			sqltypes.NewInt(int64(g.rng.rangeInt(1, nCust))),
			sqltypes.NewString(status),
			sqltypes.NewFloat(g.money(1000, 450000)),
			sqltypes.NewDate(date),
			sqltypes.NewString(orderPriorities[g.rng.intn(len(orderPriorities))]),
			sqltypes.NewString(fmt.Sprintf("Clerk#%09d", g.rng.rangeInt(1, 1000))),
			sqltypes.NewInt(0),
			sqltypes.NewString(g.comment(12)),
		)
	}
	return rows
}

// GenLineitem generates the lineitem table against a previously generated
// orders table (dates must be consistent: ship/commit/receipt follow the
// order date).
func (g *Generator) GenLineitem(orders []sqltypes.Row) []sqltypes.Row {
	nParts := g.Rows(Part)
	nSupp := g.Rows(Supplier)
	target := g.Rows(Lineitem)
	rows := make([]sqltypes.Row, 0, target)
	for _, o := range orders {
		okey := o[0].I()
		odate := o[4].I()
		lines := g.rng.rangeInt(1, 7)
		for ln := 1; ln <= lines; ln++ {
			qty := float64(g.rng.rangeInt(1, 50))
			price := g.money(900, 10000) * qty / 10
			ship := odate + int64(g.rng.rangeInt(1, 121))
			commit := odate + int64(g.rng.rangeInt(30, 90))
			receipt := ship + int64(g.rng.rangeInt(1, 30))
			returnflag := "N"
			if receipt <= sqltypes.DateFromYMD(1995, 6, 17).I() {
				if g.rng.float() < 0.5 {
					returnflag = "R"
				} else {
					returnflag = "A"
				}
			}
			linestatus := "O"
			if ship <= sqltypes.DateFromYMD(1995, 6, 17).I() {
				linestatus = "F"
			}
			rows = append(rows, g.row(
				sqltypes.NewInt(okey),
				sqltypes.NewInt(int64(g.rng.rangeInt(1, nParts))),
				sqltypes.NewInt(int64(g.rng.rangeInt(1, nSupp))),
				sqltypes.NewInt(int64(ln)),
				sqltypes.NewFloat(qty),
				sqltypes.NewFloat(price),
				sqltypes.NewFloat(float64(g.rng.intn(11))/100),
				sqltypes.NewFloat(float64(g.rng.intn(9))/100),
				sqltypes.NewString(returnflag),
				sqltypes.NewString(linestatus),
				sqltypes.NewDate(ship),
				sqltypes.NewDate(commit),
				sqltypes.NewDate(receipt),
				sqltypes.NewString(shipInstructs[g.rng.intn(len(shipInstructs))]),
				sqltypes.NewString(shipModes[g.rng.intn(len(shipModes))]),
				sqltypes.NewString(g.comment(6)),
			))
		}
	}
	return rows
}

// GenAll generates every table. The result maps table name to rows.
func (g *Generator) GenAll() map[string][]sqltypes.Row {
	out := map[string][]sqltypes.Row{
		Region:   g.GenRegion(),
		Nation:   g.GenNation(),
		Supplier: g.GenSupplier(),
		Part:     g.GenPart(),
		PartSupp: g.GenPartSupp(),
		Customer: g.GenCustomer(),
	}
	orders := g.GenOrders()
	out[Orders] = orders
	out[Lineitem] = g.GenLineitem(orders)
	return out
}
