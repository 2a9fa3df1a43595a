package sqltypes

// BatchRows is the most rows one Batch carries. It is the wire protocol's
// per-frame row cap, so a batch never spans more than one full frame.
const BatchRows = 1024

// Batch is the unit every executor operator, the wire server and the wire
// client hand on: at most BatchRows rows. Rows is a slice of views; a row
// either lives in memory that outlasts the query step (a base table, an
// operator's materialized result) or was carved from this batch's slab by
// NewRow.
//
// Ownership: a batch belongs to its producer, which refills it on its next
// call. Until then the consumer may read the rows and may reorder or
// truncate Rows in place (that is how filters and limits forward a batch).
// A consumer that keeps rows longer calls AppendOwned.
type Batch struct {
	Rows []Row

	slab     []Value // current chunk; rows carved so far are slab[:len]
	used     int     // values carved since Reset, over all chunks
	hint     int     // values the previous fill carved; sizes the next chunk
	retained bool    // a consumer kept rows of the slab: do not reuse it
}

// Reset empties the batch for refilling. The slab is reused unless a
// consumer took ownership of its rows.
func (b *Batch) Reset() {
	b.Rows = b.Rows[:0]
	if b.used > b.hint {
		b.hint = b.used
	}
	b.used = 0
	if b.retained {
		b.slab, b.retained = nil, false
		return
	}
	b.slab = b.slab[:0]
}

// Grow makes room for n more values without another allocation. Producers
// that know a batch's size up front (a decoded frame) call it so that a
// retained slab is exactly as large as its rows.
func (b *Batch) Grow(n int) {
	if cap(b.slab)-len(b.slab) < n {
		b.slab = make([]Value, 0, n)
	}
}

// NewRow carves a row of n values from the slab, appends it to Rows and
// returns it for the caller to fill. Earlier rows stay valid when the slab
// has to grow: they keep pointing into the previous chunk.
func (b *Batch) NewRow(n int) Row {
	if cap(b.slab)-len(b.slab) < n {
		b.slab = make([]Value, 0, max(2*cap(b.slab), b.hint, 16*n))
	}
	start := len(b.slab)
	b.slab = b.slab[:start+n]
	b.used += n
	row := Row(b.slab[start : start+n : start+n])
	b.Rows = append(b.Rows, row)
	return row
}

// AppendOwned appends the batch's rows to dst such that they stay valid
// after the producer refills the batch. Rows outside the slab are stable
// already. Slab rows are kept by taking the slab over from the producer —
// unless most of it is dead (a selective filter sat in between), in which
// case the survivors are copied to a slab of their own size.
func (b *Batch) AppendOwned(dst []Row) []Row {
	if b.used == 0 {
		return append(dst, b.Rows...)
	}
	live := 0
	for _, r := range b.Rows {
		live += len(r)
	}
	if 2*live >= b.used {
		b.retained = true
		return append(dst, b.Rows...)
	}
	slab := make([]Value, 0, live)
	for _, r := range b.Rows {
		start := len(slab)
		slab = append(slab, r...)
		dst = append(dst, Row(slab[start:len(slab):len(slab)]))
	}
	return dst
}
