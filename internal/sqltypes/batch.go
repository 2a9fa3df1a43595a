package sqltypes

import (
	"math/bits"
	"sync"
)

// BatchRows is the most rows one Batch carries. It is the wire protocol's
// per-frame row cap, so a batch never spans more than one full frame.
const BatchRows = 1024

// Batch is the unit every executor operator, the wire server and the wire
// client hand on: at most BatchRows rows. Rows is a slice of views; a row
// either lives in memory that outlasts the query step (a base table, an
// operator's materialized result), was carved from this batch's slab by
// NewRow, or lives in the slab of a batch that View took it from.
//
// Ownership: a batch belongs to its producer, which refills it on its next
// call. Until then the consumer may read the rows and may truncate Rows
// (that is how a limit forwards a batch), but it writes nothing into the
// Rows array: that may be shared storage, such as a stored table's rows.
// A consumer that keeps rows longer calls AppendOwned. A batch that is no
// longer needed goes back to its statement's Spares.
type Batch struct {
	Rows []Row

	slab     []Value  // current chunk; rows carved so far are slab[:len]
	used     int      // values carved since Reset, over all chunks
	hint     int      // values the previous fill carved; sizes the next chunk
	retained bool     // a consumer kept rows of the slab: do not reuse it
	lent     []*Batch // batches whose slabs hold rows View appended
	dict     []string // DecodeFrame's dictionary, reused from frame to frame
	decl     []byte   // DecodeFrame's column declarations, reused likewise
}

// Reset empties the batch for refilling. The slab is reused unless a
// consumer took ownership of its rows.
func (b *Batch) Reset() {
	b.Rows = b.Rows[:0]
	clear(b.lent)
	b.lent = b.lent[:0]
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

// View appends rows of src to the batch without copying their values:
// they stay in src's slab, and a consumer that keeps them keeps that slab
// (AppendOwned). src must not be refilled or handed back before the batch
// is reset.
func (b *Batch) View(src *Batch, rows []Row) {
	if src.used > 0 && (len(b.lent) == 0 || b.lent[len(b.lent)-1] != src) {
		b.lent = append(b.lent, src)
	}
	b.lent = append(b.lent, src.lent...)
	b.Rows = append(b.Rows, rows...)
}

// AppendOwned appends the batch's rows to dst such that they stay valid
// after the producer refills the batch. Rows outside any slab are stable
// already. Slab rows are kept by taking the slabs over from the producer
// (the batch's own and those its views are in) — unless most of them is
// dead or unused (a selective filter sat in between, a view took a few
// rows of a larger batch, or the slab is a larger spare), in which case
// the survivors are copied to a slab of their own size.
func (b *Batch) AppendOwned(dst []Row) []Row {
	used := b.pinned()
	for _, l := range b.lent {
		used += l.pinned()
	}
	if used == 0 {
		return append(dst, b.Rows...)
	}
	live := 0
	for _, r := range b.Rows {
		live += len(r)
	}
	if 2*live >= used {
		b.retained = true
		for _, l := range b.lent {
			l.retained = true
		}
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

// pinned is the memory of the slab that its rows would keep: every value
// carved, and the room left in the current chunk.
func (b *Batch) pinned() int {
	if b.used == 0 {
		return 0
	}
	return b.used + cap(b.slab) - len(b.slab)
}

// Spares is the free list of one statement's batch memory: Rows arrays
// and slabs. An operator that is done with a batch hands it back (Put),
// and a producer takes memory from the list (Get, Refill, Take) before it
// allocates. A slab that a consumer kept rows of (AppendOwned) is not
// handed back: a kept row pins it. Only a batch's owner hands it back: its
// producer once the batch's last rows have been read (at Close, or as its
// consumer moves on), or a consumer that took it over. Nothing in the list
// outlives the statement that owns it.
//
// Spares is safe for concurrent use. A nil *Spares hands out new memory
// and drops what it is given.
type Spares struct {
	mu    sync.Mutex
	rows  [][]Row
	slabs [][]Value
}

// Get returns an empty batch with room for rows rows and values values:
// spare memory where some is large enough, new memory where none is.
func (s *Spares) Get(rows, values int) Batch {
	var b Batch
	s.Refill(&b, rows, values)
	return b
}

// Put hands *b's memory back and zeroes *b, so that its holder cannot hand
// it back twice: the Rows array, and the slab unless a consumer kept rows
// of it.
func (s *Spares) Put(b *Batch) {
	if s != nil {
		s.mu.Lock()
		if cap(b.Rows) > 0 {
			s.rows = append(s.rows, b.Rows[:0])
		}
		if cap(b.slab) > 0 && !b.retained {
			s.slabs = append(s.slabs, b.slab[:0])
		}
		s.mu.Unlock()
	}
	*b = Batch{}
}

// Refill empties *b for its producer to fill again (Reset) with room for
// rows rows and values values. Memory of b's that is too small goes back
// to the list, and spare memory that is large enough, or new memory, takes
// its place.
func (s *Spares) Refill(b *Batch, rows, values int) {
	b.Reset()
	if cap(b.Rows) >= rows && cap(b.slab) >= values {
		return
	}
	if s == nil {
		s = new(Spares) // finds nothing, and drops what it is given
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if cap(b.Rows) < rows {
		b.Rows = swap(&s.rows, b.Rows, rows, rows)
	}
	if cap(b.slab) < values {
		// A new slab is rounded up to a power of two: slabs then come in
		// few sizes, and a batch filled a little fuller than the last
		// still fits.
		b.slab = swap(&s.slabs, b.slab, values, 1<<bits.Len(uint(values-1)))
	}
}

// swap puts old on the list and returns in its place the smallest entry
// with room for n, emptied, or else new memory with room for size.
func swap[T any](list *[][]T, old []T, n, size int) []T {
	l := *list
	best := -1
	for i, e := range l {
		if cap(e) >= n && (best < 0 || cap(e) < cap(l[best])) {
			best = i
		}
	}
	var found []T
	if best >= 0 {
		found = l[best][:0]
		l[best] = l[len(l)-1]
		l[len(l)-1] = nil
		l = l[:len(l)-1]
	}
	if cap(old) > 0 {
		l = append(l, old[:0])
	}
	*list = l
	if found == nil {
		found = make([]T, 0, size)
	}
	return found
}

// Take takes *b over from its producer: the caller owns its rows, Rows
// array and slab from now on, and hands them back when it is done. The
// producer finds a spare in their place with room for as many rows and
// values, so that refilling it does not grow. Rows that b views in other
// batches' slabs pin those slabs, and the taken batch no longer refers to
// the other batches, which their producers go on refilling.
func (s *Spares) Take(b *Batch) Batch {
	out := *b
	for _, l := range out.lent {
		l.retained = true
	}
	out.lent = nil
	*b = s.Get(len(out.Rows), out.used)
	b.hint = out.hint
	return out
}
