package engine

import (
	"sync"
	"time"
)

// Vendor identifies the emulated DBMS product of an engine instance. The
// paper's testbed mixes PostgreSQL, MariaDB, and Hive; XDB treats each as a
// black box behind a declarative interface. Our vendor profiles reproduce
// the *observable* differences between those products: SQL dialect, result
// transfer encoding, relative execution speed, query startup latency,
// SQL/MED wrapper pushdown capability, and — crucially for the paper's
// footnote 6 — incompatible cost units in EXPLAIN output, which forces the
// connectors to calibrate.
type Vendor string

// The emulated vendors.
const (
	VendorPostgres Vendor = "postgres"
	VendorMariaDB  Vendor = "mariadb"
	VendorHive     Vendor = "hive"
	// VendorTest is an idealized vendor with zero CPU throttling, used by
	// unit tests that assert on semantics rather than performance.
	VendorTest Vendor = "test"
)

// Encoding selects the wire encoding an engine uses to stream result rows.
type Encoding uint8

// Transfer encodings. Binary matches PostgreSQL's binary copy protocol;
// Text matches JDBC-style row serialization, which the paper identifies as
// the source of Presto's extra transfer overhead.
const (
	EncodingBinary Encoding = iota
	EncodingText
)

// Profile captures the performance- and capability-relevant behaviour of a
// vendor.
type Profile struct {
	Vendor Vendor
	// CPU throttling, nanoseconds of simulated work per row at each
	// operator class. Zero disables throttling.
	ScanNsPerRow int64
	JoinNsPerRow int64
	AggNsPerRow  int64
	// StartupLatency is charged once per query execution (Hive's job
	// submission dominates here).
	StartupLatency time.Duration
	// TransferEncoding is the result-stream encoding of the vendor's
	// client protocol.
	TransferEncoding Encoding
	// CostUnit scales the engine's internal cost estimates when reported
	// through EXPLAIN — vendors do not share a cost currency, so XDB's
	// connectors must calibrate (Sec. IV-B2, footnote 6).
	CostUnit float64
	// PushdownFilters reports whether the vendor's SQL/MED wrapper pushes
	// filter predicates to the remote side. Wrappers differ here, which
	// is why XDB wraps every task in a virtual relation (Sec. V,
	// "Preventing Undesirable Executions").
	PushdownFilters bool
}

// Profiles returns the built-in profile for a vendor.
func Profiles(v Vendor) Profile {
	switch v {
	case VendorPostgres:
		return Profile{
			Vendor:           VendorPostgres,
			ScanNsPerRow:     150,
			JoinNsPerRow:     250,
			AggNsPerRow:      250,
			StartupLatency:   500 * time.Microsecond,
			TransferEncoding: EncodingBinary,
			CostUnit:         1.0,
			PushdownFilters:  true,
		}
	case VendorMariaDB:
		// MariaDB "is not designed to be a high-performance OLAP DBMS"
		// (Sec. VI-B): joins and aggregations are markedly slower, the
		// federated engine ships rows in text form and does not push
		// predicates.
		return Profile{
			Vendor:           VendorMariaDB,
			ScanNsPerRow:     250,
			JoinNsPerRow:     900,
			AggNsPerRow:      700,
			StartupLatency:   500 * time.Microsecond,
			TransferEncoding: EncodingText,
			CostUnit:         0.5,
			PushdownFilters:  false,
		}
	case VendorHive:
		// Hive scans well but pays a large job-startup cost on every
		// query, and on a single node gains nothing from its distributed
		// runtime (Sec. VI-B).
		return Profile{
			Vendor:           VendorHive,
			ScanNsPerRow:     130,
			JoinNsPerRow:     400,
			AggNsPerRow:      350,
			StartupLatency:   25 * time.Millisecond,
			TransferEncoding: EncodingText,
			CostUnit:         40,
			PushdownFilters:  false,
		}
	default:
		return Profile{
			Vendor:           VendorTest,
			TransferEncoding: EncodingBinary,
			CostUnit:         1.0,
			PushdownFilters:  true,
		}
	}
}

// cpuThrottle charges simulated CPU time for n rows at nsPerRow. It
// accumulates fractional work and sleeps in coarse slices so that the
// throttle costs little real scheduling overhead.
//
// Every sleep holds cpu, the token of the statement the operator works
// for (one per QuerySelect execution). A statement models one processor:
// a join's build goroutine and its probe pipeline run at once, and the
// workers of a morsel exchange share one throttle per operator, but their
// modelled work adds up, so concurrency shortens a statement only where it
// waits on another DBMS — the network, a remote engine's work, a remote
// vendor's startup latency.
type cpuThrottle struct {
	nsPerRow int64
	cpu      *sync.Mutex
	// shared marks an operator's throttle charged by every worker of a
	// morsel exchange: only the exchange flushes the remainder, at the end
	// of the stream.
	shared bool

	mu      sync.Mutex
	pending int64
}

// throttleSleep is time.Sleep; tests count and total the sleeps through it.
var throttleSleep = time.Sleep

// share makes the throttle an exchange's. Its workers charge it with the
// serial operator's charges, one per morsel as the serial operator charges
// one per batch, only in another order, and it sleeps by the serial rule:
// the same modelled time in about as many sleeps, each just over the
// millisecond. (A larger slice would cost more than it models: time.Sleep
// rounds up to whole milliseconds on some hosts.)
func (c *cpuThrottle) share() *cpuThrottle {
	c.shared = true
	return c
}

// charge adds n rows of work and sleeps when at least one millisecond of
// simulated work has accumulated. A nil throttle charges nothing.
func (c *cpuThrottle) charge(n int64) {
	if c == nil || c.nsPerRow == 0 {
		return
	}
	c.mu.Lock()
	c.pending += n * c.nsPerRow
	var d int64
	if c.pending >= int64(time.Millisecond) {
		d, c.pending = c.pending, 0
	}
	c.mu.Unlock()
	c.sleep(d)
}

// flush sleeps off any remaining accumulated work at the end of an
// operator's stream; a shared throttle waits for its exchange's settle.
func (c *cpuThrottle) flush() {
	if c != nil && !c.shared {
		c.settle()
	}
}

// settle sleeps off the remaining accumulated work.
func (c *cpuThrottle) settle() {
	c.mu.Lock()
	d := c.pending
	c.pending = 0
	c.mu.Unlock()
	c.sleep(d)
}

func (c *cpuThrottle) sleep(d int64) {
	if d > 0 {
		c.cpu.Lock()
		throttleSleep(time.Duration(d))
		c.cpu.Unlock()
	}
}
