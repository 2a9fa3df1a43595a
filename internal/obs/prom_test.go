package obs_test

import (
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"xdb"
	"xdb/internal/obs"
)

// A strict Prometheus text exposition format (version 0.0.4) checker.
// The repo's scrapes had silently tolerated two classes of violation —
// Go-%q label escaping (which emits \xNN / \uNNNN sequences the
// Prometheus parser rejects) and comment/sample interleaving — so this
// parser accepts exactly the grammar the format specifies and nothing
// more: every family is one contiguous HELP, TYPE, samples block; label
// values escape only \\, \", and \n; sample values parse as floats.

func lintPrometheus(t *testing.T, text string) {
	t.Helper()
	if text == "" {
		t.Fatal("empty exposition")
	}
	if !strings.HasSuffix(text, "\n") {
		t.Fatal("exposition must end with a newline")
	}
	seen := map[string]bool{} // family -> block completed
	var cur string            // family whose block is open
	var curType string        // its TYPE
	helpFor := map[string]bool{}
	typeFor := map[string]bool{}
	for ln, line := range strings.Split(strings.TrimSuffix(text, "\n"), "\n") {
		fail := func(msg string) {
			t.Helper()
			t.Fatalf("line %d %q: %s", ln+1, line, msg)
		}
		switch {
		case strings.HasPrefix(line, "# HELP "):
			rest := strings.TrimPrefix(line, "# HELP ")
			name, help, ok := strings.Cut(rest, " ")
			if !ok || !validMetricName(name) {
				fail("malformed HELP")
			}
			if !validEscapes(help, false) {
				fail("HELP text has invalid escape (only \\\\ and \\n allowed)")
			}
			if seen[name] || helpFor[name] {
				fail("family re-opened: HELP must appear once, in one contiguous block")
			}
			if cur != "" {
				seen[cur] = true
			}
			cur, curType = name, ""
			helpFor[name] = true
		case strings.HasPrefix(line, "# TYPE "):
			rest := strings.TrimPrefix(line, "# TYPE ")
			name, typ, ok := strings.Cut(rest, " ")
			if !ok || !validMetricName(name) {
				fail("malformed TYPE")
			}
			switch typ {
			case "counter", "gauge", "histogram", "summary", "untyped":
			default:
				fail("unknown TYPE")
			}
			if typeFor[name] {
				fail("duplicate TYPE")
			}
			if name != cur {
				fail("TYPE must immediately follow its family's HELP")
			}
			typeFor[name] = true
			curType = typ
		case strings.HasPrefix(line, "#"):
			fail("only HELP and TYPE comments are emitted")
		default:
			name, rest := splitMetricName(line)
			if name == "" {
				fail("sample does not start with a valid metric name")
			}
			base := name
			if curType == "histogram" {
				for _, suf := range []string{"_bucket", "_sum", "_count"} {
					if strings.HasSuffix(name, suf) && strings.TrimSuffix(name, suf) == cur {
						base = cur
					}
				}
			}
			if base != cur {
				fail("sample outside its family's block")
			}
			if strings.HasPrefix(rest, "{") {
				var ok bool
				rest, ok = lintLabels(rest)
				if !ok {
					fail("malformed label set")
				}
			}
			if !strings.HasPrefix(rest, " ") {
				fail("missing space before value")
			}
			val := strings.TrimPrefix(rest, " ")
			if _, err := strconv.ParseFloat(val, 64); err != nil {
				fail("sample value is not a valid float")
			}
		}
	}
	for name := range helpFor {
		if !typeFor[name] {
			t.Fatalf("family %s has HELP but no TYPE", name)
		}
	}
}

func validMetricName(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		alpha := (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') || r == '_' || r == ':'
		if !alpha && (i == 0 || r < '0' || r > '9') {
			return false
		}
	}
	return true
}

// splitMetricName cuts the leading metric name off a sample line.
func splitMetricName(line string) (name, rest string) {
	i := 0
	for i < len(line) {
		c := line[i]
		alpha := (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_' || c == ':'
		if !alpha && !(i > 0 && c >= '0' && c <= '9') {
			break
		}
		i++
	}
	if i == 0 {
		return "", line
	}
	return line[:i], line[i:]
}

// validEscapes checks that every backslash starts a legal escape:
// \\ and \n everywhere, plus \" when quoted is set (label values).
func validEscapes(s string, quoted bool) bool {
	for i := 0; i < len(s); i++ {
		if s[i] != '\\' {
			continue
		}
		if i+1 >= len(s) {
			return false
		}
		switch s[i+1] {
		case '\\', 'n':
		case '"':
			if !quoted {
				return false
			}
		default:
			return false
		}
		i++
	}
	return true
}

// lintLabels consumes a {name="value",...} label set, returning what
// follows it and whether it was well-formed.
func lintLabels(s string) (rest string, ok bool) {
	s = strings.TrimPrefix(s, "{")
	for {
		eq := strings.Index(s, "=")
		if eq <= 0 || !validMetricName(s[:eq]) {
			return "", false
		}
		s = s[eq+1:]
		if !strings.HasPrefix(s, `"`) {
			return "", false
		}
		s = s[1:]
		// Find the closing unescaped quote, validating escapes on the way.
		end := -1
		for i := 0; i < len(s); i++ {
			switch s[i] {
			case '\\':
				if i+1 >= len(s) {
					return "", false
				}
				switch s[i+1] {
				case '\\', '"', 'n':
				default:
					return "", false
				}
				i++
			case '"':
				end = i
			}
			if end >= 0 {
				break
			}
		}
		if end < 0 {
			return "", false
		}
		s = s[end+1:]
		switch {
		case strings.HasPrefix(s, ","):
			s = s[1:]
		case strings.HasPrefix(s, "}"):
			return s[1:], true
		default:
			return "", false
		}
	}
}

// TestPrometheusLabelEscaping feeds the renderer label values that Go's
// %q and the Prometheus format disagree on, and checks both the strict
// grammar and the exact escaped bytes.
func TestPrometheusLabelEscaping(t *testing.T) {
	r := obs.NewRegistry()
	vec := r.CounterVec("adv_total", "adversarial labels with a \\ backslash", "tag")
	vec.With(`back\slash`).Inc()
	vec.With(`quo"te`).Inc()
	vec.With("new\nline").Inc()
	vec.With("ünïcode — ok").Inc()
	vec.With("tab\tok").Inc() // tab is a legal raw byte in a label value
	r.Gauge("adv_gauge", "a gauge").Set(7)
	r.Histogram("adv_seconds", "a histogram", nil).Observe(0.003)

	var b strings.Builder
	r.WritePrometheus(&b)
	out := b.String()
	lintPrometheus(t, out)

	for _, want := range []string{
		`adv_total{tag="back\\slash"} 1`,
		`adv_total{tag="quo\"te"} 1`,
		`adv_total{tag="new\nline"} 1`,
		"adv_total{tag=\"ünïcode — ok\"} 1",
		"adv_total{tag=\"tab\tok\"} 1",
	} {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("exposition missing %q\n%s", want, out)
		}
	}
	if strings.Contains(out, `\u`) || strings.Contains(out, `\x`) {
		t.Errorf("Go-%%q escape sequences leaked into the exposition:\n%s", out)
	}
}

// TestMetricsEndpointConformance runs a real cross-database query so the
// full metric set — query outcomes, probes, DDLs, breaker states, edge
// flow counters, gather-time gauges — has samples, then lints the
// complete /metrics exposition.
func TestMetricsEndpointConformance(t *testing.T) {
	cluster, err := xdb.NewCluster([]string{"db1", "db2"}, xdb.ClusterConfig{
		DefaultVendor: xdb.VendorTest,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	users := xdb.NewSchema(
		xdb.Column{Name: "id", Type: xdb.TypeInt},
		xdb.Column{Name: "name", Type: xdb.TypeString},
	)
	if err := cluster.Load("db1", "users", users, []xdb.Row{
		{xdb.NewInt(1), xdb.NewString("ada")},
		{xdb.NewInt(2), xdb.NewString("grace")},
	}); err != nil {
		t.Fatal(err)
	}
	orders := xdb.NewSchema(
		xdb.Column{Name: "id", Type: xdb.TypeInt},
		xdb.Column{Name: "user_id", Type: xdb.TypeInt},
	)
	var rows []xdb.Row
	for i := 0; i < 40; i++ {
		rows = append(rows, xdb.Row{xdb.NewInt(int64(i)), xdb.NewInt(int64(1 + i%2))})
	}
	if err := cluster.Load("db2", "orders", orders, rows); err != nil {
		t.Fatal(err)
	}
	if _, err := cluster.Query(`SELECT u.name, COUNT(*) AS n FROM users u, orders o
		WHERE u.id = o.user_id GROUP BY u.name ORDER BY u.name`); err != nil {
		t.Fatal(err)
	}

	rec := httptest.NewRecorder()
	xdb.MetricsHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	body := rec.Body.String()
	lintPrometheus(t, body)
	for _, series := range []string{"xdb_queries_total{outcome=\"ok\"}", "xdb_edge_rows_total", "xdb_edge_bytes_total"} {
		if !strings.Contains(body, series) {
			t.Errorf("full exposition missing %s", series)
		}
	}
}
