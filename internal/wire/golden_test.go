package wire

import (
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"xdb/internal/engine"
	"xdb/internal/sqltypes"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/")

// TestFrameGolden pins the binary row-batch frame byte for byte, compared
// with testdata/frame.golden: the first rows of BenchmarkRowFrame's Q3, Q5
// and Q10 shapes (declared ints, dates, decimals and strings, literal and
// by reference), a stream whose columns turn mixed (a NULL in the first
// row, then a type change that cuts the frame) and zero-width rows, each
// framed as the server frames them (rowFrame.push), every payload in hex.
// `go test ./internal/wire/ -run TestFrameGolden -update` rewrites it, only
// when a format change is meant, which then shows as one diff.
func TestFrameGolden(t *testing.T) {
	shapes := map[string][]sqltypes.Row{}
	for _, s := range frameShapes() {
		shapes[s.name] = s.rows
	}
	cases := []struct {
		name string
		rows []sqltypes.Row
	}{
		{"Q3", shapes["Q3"][:6]},
		{"Q5", shapes["Q5"][:12]},
		{"Q10", shapes["Q10"][:2]},
		{"mixed", []sqltypes.Row{
			{sqltypes.NewInt(1), sqltypes.Null, sqltypes.NewFloat(0.25)},
			{sqltypes.NewInt(2), sqltypes.NewString("FRANCE"), sqltypes.NewFloat(math.Copysign(0, -1))},
			{sqltypes.NewInt(3), sqltypes.NewString("FRANCE"), sqltypes.NewInt(7)},
			{sqltypes.NewInt(4), sqltypes.Null, sqltypes.NewFloat(1.5)},
		}},
		{"zero-width", []sqltypes.Row{{}, {}, {}}},
	}
	var w strings.Builder
	for _, tc := range cases {
		fmt.Fprintf(&w, "== %s: %d rows\n", tc.name, len(tc.rows))
		streamRows(newRowFrame(engine.EncodingBinary), tc.rows, func(payload []byte) {
			fmt.Fprintf(&w, "frame of %d B:\n", len(payload))
			for len(payload) > 0 {
				n := min(len(payload), 16)
				fmt.Fprintf(&w, "    % x\n", payload[:n])
				payload = payload[n:]
			}
		})
	}
	path := filepath.Join("testdata", "frame.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(w.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run the test with -update)", err)
	}
	if got := w.String(); got != string(want) {
		t.Errorf("%s differs:\n got:\n%s\nwant:\n%s", path, got, want)
	}
}
