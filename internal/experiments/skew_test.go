package experiments

import (
	"testing"

	"xdb/internal/core"
)

// TestSkewCorrection pins the estimate-correction sweep's decisive cases
// on a TPC-H testbed: sampling saves at least half the bytes on the two
// cost-based cases where it pays most, and with every edge forced
// explicit a drained edge teaches the repeat to ship at most half of what
// the first run shipped. Every run's answer must be the unskewed one.
func TestSkewCorrection(t *testing.T) {
	explicit := core.Options{ForceMovement: core.MoveExplicit}
	cases := []struct {
		name string
		c    skewCase
		// Compare base against better: better's bytes at most half of
		// base's. repeat compares the arm's repeat with its own first run.
		base, better core.Options
		repeat       bool
	}{
		{"Q8 nation x0.1, SampleLimit 64", skewCase{"TD1", "Q8", "nation", 0.1},
			core.Options{}, core.Options{SampleLimit: 64}, false},
		{"Q7 nation x10, SampleLimit 1000", skewCase{"TD1", "Q7", "nation", 10},
			core.Options{}, core.Options{SampleLimit: 1000}, false},
		{"Q3 lineitem x0.1, forced explicit, repeat", skewCase{"TD1", "Q3", "lineitem", 0.1},
			explicit, explicit, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want, err := skewAnswer(tc.c.td, tc.c.query)
			if err != nil {
				t.Fatal(err)
			}
			base, err := runSkewed(tc.c, tc.base, want)
			if err != nil {
				t.Fatal(err)
			}
			better, before, after := base, base.first, base.repeat
			if !tc.repeat {
				if better, err = runSkewed(tc.c, tc.better, want); err != nil {
					t.Fatal(err)
				}
				after = better.first
			}
			if !base.correct || !better.correct {
				t.Errorf("an answer differs from the unskewed one (base %v, better %v)", base.correct, better.correct)
			}
			if 2*after > before {
				t.Errorf("shipped %d B against %d B, want at most half", after, before)
			}
			t.Logf("%s: %d B -> %d B", tc.c, before, after)
		})
	}
}
