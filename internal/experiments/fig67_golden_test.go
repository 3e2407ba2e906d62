package experiments

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite internal/experiments/testdata goldens from the current code")

// renderFig67 prints every number in a Fig67Result as hex floats, so a
// golden comparison is exact to the bit.
func renderFig67(r Fig67Result) string {
	var b strings.Builder
	hex := func(v float64) string { return strconv.FormatFloat(v, 'x', -1, 64) }
	fmt.Fprintf(&b, "groups %d\nhandoffs_minmax %d\nhandoffs_sticky %d\n", r.GroupsSimulated, r.HandoffsMinMax, r.HandoffsSticky)
	fmt.Fprintf(&b, "mean_rtt_minmax %s\nmean_rtt_sticky %s\n", hex(r.MeanRTTMinMax), hex(r.MeanRTTSticky))
	mm6, st6 := r.Fig6Series()
	mm7, st7 := r.Fig7Series()
	for _, s := range []struct {
		name string
		x, y []float64
	}{
		{"intervals_minmax", mm6.X, mm6.Y}, {"intervals_sticky", st6.X, st6.Y},
		{"transfers_minmax", mm7.X, mm7.Y}, {"transfers_sticky", st7.X, st7.Y},
	} {
		fmt.Fprintf(&b, "%s %d\n", s.name, len(s.x))
		for i := range s.x {
			fmt.Fprintf(&b, "%s %s\n", hex(s.x[i]), hex(s.y[i]))
		}
	}
	return b.String()
}

// TestFig67Golden pins Fig67 to outputs captured from the group-major
// driver (the commit before the time-major rewrite): hand-off counts, mean
// RTTs and all four CDF point sets, bit for bit.
func TestFig67Golden(t *testing.T) {
	if testing.Short() {
		t.Skip("long simulation")
	}
	for _, tc := range []struct {
		golden string
		cfg    Fig67Config
	}{
		{"fig67_g6_3600s_5s.golden", Fig67Config{Groups: 6, DurationSec: 3600, StepSec: 5}},
		{"fig67_g3_600s_2s.golden", Fig67Config{Groups: 3, DurationSec: 600, StepSec: 2}},
	} {
		t.Run(tc.golden, func(t *testing.T) {
			res, err := Fig67(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			got := renderFig67(res)
			path := filepath.Join("testdata", tc.golden)
			if *updateGolden {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if got != string(want) {
				t.Fatalf("Fig67 diverged from %s:\n--- got ---\n%s--- want ---\n%s", path, got, want)
			}
		})
	}
}
