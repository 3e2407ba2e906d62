package constellation

import (
	"math"
	"strings"
	"testing"

	"repro/internal/orbit"
	"repro/internal/tle"
)

func TestTLERoundTrip(t *testing.T) {
	// Export the Kuiper preset as TLEs, re-import, and check the imported
	// constellation matches satellite-for-satellite in position.
	orig, err := Kuiper(Config{})
	if err != nil {
		t.Fatal(err)
	}
	tles := orig.ExportTLEs(90000, 20, 310.5)
	if len(tles) != orig.Size() {
		t.Fatalf("exported %d TLEs for %d satellites", len(tles), orig.Size())
	}
	// Every exported TLE encodes and decodes cleanly.
	for i, tt := range tles[:50] {
		dec, err := tle.Decode(tt.Encode(), true)
		if err != nil {
			t.Fatalf("TLE %d: %v", i, err)
		}
		if dec.CatalogNumber != 90000+i {
			t.Fatalf("TLE %d catalog = %d", i, dec.CatalogNumber)
		}
	}

	imp, err := FromTLEs("kuiper-import", tles, 35, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if imp.Size() != orig.Size() {
		t.Fatalf("imported %d, want %d", imp.Size(), orig.Size())
	}
	// Three altitude/inclination groups → three synthetic shells.
	if len(imp.Shells) != 3 {
		t.Fatalf("imported %d shells, want 3", len(imp.Shells))
	}
	for _, sh := range imp.Shells {
		if !strings.HasPrefix(sh.Name, "import-") {
			t.Fatalf("shell name %q", sh.Name)
		}
		if sh.MinElevationDeg != 35 {
			t.Fatalf("shell mask %v", sh.MinElevationDeg)
		}
	}
	// Positions agree with the originals to within TLE encoding precision.
	// Satellite order differs (grouped by shell), so match by best
	// distance over a sample.
	snapO := orig.Snapshot(0)
	snapI := imp.Snapshot(0)
	for i := 0; i < len(snapO); i += 97 {
		best := math.Inf(1)
		for j := range snapI {
			if d := snapO[i].Distance(snapI[j]); d < best {
				best = d
			}
		}
		// 4 decimal degrees of angle at ~7000 km radius ≈ 1.2 km; allow
		// a few km for compounding.
		if best > 10 {
			t.Fatalf("original sat %d has no imported counterpart within 10 km (best %v)", i, best)
		}
	}
}

func TestFromTLEsValidation(t *testing.T) {
	if _, err := FromTLEs("x", nil, 25, Config{}); err == nil {
		t.Fatal("empty catalog accepted")
	}
	good := tle.FromElements("A", 1, mustElements(550, 53), 20, 1)
	for _, elev := range []float64{95, math.NaN()} {
		if _, err := FromTLEs("x", []tle.TLE{good}, elev, Config{}); err == nil {
			t.Fatalf("elevation %v accepted", elev)
		}
	}
	// A TLE decoding to an unusable orbit (mean motion → negative altitude).
	bad := good
	bad.MeanMotionRevPerDay = 30 // implies an orbit inside the Earth
	if _, err := FromTLEs("x", []tle.TLE{bad}, 25, Config{}); err == nil {
		t.Fatal("subterranean orbit accepted")
	}
}

func TestFromTLEsGrouping(t *testing.T) {
	var tles []tle.TLE
	// Two shells: 550/53 and 1110/53.8, five satellites each.
	for i := 0; i < 5; i++ {
		tles = append(tles, tle.FromElements("low", i, mustElements(550, 53), 20, 1))
		tles = append(tles, tle.FromElements("high", 100+i, mustElements(1110, 53.8), 20, 1))
	}
	c, err := FromTLEs("two-shell", tles, 25, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Shells) != 2 {
		t.Fatalf("shells = %d, want 2", len(c.Shells))
	}
	// Shells sorted by altitude.
	if c.Shells[0].AltitudeKm > c.Shells[1].AltitudeKm {
		t.Fatal("shells not sorted by altitude")
	}
	if c.Shells[0].Count() != 5 || c.Shells[1].Count() != 5 {
		t.Fatalf("shell sizes %d/%d", c.Shells[0].Count(), c.Shells[1].Count())
	}
	// IDs dense and shell indices consistent.
	for i, s := range c.Satellites {
		if s.ID != i {
			t.Fatalf("sat %d has ID %d", i, s.ID)
		}
	}
}

func mustElements(alt, inc float64) orbit.Elements {
	return orbit.Elements{AltitudeKm: alt, InclinationDeg: inc}
}
