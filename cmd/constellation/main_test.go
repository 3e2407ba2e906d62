package main

import (
	"math"
	"strings"
	"testing"

	"repro/internal/constellation"
	"repro/internal/tle"
)

func TestPrintInfo(t *testing.T) {
	c, err := constellation.Preset("kuiper")
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := printInfo(&b, c); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"Kuiper: 3236 satellites, 3 shells", "kuiper-630", "+grid ISLs: 6472 links"} {
		if !strings.Contains(out, want) {
			t.Fatalf("info output missing %q:\n%s", want, out)
		}
	}
}

func TestExportTLERoundTrips(t *testing.T) {
	c, err := constellation.Preset("telesat")
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := exportTLE(&b, c); err != nil {
		t.Fatal(err)
	}
	got, err := tle.DecodeAll(b.String(), true)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != c.Size() {
		t.Fatalf("exported %d TLEs for %d satellites", len(got), c.Size())
	}
}

func TestPrintSnapshot(t *testing.T) {
	c, err := constellation.Preset("kuiper")
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := printSnapshot(&b, c, 120); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	if len(lines) != c.Size()+1 {
		t.Fatalf("snapshot lines = %d, want %d", len(lines), c.Size()+1)
	}
	if lines[0] != "id,shell,plane,slot,lat,lon,alt_km" {
		t.Fatalf("header = %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "0,kuiper-") {
		t.Fatalf("first row = %q", lines[1])
	}
	// A non-finite time is refused before the header or any row is
	// written.
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		var out strings.Builder
		if err := printSnapshot(&out, c, bad); err == nil || out.Len() != 0 {
			t.Fatalf("-snapshot %v: err = %v, wrote %d bytes", bad, err, out.Len())
		}
	}
}

// TestBuildNamed checks that every name the -name flag offers builds a
// constellation and that an unknown name is refused.
func TestBuildNamed(t *testing.T) {
	for _, name := range []string{"starlink", "kuiper", "telesat"} {
		c, err := constellation.Preset(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if c.Size() == 0 {
			t.Fatalf("%s: empty", name)
		}
	}
	if _, err := constellation.Preset("atlantis"); err == nil {
		t.Fatal("unknown name accepted")
	}
}
