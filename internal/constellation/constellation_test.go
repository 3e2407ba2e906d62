package constellation

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/geo"
	"repro/internal/orbit"
	"repro/internal/units"
)

func build(t *testing.T, name string, shells []Shell) *Constellation {
	t.Helper()
	c, err := Build(name, shells, Config{})
	if err != nil {
		t.Fatalf("Build(%s): %v", name, err)
	}
	return c
}

func TestPresetSizes(t *testing.T) {
	tests := []struct {
		name  string
		build func(Config) (*Constellation, error)
		want  int
	}{
		// The paper: Starlink Phase I comprises 4,409 satellites.
		{"starlink-p1", StarlinkPhase1, 4409},
		// Kuiper's FCC filing: 3,236 satellites.
		{"kuiper", Kuiper, 3236},
		// Telesat: 1,671.
		{"telesat", Telesat, 1671},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			c, err := tc.build(Config{})
			if err != nil {
				t.Fatal(err)
			}
			if c.Size() != tc.want {
				t.Fatalf("Size() = %d, want %d", c.Size(), tc.want)
			}
			if len(c.Satellites) != tc.want {
				t.Fatalf("len(Satellites) = %d, want %d", len(c.Satellites), tc.want)
			}
		})
	}
}

// TestPresets: the names every command's -name flag takes build the three
// presets, and an unknown name's error lists them.
func TestPresets(t *testing.T) {
	for name, want := range map[string]int{"starlink": 4409, "kuiper": 3236, "telesat": 1671} {
		c, err := Preset(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if c.Size() != want {
			t.Fatalf("%s: Size() = %d, want %d", name, c.Size(), want)
		}
	}
	_, err := Preset("atlantis")
	if err == nil {
		t.Fatal("unknown preset accepted")
	}
	for _, name := range []string{"starlink", "kuiper", "telesat"} {
		if !strings.Contains(err.Error(), name) {
			t.Fatalf("error %q does not list %q", err, name)
		}
	}
}

func TestShellValidate(t *testing.T) {
	tests := []struct {
		name    string
		s       Shell
		wantErr bool
	}{
		{"good", Shell{Name: "x", AltitudeKm: 550, InclinationDeg: 53, Planes: 10, SatsPerPlane: 10, MinElevationDeg: 25}, false},
		{"no-planes", Shell{Name: "x", AltitudeKm: 550, Planes: 0, SatsPerPlane: 10}, true},
		{"no-sats", Shell{Name: "x", AltitudeKm: 550, Planes: 10, SatsPerPlane: 0}, true},
		{"bad-alt", Shell{Name: "x", AltitudeKm: -1, Planes: 10, SatsPerPlane: 10}, true},
		{"bad-elev", Shell{Name: "x", AltitudeKm: 550, Planes: 10, SatsPerPlane: 10, MinElevationDeg: 95}, true},
		{"nan-alt", Shell{Name: "x", AltitudeKm: math.NaN(), Planes: 10, SatsPerPlane: 10}, true},
		{"inf-alt", Shell{Name: "x", AltitudeKm: math.Inf(1), Planes: 10, SatsPerPlane: 10}, true},
		{"nan-inc", Shell{Name: "x", AltitudeKm: 550, InclinationDeg: math.NaN(), Planes: 10, SatsPerPlane: 10}, true},
		{"inf-inc", Shell{Name: "x", AltitudeKm: 550, InclinationDeg: math.Inf(-1), Planes: 10, SatsPerPlane: 10}, true},
		{"nan-elev", Shell{Name: "x", AltitudeKm: 550, Planes: 10, SatsPerPlane: 10, MinElevationDeg: math.NaN()}, true},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.s.Validate(); (err != nil) != tc.wantErr {
				t.Fatalf("Validate() = %v, wantErr %v", err, tc.wantErr)
			}
		})
	}
}

func TestBuildRejectsBadShell(t *testing.T) {
	if _, err := Build("bad", []Shell{{Name: "x", AltitudeKm: 550, Planes: 0, SatsPerPlane: 1}}, Config{}); err == nil {
		t.Fatal("Build should reject an invalid shell")
	}
	for _, sh := range []Shell{
		{Name: "nan-alt", AltitudeKm: math.NaN(), InclinationDeg: 53, Planes: 2, SatsPerPlane: 2},
		{Name: "inf-alt", AltitudeKm: math.Inf(1), InclinationDeg: 53, Planes: 2, SatsPerPlane: 2},
		{Name: "nan-inc", AltitudeKm: 550, InclinationDeg: math.NaN(), Planes: 2, SatsPerPlane: 2},
	} {
		if c, err := Build("bad", []Shell{sh}, Config{}); err == nil {
			t.Fatalf("Build accepted shell %q (first position %v)", sh.Name, c.Snapshot(0)[0])
		}
	}
}

// TestFrameKernelMatchesECEFAt: Snapshot and SnapshotInto, which run the
// frame kernel, equal each satellite's own ECEFAt bit for bit on all three
// presets with J2 on and off and on an imported constellation (one synthetic
// plane a shell, RAANs in no order), at signed zeros, negative, large and
// fractional instants.
func TestFrameKernelMatchesECEFAt(t *testing.T) {
	var consts []*Constellation
	for _, j2 := range []bool{false, true} {
		for _, preset := range []func(Config) (*Constellation, error){StarlinkPhase1, Kuiper, Telesat} {
			c, err := preset(Config{Orbit: orbit.Options{J2: j2}})
			if err != nil {
				t.Fatal(err)
			}
			consts = append(consts, c)
		}
	}
	imp, err := FromTLEs("import", consts[2].ExportTLEs(1, 20, 100.5), 25, Config{Orbit: orbit.Options{J2: true}})
	if err != nil {
		t.Fatal(err)
	}
	consts = append(consts, imp)
	for _, c := range consts {
		into := make([]geo.Vec3, c.Size())
		for _, tt := range []float64{0, math.Copysign(0, -1), -3600.25, 1e7, 123.456} {
			snap := c.Snapshot(tt)
			if err := c.SnapshotInto(tt, into); err != nil {
				t.Fatal(err)
			}
			for i, s := range c.Satellites {
				want := s.Prop.ECEFAt(tt)
				if !sameBits(snap[i], want) || !sameBits(into[i], want) {
					t.Fatalf("%s t=%v sat %d: kernel %v / %v, ECEFAt %v", c.Name, tt, i, snap[i], into[i], want)
				}
			}
		}
	}
}

// sameBits reports whether two positions are equal bit for bit (so -0 ≠ +0).
func sameBits(a, b geo.Vec3) bool {
	return math.Float64bits(a.X) == math.Float64bits(b.X) &&
		math.Float64bits(a.Y) == math.Float64bits(b.Y) &&
		math.Float64bits(a.Z) == math.Float64bits(b.Z)
}

func TestIDsDenseAndOrdered(t *testing.T) {
	c := build(t, "t", []Shell{
		{Name: "a", AltitudeKm: 550, InclinationDeg: 53, Planes: 3, SatsPerPlane: 4, MinElevationDeg: 25},
		{Name: "b", AltitudeKm: 1110, InclinationDeg: 53.8, Planes: 2, SatsPerPlane: 5, MinElevationDeg: 25},
	})
	if c.Size() != 3*4+2*5 {
		t.Fatalf("Size = %d", c.Size())
	}
	for i, s := range c.Satellites {
		if s.ID != i {
			t.Fatalf("satellite %d has ID %d", i, s.ID)
		}
	}
	// First shell occupies IDs 0..11, second 12..21.
	if c.Satellites[11].ShellIndex != 0 || c.Satellites[12].ShellIndex != 1 {
		t.Fatal("shell boundaries wrong")
	}
}

func TestWalkerSpacingWithinPlane(t *testing.T) {
	c := build(t, "t", []Shell{
		{Name: "a", AltitudeKm: 550, InclinationDeg: 53, Planes: 4, SatsPerPlane: 8, MinElevationDeg: 25},
	})
	// Satellites in one plane are separated by equal central angles of
	// 360/8 = 45°, i.e. equal chord distances.
	snap := c.Snapshot(0)
	r := units.EarthRadiusKm + 550
	wantChord := 2 * r * math.Sin(units.Deg2Rad(45)/2)
	for k := 0; k < 8; k++ {
		a := snap[k]
		b := snap[(k+1)%8]
		if math.Abs(a.Distance(b)-wantChord) > 1e-6 {
			t.Fatalf("in-plane neighbour chord = %v, want %v", a.Distance(b), wantChord)
		}
	}
}

func TestWalkerPlanesEvenRAAN(t *testing.T) {
	sh := Shell{Name: "a", AltitudeKm: 550, InclinationDeg: 53, Planes: 5, SatsPerPlane: 3, MinElevationDeg: 25}
	c := build(t, "t", []Shell{sh})
	for _, s := range c.Satellites {
		wantRAAN := units.WrapDegrees(float64(s.Plane) * 360 / 5)
		if got := s.Prop.Elements().RAANDeg; math.Abs(got-wantRAAN) > 1e-9 {
			t.Fatalf("plane %d RAAN = %v, want %v", s.Plane, got, wantRAAN)
		}
	}
}

func TestPhaseFactorOffsets(t *testing.T) {
	sh := Shell{Name: "a", AltitudeKm: 550, InclinationDeg: 53, Planes: 4, SatsPerPlane: 6, PhaseFactor: 2, MinElevationDeg: 25}
	c := build(t, "t", []Shell{sh})
	// Slot 0 of plane p is offset by p * F * 360/(P*S) = p * 2 * 15 = 30p degrees.
	for _, s := range c.Satellites {
		if s.Slot != 0 {
			continue
		}
		want := units.WrapDegrees(float64(s.Plane) * 30)
		if got := s.Prop.Elements().ArgLatDeg; math.Abs(got-want) > 1e-9 {
			t.Fatalf("plane %d slot 0 arg lat = %v, want %v", s.Plane, got, want)
		}
	}
}

func TestSnapshotAltitudes(t *testing.T) {
	c, err := StarlinkPhase1(Config{})
	if err != nil {
		t.Fatal(err)
	}
	snap := c.Snapshot(1234)
	for id, pos := range snap {
		sh := c.Shells[c.Satellites[id].ShellIndex]
		want := units.EarthRadiusKm + sh.AltitudeKm
		if math.Abs(pos.Norm()-want) > 1e-6 {
			t.Fatalf("sat %d radius %v, want %v", id, pos.Norm(), want)
		}
	}
}

func TestSnapshotIntoMatchesSnapshot(t *testing.T) {
	c, err := Kuiper(Config{})
	if err != nil {
		t.Fatal(err)
	}
	a := c.Snapshot(777)
	b := make([]geo.Vec3, c.Size())
	if err := c.SnapshotInto(777, b); err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("mismatch at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

// TestSnapshotIntoWrongLengthErrors: a wrong-sized dst is an error wrapping
// ErrSnapshotLength that names the length, and dst is left untouched.
func TestSnapshotIntoWrongLengthErrors(t *testing.T) {
	c, err := Telesat(Config{})
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{0, 3, c.Size() - 1, c.Size() + 1} {
		dst := make([]geo.Vec3, n)
		err := c.SnapshotInto(0, dst)
		if !errors.Is(err, ErrSnapshotLength) || !strings.Contains(err.Error(), fmt.Sprintf("SnapshotInto dst length %d", n)) {
			t.Fatalf("dst length %d: error %v, want one wrapping ErrSnapshotLength", n, err)
		}
		for i, v := range dst {
			if v != (geo.Vec3{}) {
				t.Fatalf("dst length %d: satellite %d written (%v)", n, i, v)
			}
		}
	}
}

func TestMinElevationPerShell(t *testing.T) {
	c, err := StarlinkPhase1(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Shells[c.Satellites[0].ShellIndex].MinElevationDeg; got != 25 {
		t.Fatalf("Starlink mask = %v, want 25", got)
	}
	k, err := Kuiper(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if got := k.Shells[k.Satellites[0].ShellIndex].MinElevationDeg; got != 35 {
		t.Fatalf("Kuiper mask = %v, want 35", got)
	}
}

func TestSatelliteName(t *testing.T) {
	c := build(t, "t", []Shell{
		{Name: "starlink-550", AltitudeKm: 550, InclinationDeg: 53, Planes: 2, SatsPerPlane: 2, MinElevationDeg: 25},
	})
	if got := c.Satellites[3].Name(c.Shells); got != "starlink-550/p01s01" {
		t.Fatalf("Name = %q", got)
	}
	bad := Satellite{ShellIndex: 99, Plane: 1, Slot: 2}
	if got := bad.Name(c.Shells); got != "?/p01s02" {
		t.Fatalf("Name with bad shell = %q", got)
	}
}

func TestNoTwoSatellitesCoincide(t *testing.T) {
	// Within a shell, all satellites occupy distinct positions at epoch.
	sh := Shell{Name: "a", AltitudeKm: 550, InclinationDeg: 53, Planes: 6, SatsPerPlane: 6, PhaseFactor: 1, MinElevationDeg: 25}
	c := build(t, "t", []Shell{sh})
	snap := c.Snapshot(0)
	for i := 0; i < len(snap); i++ {
		for j := i + 1; j < len(snap); j++ {
			if snap[i].Distance(snap[j]) < 1 {
				t.Fatalf("satellites %d and %d coincide", i, j)
			}
		}
	}
}

func TestPropertyShellCount(t *testing.T) {
	f := func(p, s uint8) bool {
		planes := int(p%20) + 1
		sats := int(s%20) + 1
		sh := Shell{Name: "q", AltitudeKm: 600, InclinationDeg: 50, Planes: planes, SatsPerPlane: sats, MinElevationDeg: 25}
		c, err := Build("q", []Shell{sh}, Config{})
		if err != nil {
			return false
		}
		return c.Size() == planes*sats && sh.Count() == planes*sats
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestStarlinkShellBreakdown(t *testing.T) {
	// 1584 + 1600 + 400 + 375 + 450 = 4409
	shells := StarlinkPhase1Shells()
	wants := []int{1584, 1600, 400, 375, 450}
	if len(shells) != len(wants) {
		t.Fatalf("got %d shells", len(shells))
	}
	total := 0
	for i, sh := range shells {
		if sh.Count() != wants[i] {
			t.Errorf("shell %s count = %d, want %d", sh.Name, sh.Count(), wants[i])
		}
		total += sh.Count()
	}
	if total != 4409 {
		t.Fatalf("total = %d, want 4409", total)
	}
}
