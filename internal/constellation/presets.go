package constellation

import "fmt"

// Preset shell parameters, taken from the FCC filings the paper relies on.
// Phase factors are not public; we use small fixed offsets, which shifts
// individual satellites but not the latitude-aggregated statistics the paper
// reports (see DESIGN.md §5.3).

// StarlinkPhase1Shells returns the five shells of SpaceX's Starlink Phase I
// filing: 4,409 satellites in total. The 550 km shell uses the 25° elevation
// mask from the 2019 modification; the higher shells use 40°-class masks in
// the filing, but the paper (like Hypatia) applies a single 25° mask, which
// we follow for shape fidelity.
func StarlinkPhase1Shells() []Shell {
	return []Shell{
		{Name: "starlink-550", AltitudeKm: 550, InclinationDeg: 53.0, Planes: 72, SatsPerPlane: 22, PhaseFactor: 17, MinElevationDeg: 25},
		{Name: "starlink-1110", AltitudeKm: 1110, InclinationDeg: 53.8, Planes: 32, SatsPerPlane: 50, PhaseFactor: 9, MinElevationDeg: 25},
		{Name: "starlink-1130", AltitudeKm: 1130, InclinationDeg: 74.0, Planes: 8, SatsPerPlane: 50, PhaseFactor: 3, MinElevationDeg: 25},
		{Name: "starlink-1275", AltitudeKm: 1275, InclinationDeg: 81.0, Planes: 5, SatsPerPlane: 75, PhaseFactor: 2, MinElevationDeg: 25},
		{Name: "starlink-1325", AltitudeKm: 1325, InclinationDeg: 70.0, Planes: 6, SatsPerPlane: 75, PhaseFactor: 2, MinElevationDeg: 25},
	}
}

// KuiperShells returns the three shells of Amazon's Kuiper filing: 3,236
// satellites, 35° elevation mask, no service above ~60° latitude (the paper
// notes "Kuiper's design does not provide service beyond 60° latitude" —
// that falls out of the 51.9° maximum inclination plus the mask).
func KuiperShells() []Shell {
	return []Shell{
		{Name: "kuiper-630", AltitudeKm: 630, InclinationDeg: 51.9, Planes: 34, SatsPerPlane: 34, PhaseFactor: 1, MinElevationDeg: 35},
		{Name: "kuiper-610", AltitudeKm: 610, InclinationDeg: 42.0, Planes: 36, SatsPerPlane: 36, PhaseFactor: 1, MinElevationDeg: 35},
		{Name: "kuiper-590", AltitudeKm: 590, InclinationDeg: 33.0, Planes: 28, SatsPerPlane: 28, PhaseFactor: 1, MinElevationDeg: 35},
	}
}

// TelesatShells returns Telesat's two-shell Lightspeed configuration
// (polar + inclined), 1,671 satellites, 10° elevation mask. The paper
// mentions Telesat as the third >1,000-satellite proposal; we include it for
// completeness and extension experiments.
func TelesatShells() []Shell {
	return []Shell{
		{Name: "telesat-polar", AltitudeKm: 1015, InclinationDeg: 98.98, Planes: 27, SatsPerPlane: 13, PhaseFactor: 1, MinElevationDeg: 10},
		{Name: "telesat-inclined", AltitudeKm: 1325, InclinationDeg: 50.88, Planes: 40, SatsPerPlane: 33, PhaseFactor: 1, MinElevationDeg: 10},
	}
}

// StarlinkPhase1 builds the Starlink Phase I constellation (4,409 sats).
func StarlinkPhase1(cfg Config) (*Constellation, error) {
	return Build("Starlink Phase I", StarlinkPhase1Shells(), cfg)
}

// Kuiper builds the Kuiper constellation (3,236 sats).
func Kuiper(cfg Config) (*Constellation, error) {
	return Build("Kuiper", KuiperShells(), cfg)
}

// Telesat builds the Telesat constellation (1,671 sats).
func Telesat(cfg Config) (*Constellation, error) {
	return Build("Telesat", TelesatShells(), cfg)
}

// Preset builds a preset constellation by the name every command's -name
// flag takes: "starlink" (Phase I), "kuiper" or "telesat".
func Preset(name string) (*Constellation, error) {
	switch name {
	case "starlink":
		return StarlinkPhase1(Config{})
	case "kuiper":
		return Kuiper(Config{})
	case "telesat":
		return Telesat(Config{})
	}
	return nil, fmt.Errorf("constellation: unknown preset %q (want starlink, kuiper, telesat)", name)
}
