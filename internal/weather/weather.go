// Package weather models the availability limitation the paper's §6 flags
// but does not analyze: rain attenuation on the ground↔satellite links.
// Ka-band links (Starlink/Kuiper user links) lose multiple dB per km of
// rain-filled path; heavy rain can take a terminal offline entirely, making
// in-orbit compute temporarily unreachable from the affected region.
//
// The model is a simplified ITU-R P.618 chain: specific attenuation
// γ = k·R^α (dB/km) over an effective slant path through the rain layer,
// compared against the link margin. Region-level rain statistics come from
// a coarse climate-zone table.
package weather

import (
	"fmt"
	"math"

	"repro/internal/units"
)

// Band identifies the radio band of the ground↔satellite link.
type Band int

// Supported bands.
const (
	// KuBand is ~12-14 GHz (legacy VSAT, some gateway links).
	KuBand Band = iota
	// KaBand is ~20-30 GHz (Starlink/Kuiper user links).
	KaBand
	// VBand is ~40-50 GHz (proposed gateway links; rain-fragile).
	VBand
)

// String implements fmt.Stringer.
func (b Band) String() string {
	switch b {
	case KuBand:
		return "Ku"
	case KaBand:
		return "Ka"
	case VBand:
		return "V"
	}
	return fmt.Sprintf("band(%d)", int(b))
}

// coefficients returns the k and α of the ITU-style specific-attenuation
// power law γ = k·R^α for rain rate R in mm/h. Values are representative
// mid-band, circular polarisation figures.
func (b Band) coefficients() (k, alpha float64, err error) {
	switch b {
	case KuBand:
		return 0.0188, 1.217, nil
	case KaBand:
		return 0.187, 1.021, nil
	case VBand:
		return 0.536, 0.873, nil
	}
	return 0, 0, fmt.Errorf("weather: unknown band %d", int(b))
}

// SpecificAttenuationDBPerKm returns γ(R) for the band.
func SpecificAttenuationDBPerKm(b Band, rainMmH float64) (float64, error) {
	if rainMmH < 0 {
		return 0, fmt.Errorf("weather: negative rain rate %v", rainMmH)
	}
	k, a, err := b.coefficients()
	if err != nil {
		return 0, err
	}
	return k * math.Pow(rainMmH, a), nil
}

// RainHeightKm is the nominal rain-layer top (melting layer) used for the
// effective path length. 4 km is a mid-latitude compromise.
const RainHeightKm = 4.0

// PathAttenuationDB returns the total rain attenuation of a slant path at
// the given elevation through rain falling at rainMmH. The effective path
// is the rain-layer thickness over sin(elevation), with a path-reduction
// factor for heavy rain cells being small.
func PathAttenuationDB(b Band, rainMmH, elevationDeg float64) (float64, error) {
	if elevationDeg <= 0 || elevationDeg > 90 {
		return 0, fmt.Errorf("weather: elevation %v outside (0,90]", elevationDeg)
	}
	gamma, err := SpecificAttenuationDBPerKm(b, rainMmH)
	if err != nil {
		return 0, err
	}
	slantKm := RainHeightKm / math.Sin(units.Deg2Rad(elevationDeg))
	// Path-reduction: heavy rain cells are a few km across, so long slant
	// paths are not uniformly filled. r = 1/(1 + L/L0(R)).
	l0 := 35 * math.Exp(-0.015*math.Min(rainMmH, 100))
	r := 1 / (1 + slantKm/l0)
	return gamma * slantKm * r, nil
}

// Link describes a ground↔satellite radio link budget.
type Link struct {
	// Band of the link.
	Band Band
	// MarginDB is the clear-sky fade margin: how much extra attenuation the
	// link closes before dropping out. Consumer Ka terminals carry ~6-10 dB.
	MarginDB float64
}

// Validate reports whether the link is usable.
func (l Link) Validate() error {
	if l.MarginDB < 0 {
		return fmt.Errorf("weather: negative margin %v", l.MarginDB)
	}
	_, _, err := l.Band.coefficients()
	return err
}

// RainAtOutage returns the rain rate (mm/h) at which the link stops closing
// for the given elevation — the knee of the availability curve.
func (l Link) RainAtOutage(elevationDeg float64) (float64, error) {
	if err := l.Validate(); err != nil {
		return 0, err
	}
	lo, hi := 0.0, 500.0
	attHi, err := PathAttenuationDB(l.Band, hi, elevationDeg)
	if err != nil {
		return 0, err
	}
	if attHi <= l.MarginDB {
		return math.Inf(1), nil // never drops within physical rain rates
	}
	for i := 0; i < 60; i++ {
		mid := (lo + hi) / 2
		att, err := PathAttenuationDB(l.Band, mid, elevationDeg)
		if err != nil {
			return 0, err
		}
		if att <= l.MarginDB {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo, nil
}

// Climate is a coarse rain-climate zone with the parameters of an
// exponential rain-rate exceedance model: P(R > r) = pRain · exp(-r/mean).
type Climate struct {
	Name string
	// RainProb is the fraction of time it rains at all.
	RainProb float64
	// MeanRateMmH is the mean rain rate while raining.
	MeanRateMmH float64
}

// Climate presets, roughly ITU rain-zone equivalents.
var (
	// Temperate is ITU zone E/F-ish (Western Europe).
	Temperate = Climate{Name: "temperate", RainProb: 0.06, MeanRateMmH: 3}
	// Tropical is ITU zone N/P-ish (equatorial convective rain).
	Tropical = Climate{Name: "tropical", RainProb: 0.10, MeanRateMmH: 12}
	// Arid is desert climate.
	Arid = Climate{Name: "arid", RainProb: 0.01, MeanRateMmH: 2}
)

// Validate reports whether the climate parameters are usable.
func (c Climate) Validate() error {
	if c.RainProb < 0 || c.RainProb > 1 {
		return fmt.Errorf("weather: rain probability %v outside [0,1]", c.RainProb)
	}
	if c.MeanRateMmH < 0 {
		return fmt.Errorf("weather: negative mean rain rate")
	}
	return nil
}

// LinkAvailability returns the long-run fraction of time the link closes
// under the climate at the given elevation: 1 − pRain·P(R > R_outage | rain).
func LinkAvailability(l Link, c Climate, elevationDeg float64) (float64, error) {
	if err := c.Validate(); err != nil {
		return 0, err
	}
	rOut, err := l.RainAtOutage(elevationDeg)
	if err != nil {
		return 0, err
	}
	if math.IsInf(rOut, 1) {
		return 1, nil
	}
	if c.MeanRateMmH == 0 || c.RainProb == 0 {
		return 1, nil
	}
	pOutGivenRain := math.Exp(-rOut / c.MeanRateMmH)
	return 1 - c.RainProb*pOutGivenRain, nil
}

// ComputeAvailability answers the paper's §6 worry quantitatively: given a
// location's climate and N diverse satellites in view at elevations els,
// what fraction of time can the terminal reach at least one satellite?
// Rain is common-cause (one rain cell over the terminal), so per-satellite
// outages are fully correlated in this model except for the elevation
// dependence: the highest-elevation satellite has the shortest rain path
// and drops last.
func ComputeAvailability(l Link, c Climate, els []float64) (float64, error) {
	if len(els) == 0 {
		return 0, nil
	}
	best := els[0]
	for _, e := range els[1:] {
		if e > best {
			best = e
		}
	}
	return LinkAvailability(l, c, best)
}
