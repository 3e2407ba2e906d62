package power

import (
	"fmt"
	"math"

	"repro/internal/geo"
	"repro/internal/orbit"
)

// SunDirectionECI returns the approximate unit vector from the Earth to the
// Sun in the simulation's inertial frame for a given day of year (1-365).
// The model uses the mean ecliptic longitude and a fixed 23.44° obliquity —
// accurate to about a degree, ample for eclipse-fraction and power-budget
// seasonality.
func SunDirectionECI(dayOfYear int) (geo.Vec3, error) {
	if dayOfYear < 1 || dayOfYear > 366 {
		return geo.Vec3{}, fmt.Errorf("power: day of year %d outside [1,366]", dayOfYear)
	}
	// Mean solar ecliptic longitude: 0 at the March equinox (~day 80).
	lambda := 2 * math.Pi * float64(dayOfYear-80) / 365.25
	const obliquity = 23.44 * math.Pi / 180
	sl, cl := math.Sincos(lambda)
	return geo.Vec3{
		X: cl,
		Y: sl * math.Cos(obliquity),
		Z: sl * math.Sin(obliquity),
	}, nil
}

// SeasonRow is one day's orbit/power outcome for a shell.
type SeasonRow struct {
	DayOfYear       int
	EclipseFraction float64
	// AvailableW is the orbit-average power available to loads.
	AvailableW float64
	// HeadroomW is available minus bus minus server draw.
	HeadroomW float64
}

// SeasonalSweep computes the eclipse fraction and power headroom of a
// circular orbit across the year. RAANDeg orients the orbit plane: a plane
// that tracks near the terminator (dawn-dusk) sees almost no eclipse in
// solstice months; a noon-midnight plane is eclipsed every orbit.
func SeasonalSweep(b Budget, s ServerLoad, altitudeKm, inclinationDeg, raanDeg float64, days []int) ([]SeasonRow, error) {
	if err := b.Validate(); err != nil {
		return nil, err
	}
	prop, err := orbit.NewPropagator(orbit.Elements{
		AltitudeKm:     altitudeKm,
		InclinationDeg: inclinationDeg,
		RAANDeg:        raanDeg,
	}, orbit.Options{})
	if err != nil {
		return nil, err
	}
	if len(days) == 0 {
		days = []int{15, 46, 74, 105, 135, 166, 196, 227, 258, 288, 319, 349}
	}
	var out []SeasonRow
	for _, d := range days {
		sun, err := SunDirectionECI(d)
		if err != nil {
			return nil, err
		}
		f := prop.EclipseFraction(sun, 10)
		avail := b.AverageAvailableW(f)
		out = append(out, SeasonRow{
			DayOfYear:       d,
			EclipseFraction: f,
			AvailableW:      avail,
			HeadroomW:       avail - b.BusLoadW - s.DrawW,
		})
	}
	return out, nil
}

// WorstSeasonHeadroom returns the minimum headroom across the sweep — the
// number a payload engineer actually designs against.
func WorstSeasonHeadroom(rows []SeasonRow) float64 {
	worst := math.Inf(1)
	for _, r := range rows {
		if r.HeadroomW < worst {
			worst = r.HeadroomW
		}
	}
	return worst
}

// EquinoxDay and SolsticeDay mark the reference days used in tests and
// reports.
const (
	EquinoxDay  = 80  // ~March 21
	SolsticeDay = 172 // ~June 21
)
