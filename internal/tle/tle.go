// Package tle encodes and decodes NORAD Two-Line Element sets, the exchange
// format of practically every satellite toolchain. The package supports the
// circular-orbit subset the simulator produces (zero eccentricity, epoch-
// relative timing) plus general parsing with checksum verification, so
// constellations can be exported to, and ingested from, external tools.
package tle

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/orbit"
	"repro/internal/units"
)

// TLE is one two-line element set plus its optional name line.
type TLE struct {
	// Name is the line-0 satellite name, trimmed.
	Name string
	// CatalogNumber is the NORAD catalog number (columns 3-7 of both lines).
	CatalogNumber int
	// Classification is 'U', 'C' or 'S'.
	Classification byte
	// IntlDesignator is the international designator (launch year/number/piece).
	IntlDesignator string
	// EpochYear is the two-digit epoch year as encoded (57-99 → 19xx, else 20xx).
	EpochYear int
	// EpochDay is the fractional day of year of the epoch.
	EpochDay float64
	// InclinationDeg, RAANDeg, ArgPerigeeDeg, MeanAnomalyDeg are the angles
	// in degrees as encoded on line 2.
	InclinationDeg, RAANDeg, ArgPerigeeDeg, MeanAnomalyDeg float64
	// Eccentricity is the orbit eccentricity (decimal point assumed).
	Eccentricity float64
	// MeanMotionRevPerDay is the mean motion in revolutions per day.
	MeanMotionRevPerDay float64
	// RevolutionNumber is the revolution number at epoch.
	RevolutionNumber int
}

// Checksum returns the TLE checksum digit for a 68-character line body: the
// sum of all digits plus one per '-' sign, modulo 10.
func Checksum(line string) int {
	sum := 0
	for _, r := range line {
		switch {
		case r >= '0' && r <= '9':
			sum += int(r - '0')
		case r == '-':
			sum++
		}
	}
	return sum % 10
}

// Elements converts the TLE into the simulator's circular orbital elements.
// Eccentricity is ignored (the constellations in scope are circular); mean
// anomaly and argument of perigee collapse into the argument of latitude.
func (t TLE) Elements() orbit.Elements {
	// Mean motion n [rev/day] → semi-major axis via Kepler's third law.
	nRadS := t.MeanMotionRevPerDay * 2 * 3.141592653589793 / 86400
	a := cbrt(units.EarthMuKm3S2 / (nRadS * nRadS))
	return orbit.Elements{
		AltitudeKm:     a - units.EarthRadiusKm,
		InclinationDeg: t.InclinationDeg,
		RAANDeg:        t.RAANDeg,
		ArgLatDeg:      units.WrapDegrees(t.ArgPerigeeDeg + t.MeanAnomalyDeg),
	}
}

func cbrt(x float64) float64 {
	if x < 0 {
		return -cbrt(-x)
	}
	// Newton iterations are exact enough and avoid importing math for one call.
	g := x
	for i := 0; i < 64; i++ {
		next := (2*g + x/(g*g)) / 3
		if diff := next - g; diff < 1e-12 && diff > -1e-12 {
			return next
		}
		g = next
	}
	return g
}

// FromElements builds a TLE for circular elements. The epoch is encoded as
// the given year/day; catalog numbers are the caller's to assign.
func FromElements(name string, catalog int, e orbit.Elements, epochYear int, epochDay float64) TLE {
	period := e.PeriodSec()
	return TLE{
		Name:                name,
		CatalogNumber:       catalog,
		Classification:      'U',
		IntlDesignator:      "24001A",
		EpochYear:           epochYear % 100,
		EpochDay:            epochDay,
		InclinationDeg:      e.InclinationDeg,
		RAANDeg:             units.WrapDegrees(e.RAANDeg),
		ArgPerigeeDeg:       0,
		MeanAnomalyDeg:      units.WrapDegrees(e.ArgLatDeg),
		Eccentricity:        0,
		MeanMotionRevPerDay: 86400 / period,
		RevolutionNumber:    1,
	}
}

// Encode renders the TLE as its three lines (name, line 1, line 2) separated
// by newlines, with valid checksums.
func (t TLE) Encode() string {
	cls := t.Classification
	if cls == 0 {
		cls = 'U'
	}
	// Line 1. Drag terms are zeroed: the simulator does not model decay.
	l1 := fmt.Sprintf("1 %05d%c %-8s %02d%012.8f  .00000000  00000-0  00000-0 0  999",
		t.CatalogNumber%100000, cls, t.IntlDesignator, t.EpochYear%100, t.EpochDay)
	l1 = fixWidth(l1, 68)
	l1 += strconv.Itoa(Checksum(l1))

	// Normalise into the fixed-width columns the format affords: angles
	// wrap into [0,360), eccentricity and mean motion clamp to their
	// representable ranges (a >100 rev/day orbit is sub-surface anyway).
	ecc := int(units.Clamp(t.Eccentricity, 0, 0.9999999)*1e7 + 0.5)
	inc := units.Clamp(t.InclinationDeg, 0, 180)
	mm := units.Clamp(t.MeanMotionRevPerDay, 0, 99.99999999)
	rev := t.RevolutionNumber % 100000
	if rev < 0 {
		rev = -rev
	}
	l2 := fmt.Sprintf("2 %05d %8.4f %8.4f %07d %8.4f %8.4f %11.8f%5d",
		t.CatalogNumber%100000, inc, units.WrapDegrees(t.RAANDeg), ecc,
		units.WrapDegrees(t.ArgPerigeeDeg), units.WrapDegrees(t.MeanAnomalyDeg), mm, rev)
	l2 = fixWidth(l2, 68)
	l2 += strconv.Itoa(Checksum(l2))

	name := t.Name
	if name == "" {
		name = fmt.Sprintf("SAT-%05d", t.CatalogNumber)
	}
	return name + "\n" + l1 + "\n" + l2
}

func fixWidth(s string, w int) string {
	if len(s) > w {
		return s[:w]
	}
	for len(s) < w {
		s += " "
	}
	return s
}

// ParseError describes a malformed TLE input.
type ParseError struct {
	Line int // 1 or 2; 0 when structural
	Msg  string
}

func (e *ParseError) Error() string {
	if e.Line == 0 {
		return "tle: " + e.Msg
	}
	return fmt.Sprintf("tle: line %d: %s", e.Line, e.Msg)
}

// Decode parses one TLE from text. The name line is optional. Checksums are
// verified; pass verifyChecksum=false to accept hand-edited sets.
func Decode(text string, verifyChecksum bool) (TLE, error) {
	var lines []string
	for _, l := range strings.Split(text, "\n") {
		l = strings.TrimRight(l, "\r ")
		if strings.TrimSpace(l) != "" {
			lines = append(lines, l)
		}
	}
	var t TLE
	switch len(lines) {
	case 2:
	case 3:
		t.Name = strings.TrimSpace(lines[0])
		lines = lines[1:]
	default:
		return TLE{}, &ParseError{Msg: fmt.Sprintf("want 2 or 3 lines, got %d", len(lines))}
	}
	l1, l2 := lines[0], lines[1]
	if len(l1) < 69 || l1[0] != '1' {
		return TLE{}, &ParseError{Line: 1, Msg: "malformed line 1"}
	}
	if len(l2) < 69 || l2[0] != '2' {
		return TLE{}, &ParseError{Line: 2, Msg: "malformed line 2"}
	}
	if verifyChecksum {
		if got := Checksum(l1[:68]); got != int(l1[68]-'0') {
			return TLE{}, &ParseError{Line: 1, Msg: fmt.Sprintf("checksum %c, computed %d", l1[68], got)}
		}
		if got := Checksum(l2[:68]); got != int(l2[68]-'0') {
			return TLE{}, &ParseError{Line: 2, Msg: fmt.Sprintf("checksum %c, computed %d", l2[68], got)}
		}
	}

	var err error
	fieldErr := func(line int, what string) error {
		return &ParseError{Line: line, Msg: "bad " + what}
	}
	t.CatalogNumber, err = strconv.Atoi(strings.TrimSpace(l1[2:7]))
	if err != nil {
		return TLE{}, fieldErr(1, "catalog number")
	}
	t.Classification = l1[7]
	t.IntlDesignator = strings.TrimSpace(l1[9:17])
	t.EpochYear, err = strconv.Atoi(strings.TrimSpace(l1[18:20]))
	if err != nil {
		return TLE{}, fieldErr(1, "epoch year")
	}
	t.EpochDay, err = strconv.ParseFloat(strings.TrimSpace(l1[20:32]), 64)
	if err != nil {
		return TLE{}, fieldErr(1, "epoch day")
	}

	parse2 := func(lo, hi int, what string) (float64, error) {
		v, err := strconv.ParseFloat(strings.TrimSpace(l2[lo:hi]), 64)
		if err != nil {
			return 0, fieldErr(2, what)
		}
		return v, nil
	}
	if t.InclinationDeg, err = parse2(8, 16, "inclination"); err != nil {
		return TLE{}, err
	}
	if t.RAANDeg, err = parse2(17, 25, "RAAN"); err != nil {
		return TLE{}, err
	}
	eccDigits := strings.TrimSpace(l2[26:33])
	eccInt, err := strconv.Atoi(eccDigits)
	if err != nil {
		return TLE{}, fieldErr(2, "eccentricity")
	}
	t.Eccentricity = float64(eccInt) / 1e7
	if t.ArgPerigeeDeg, err = parse2(34, 42, "argument of perigee"); err != nil {
		return TLE{}, err
	}
	if t.MeanAnomalyDeg, err = parse2(43, 51, "mean anomaly"); err != nil {
		return TLE{}, err
	}
	if t.MeanMotionRevPerDay, err = parse2(52, 63, "mean motion"); err != nil {
		return TLE{}, err
	}
	rev := strings.TrimSpace(l2[63:68])
	if rev == "" {
		rev = "0"
	}
	t.RevolutionNumber, err = strconv.Atoi(rev)
	if err != nil {
		return TLE{}, fieldErr(2, "revolution number")
	}
	return t, nil
}

// EncodeAll renders a catalog: each TLE's Encode on lines of its own, the
// text DecodeAll reads back.
func EncodeAll(tles []TLE) string {
	var b strings.Builder
	for _, t := range tles {
		b.WriteString(t.Encode())
		b.WriteByte('\n')
	}
	return b.String()
}

// DecodeAll parses a catalog of concatenated TLEs (with or without name
// lines). Blank lines between entries are ignored.
func DecodeAll(text string, verifyChecksum bool) ([]TLE, error) {
	var lines []string
	for _, l := range strings.Split(text, "\n") {
		l = strings.TrimRight(l, "\r ")
		if strings.TrimSpace(l) != "" {
			lines = append(lines, l)
		}
	}
	var out []TLE
	i := 0
	for i < len(lines) {
		start := i
		// Optional name line.
		if lines[i][0] != '1' || len(lines[i]) < 69 {
			i++
		}
		if i+1 >= len(lines) {
			return nil, &ParseError{Msg: fmt.Sprintf("truncated entry at line %d", start+1)}
		}
		entry := strings.Join(lines[start:i+2], "\n")
		t, err := Decode(entry, verifyChecksum)
		if err != nil {
			return nil, fmt.Errorf("entry starting at line %d: %w", start+1, err)
		}
		out = append(out, t)
		i += 2
	}
	return out, nil
}
