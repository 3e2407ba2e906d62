package weather

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBandString(t *testing.T) {
	if KuBand.String() != "Ku" || KaBand.String() != "Ka" || VBand.String() != "V" {
		t.Fatal("band names wrong")
	}
	if Band(9).String() == "" {
		t.Fatal("unknown band string empty")
	}
}

func TestSpecificAttenuationOrdering(t *testing.T) {
	// Higher bands attenuate more at the same rain rate.
	for _, rate := range []float64{5, 25, 100} {
		ku, err := SpecificAttenuationDBPerKm(KuBand, rate)
		if err != nil {
			t.Fatal(err)
		}
		ka, err := SpecificAttenuationDBPerKm(KaBand, rate)
		if err != nil {
			t.Fatal(err)
		}
		v, err := SpecificAttenuationDBPerKm(VBand, rate)
		if err != nil {
			t.Fatal(err)
		}
		if !(ku < ka && ka < v) {
			t.Fatalf("attenuation ordering broken at %v mm/h: %v %v %v", rate, ku, ka, v)
		}
	}
	// No rain, no attenuation.
	if got, _ := SpecificAttenuationDBPerKm(KaBand, 0); got != 0 {
		t.Fatalf("dry attenuation = %v", got)
	}
	if _, err := SpecificAttenuationDBPerKm(KaBand, -1); err == nil {
		t.Fatal("negative rain accepted")
	}
	if _, err := SpecificAttenuationDBPerKm(Band(42), 1); err == nil {
		t.Fatal("unknown band accepted")
	}
}

func TestKaBandMagnitude(t *testing.T) {
	// Sanity anchor: Ka at 25 mm/h is ~5 dB/km (ITU figures).
	got, err := SpecificAttenuationDBPerKm(KaBand, 25)
	if err != nil {
		t.Fatal(err)
	}
	if got < 3 || got > 8 {
		t.Fatalf("Ka@25mm/h = %v dB/km, want ~5", got)
	}
}

func TestPathAttenuationElevation(t *testing.T) {
	// Lower elevation → longer rain path → more attenuation.
	hi, err := PathAttenuationDB(KaBand, 20, 80)
	if err != nil {
		t.Fatal(err)
	}
	lo, err := PathAttenuationDB(KaBand, 20, 25)
	if err != nil {
		t.Fatal(err)
	}
	if lo <= hi {
		t.Fatalf("25° attenuation %v not above 80° %v", lo, hi)
	}
	// Validation.
	if _, err := PathAttenuationDB(KaBand, 20, 0); err == nil {
		t.Fatal("zero elevation accepted")
	}
	if _, err := PathAttenuationDB(KaBand, 20, 91); err == nil {
		t.Fatal("elevation > 90 accepted")
	}
}

func TestPathAttenuationMonotoneInRain(t *testing.T) {
	f := func(r1, r2 uint8) bool {
		a := float64(r1 % 150)
		b := float64(r2 % 150)
		if a > b {
			a, b = b, a
		}
		attA, err1 := PathAttenuationDB(KaBand, a, 40)
		attB, err2 := PathAttenuationDB(KaBand, b, 40)
		return err1 == nil && err2 == nil && attA <= attB+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestLinkAvailable(t *testing.T) {
	l := Link{Band: KaBand, MarginDB: 8}
	if r, err := l.RainAtOutage(40); err != nil || r <= 0 {
		t.Fatalf("clear sky should close: outage at %v mm/h, %v", r, err)
	}
	if r, err := l.RainAtOutage(25); err != nil || r >= 120 {
		t.Fatalf("violent rain at low elevation should drop: outage at %v mm/h, %v", r, err)
	}
	if _, err := (Link{Band: KaBand, MarginDB: -1}).RainAtOutage(40); err == nil {
		t.Fatal("negative margin accepted")
	}
}

func TestRainAtOutage(t *testing.T) {
	l := Link{Band: KaBand, MarginDB: 8}
	r25, err := l.RainAtOutage(25)
	if err != nil {
		t.Fatal(err)
	}
	r80, err := l.RainAtOutage(80)
	if err != nil {
		t.Fatal(err)
	}
	if r25 <= 0 || r25 >= r80 {
		t.Fatalf("outage rain: 25°=%v should be below 80°=%v", r25, r80)
	}
	// The knee sits at plausible rain rates (moderate-heavy rain).
	if r25 < 2 || r25 > 60 {
		t.Fatalf("Ka 8dB outage at 25° = %v mm/h, implausible", r25)
	}
	// A huge margin holds through anything short of world-record rain.
	never := Link{Band: KuBand, MarginDB: 80}
	r, err := never.RainAtOutage(45)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(r, 1) && r < 250 {
		t.Fatalf("80 dB Ku margin dropped at only %v mm/h", r)
	}
	// Consistency: at the returned knee the link is right at the margin.
	att, err := PathAttenuationDB(KaBand, r25, 25)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(att-8) > 0.01 {
		t.Fatalf("attenuation at knee = %v, want 8", att)
	}
}

func TestClimateValidate(t *testing.T) {
	for _, c := range []Climate{Temperate, Tropical, Arid} {
		if err := c.Validate(); err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
	}
	if err := (Climate{RainProb: 1.5}).Validate(); err == nil {
		t.Fatal("bad probability accepted")
	}
	if err := (Climate{RainProb: 0.5, MeanRateMmH: -1}).Validate(); err == nil {
		t.Fatal("negative rate accepted")
	}
}

func TestLinkAvailabilityOrdering(t *testing.T) {
	l := Link{Band: KaBand, MarginDB: 8}
	tro, err := LinkAvailability(l, Tropical, 40)
	if err != nil {
		t.Fatal(err)
	}
	tem, err := LinkAvailability(l, Temperate, 40)
	if err != nil {
		t.Fatal(err)
	}
	ari, err := LinkAvailability(l, Arid, 40)
	if err != nil {
		t.Fatal(err)
	}
	if !(tro < tem && tem < ari) {
		t.Fatalf("availability ordering broken: tropical %v, temperate %v, arid %v", tro, tem, ari)
	}
	// All still "mostly available": the paper's point is temporary, not
	// permanent, unavailability.
	if tro < 0.9 || ari > 1 {
		t.Fatalf("availability out of plausible range: %v..%v", tro, ari)
	}
	// Dry climate: fully available.
	dry := Climate{Name: "dry", RainProb: 0, MeanRateMmH: 0}
	if got, _ := LinkAvailability(l, dry, 40); got != 1 {
		t.Fatalf("dry availability = %v", got)
	}
}

func TestComputeAvailabilityUsesBestElevation(t *testing.T) {
	l := Link{Band: KaBand, MarginDB: 8}
	low, err := ComputeAvailability(l, Tropical, []float64{25})
	if err != nil {
		t.Fatal(err)
	}
	withHigh, err := ComputeAvailability(l, Tropical, []float64{25, 70})
	if err != nil {
		t.Fatal(err)
	}
	if withHigh <= low {
		t.Fatalf("a high-elevation satellite should improve availability: %v vs %v", withHigh, low)
	}
	if got, err := ComputeAvailability(l, Tropical, nil); err != nil || got != 0 {
		t.Fatalf("no satellites should mean unavailable: %v %v", got, err)
	}
}

// TestSampleRain draws rain from the climate model (rain with probability
// RainProb, exponential rate with mean MeanRateMmH) and checks that the
// sampled outage fraction is what LinkAvailability derives analytically.
func TestSampleRain(t *testing.T) {
	l := Link{Band: KaBand, MarginDB: 8}
	const elev = 25
	r := rand.New(rand.NewSource(5))
	down, n := 0, 200000
	for i := 0; i < n; i++ {
		if r.Float64() >= Tropical.RainProb {
			continue
		}
		att, err := PathAttenuationDB(l.Band, r.ExpFloat64()*Tropical.MeanRateMmH, elev)
		if err != nil {
			t.Fatal(err)
		}
		if att > l.MarginDB {
			down++
		}
	}
	avail, err := LinkAvailability(l, Tropical, elev)
	if err != nil {
		t.Fatal(err)
	}
	if sampled := 1 - float64(down)/float64(n); down == 0 || math.Abs(sampled-avail) > 0.005 {
		t.Fatalf("sampled availability %v (%d outages), analytic %v", sampled, down, avail)
	}
}
