package serve

import "testing"

func TestNearestPicksMinPropagation(t *testing.T) {
	p := Nearest()
	cands := []Candidate{
		{SatID: 4, OneWayMs: 2.0},
		{SatID: 1, OneWayMs: 3.5},
		{SatID: 9, OneWayMs: 5.0},
	}
	if got := p.Pick(0, -1, cands, nil); got != 0 {
		t.Fatalf("nearest picked %d, want 0", got)
	}
	// Ties break to the first (lowest-index) candidate.
	cands[1].OneWayMs = 2.0
	if got := p.Pick(0, -1, cands, nil); got != 0 {
		t.Fatalf("nearest tie picked %d, want 0", got)
	}
}

func TestLeastLoadedPrefersIdleOverNear(t *testing.T) {
	p := LeastLoaded()
	now := 100.0
	cands := []Candidate{
		{SatID: 0, OneWayMs: 2.0}, // near but backlogged
		{SatID: 1, OneWayMs: 4.0}, // idle, slightly farther
	}
	freeAt := []float64{103.0, 0}
	if got := p.Pick(now, -1, cands, freeAt); got != 1 {
		t.Fatalf("least-loaded picked %d, want idle candidate 1", got)
	}
	// With equal backlog the nearer one wins (smaller propagation term).
	freeAt[1] = 103.0
	if got := p.Pick(now, -1, cands, freeAt); got != 0 {
		t.Fatalf("least-loaded picked %d, want nearer candidate 0", got)
	}
}

func TestStickyHoldsPrevWhileVisible(t *testing.T) {
	p := Sticky(0)
	cands := []Candidate{
		{SatID: 2, OneWayMs: 2.0, LifeSec: 60},
		{SatID: 7, OneWayMs: 3.0, LifeSec: 180},
	}
	if got := p.Pick(0, 7, cands, nil); got != 1 {
		t.Fatalf("sticky abandoned visible prev: got %d", got)
	}
}

func TestStickyHandoffPicksLongestLivedInBand(t *testing.T) {
	p := Sticky(0.10)
	cands := []Candidate{
		{SatID: 2, OneWayMs: 2.00, LifeSec: 60},
		{SatID: 7, OneWayMs: 2.10, LifeSec: 180}, // within 10% band, lives longest
		{SatID: 9, OneWayMs: 2.50, LifeSec: 600}, // outside the band
	}
	if got := p.Pick(0, -1, cands, nil); got != 1 {
		t.Fatalf("sticky hand-off picked %d, want 1", got)
	}
	// Life ties inside the band break to lower latency, then lower ID.
	cands[1].LifeSec = 60
	if got := p.Pick(0, -1, cands, nil); got != 0 {
		t.Fatalf("sticky tie picked %d, want 0", got)
	}
}

func TestPoliciesAndByName(t *testing.T) {
	want := []string{"nearest", "least-loaded", "sticky"}
	ps := Policies()
	if len(ps) != len(want) {
		t.Fatalf("Policies() returned %d policies", len(ps))
	}
	for i, p := range ps {
		if p.Name() != want[i] {
			t.Fatalf("policy %d = %q, want %q", i, p.Name(), want[i])
		}
		got, err := ByName(want[i])
		if err != nil || got.Name() != want[i] {
			t.Fatalf("ByName(%q) = %v, %v", want[i], got, err)
		}
	}
	if _, err := ByName("random"); err == nil {
		t.Fatal("unknown policy name accepted")
	}
}
