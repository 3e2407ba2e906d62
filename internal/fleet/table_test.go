package fleet

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"repro/internal/geo"
)

func TestNewSessionDefaults(t *testing.T) {
	users := []geo.LatLon{
		{LatDeg: 9.06, LonDeg: 7.49},
		{LatDeg: 3.87, LonDeg: 11.52},
		{LatDeg: 5.60, LonDeg: -0.19},
	}
	s, err := NewSession(42, users)
	if err != nil {
		t.Fatal(err)
	}
	if s.ID != 42 || len(s.Users) != 3 || s.Sat != -1 {
		t.Fatalf("bad session: %+v", s)
	}
	if s.CoresDemand <= 0 || s.MemoryGB <= 0 || s.StateMB <= 0 {
		t.Fatalf("zero default demand: %+v", s)
	}
	if !math.IsInf(s.ExpiresAt, 1) {
		t.Fatalf("default ExpiresAt %v, want +Inf", s.ExpiresAt)
	}
	if s.SpreadKm < 100 || s.SpreadKm > 2000 {
		t.Fatalf("spread %v km implausible for a regional group", s.SpreadKm)
	}
	// Every user must be within SpreadKm of the centroid — the index-query
	// margin contract.
	for i, u := range users {
		if d := geo.GreatCircleKm(s.CentroidLL, u); d > s.SpreadKm+1e-9 {
			t.Fatalf("user %d is %v km from centroid, beyond spread %v", i, d, s.SpreadKm)
		}
	}
}

func TestNewSessionValidation(t *testing.T) {
	if _, err := NewSession(1, nil); err == nil {
		t.Fatal("empty group should fail")
	}
	if _, err := NewSession(1, []geo.LatLon{{LatDeg: 91}}); err == nil {
		t.Fatal("invalid location should fail")
	}
}

// TestNewSessionRejectsOffSurfaceUsers: the footprint index sizes its boxes
// for surface points and the shells' RTT floors bound only a surface user's
// RTT, so a user above or below the surface — who sees a wider cone — is
// refused, and the error names the user.
func TestNewSessionRejectsOffSurfaceUsers(t *testing.T) {
	for _, alt := range []float64{300, 100, 30, 1e-9, -50, math.NaN()} {
		users := []geo.LatLon{{LatDeg: 40, LonDeg: -100}, {LatDeg: 41, LonDeg: -101, AltKm: alt}}
		_, err := NewSession(7, users)
		if err == nil || !strings.Contains(err.Error(), "user 1") {
			t.Fatalf("user at %v km: error %v, want a refusal naming user 1", alt, err)
		}
	}
}

func TestTableShardSizing(t *testing.T) {
	for _, tc := range []struct{ n, want int }{
		{-1, DefaultShards}, {0, DefaultShards}, {1, 1}, {2, 2}, {3, 4}, {100, 128}, {256, 256},
	} {
		if got := NewTable(tc.n).NumShards(); got != tc.want {
			t.Fatalf("NewTable(%d) has %d shards, want %d", tc.n, got, tc.want)
		}
	}
}

func TestTableBasics(t *testing.T) {
	tab := NewTable(8)
	for id := uint64(0); id < 100; id++ {
		if err := tab.Put(&Session{ID: id}); err != nil {
			t.Fatal(err)
		}
	}
	if err := tab.Put(&Session{ID: 7}); err == nil {
		t.Fatal("duplicate Put should fail")
	}
	if tab.Len() != 100 {
		t.Fatalf("Len %d, want 100", tab.Len())
	}
	if s, ok := tab.Get(55); !ok || s.ID != 55 {
		t.Fatalf("Get(55) = %v, %v", s, ok)
	}
	if _, ok := tab.Get(1000); ok {
		t.Fatal("Get of absent ID succeeded")
	}
	if !tab.Delete(55) || tab.Delete(55) {
		t.Fatal("Delete semantics wrong")
	}
	if tab.Len() != 99 {
		t.Fatalf("Len %d after delete, want 99", tab.Len())
	}
	seen := 0
	for i := 0; i < tab.NumShards(); i++ {
		tab.Shard(i, func(m map[uint64]*Session) { seen += len(m) })
	}
	if seen != 99 {
		t.Fatalf("shard scan saw %d sessions, want 99", seen)
	}
}

// TestTableShardBalance: sequential IDs (the arrival pattern) must spread
// across shards, not pile onto one.
func TestTableShardBalance(t *testing.T) {
	tab := NewTable(16)
	const n = 16 * 64
	for id := uint64(0); id < n; id++ {
		if err := tab.Put(&Session{ID: id}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < tab.NumShards(); i++ {
		var got int
		tab.Shard(i, func(m map[uint64]*Session) { got = len(m) })
		if got == 0 || got > 4*64 {
			t.Fatalf("shard %d holds %d of %d sessions — hash not spreading", i, got, n)
		}
	}
}

func TestTableConcurrent(t *testing.T) {
	tab := NewTable(0)
	const workers, per = 8, 500
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				id := uint64(w*per + i)
				if err := tab.Put(&Session{ID: id}); err != nil {
					errs <- err
					return
				}
				if _, ok := tab.Get(id); !ok {
					errs <- fmt.Errorf("session %d vanished", id)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if tab.Len() != workers*per {
		t.Fatalf("Len %d, want %d", tab.Len(), workers*per)
	}
}
