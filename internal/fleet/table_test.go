package fleet

import (
	"fmt"
	"math"
	"slices"
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
	view := tab.Ordered()
	if len(view) != 99 {
		t.Fatalf("ordered read saw %d sessions, want 99", len(view))
	}
	for i, s := range view {
		want := uint64(i)
		if want >= 55 { // 55 was deleted
			want++
		}
		if s.ID != want {
			t.Fatalf("ordered read [%d] = %d, want %d", i, s.ID, want)
		}
	}
}

// TestTableConcurrent puts from eight goroutines at once, each its own
// ascending run, so most puts land below the slab's last ID and wait for an
// ordered read's merge — which the goroutines also run, between their puts.
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
				if i%100 == 99 {
					tab.Ordered() // merge under contention; the view itself is not read
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
	for i, s := range tab.Ordered() {
		if s.ID != uint64(i) {
			t.Fatalf("ordered read [%d] = %d after concurrent puts", i, s.ID)
		}
	}
}

// FuzzTableOrder runs random Put, Delete, Get and ordered-read sequences
// against a map plus a sorted key list. Each op is two bytes: a kind and an
// ID from a small range, so duplicates, re-puts after a delete, and puts
// below the slab's last ID are common. After every ordered read the view,
// Len and a Get of every ID in range must all match the oracle.
func FuzzTableOrder(f *testing.F) {
	f.Add([]byte{0, 1, 0, 2, 0, 3, 3, 0, 1, 2, 3, 0, 0, 2, 3, 0})             // ascending, delete, re-put
	f.Add([]byte{0, 9, 0, 7, 0, 5, 0, 3, 2, 5, 3, 0, 0, 1, 1, 7, 3, 0, 0, 7}) // descending, late re-put
	f.Add([]byte{0, 4, 0, 4, 1, 4, 0, 4, 0, 4, 3, 0, 1, 4, 1, 4, 0, 4, 3, 0}) // duplicates
	f.Add([]byte{0, 1, 0, 8, 3, 0, 1, 1, 0, 2, 0, 1, 1, 8, 0, 8, 3, 0, 2, 2}) // tombstones beside late puts
	f.Fuzz(func(t *testing.T, ops []byte) {
		const idRange = 64
		tab, oracle := NewTable(0), map[uint64]*Session{}
		for k := 0; k+1 < len(ops); k += 2 {
			id := uint64(ops[k+1] % idRange)
			switch ops[k] % 4 {
			case 0:
				s := &Session{ID: id}
				_, dup := oracle[id]
				if err := tab.Put(s); (err != nil) != dup {
					t.Fatalf("op %d: Put(%d) = %v, oracle has it: %v", k/2, id, err, dup)
				}
				if !dup {
					oracle[id] = s
				}
			case 1:
				_, had := oracle[id]
				if got := tab.Delete(id); got != had {
					t.Fatalf("op %d: Delete(%d) = %v, want %v", k/2, id, got, had)
				}
				delete(oracle, id)
			case 2:
				if s, ok := tab.Get(id); s != oracle[id] || ok != (oracle[id] != nil) {
					t.Fatalf("op %d: Get(%d) = %v, %v; want %v", k/2, id, s, ok, oracle[id])
				}
			case 3:
				keys := make([]uint64, 0, len(oracle))
				for id := range oracle {
					keys = append(keys, id)
				}
				slices.Sort(keys)
				view := tab.Ordered()
				if len(view) != len(keys) || tab.Len() != len(keys) {
					t.Fatalf("op %d: ordered read of %d, Len %d, oracle %d", k/2, len(view), tab.Len(), len(keys))
				}
				for i, id := range keys {
					if view[i] != oracle[id] {
						t.Fatalf("op %d: ordered read [%d] = %v, want session %d", k/2, i, view[i], id)
					}
				}
				for id := uint64(0); id < idRange; id++ {
					if s, ok := tab.Get(id); s != oracle[id] || ok != (oracle[id] != nil) {
						t.Fatalf("op %d: after the read, Get(%d) = %v, %v; want %v", k/2, id, s, ok, oracle[id])
					}
				}
			}
			if tab.Len() != len(oracle) {
				t.Fatalf("op %d: Len %d, oracle %d", k/2, tab.Len(), len(oracle))
			}
		}
	})
}
