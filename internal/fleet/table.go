package fleet

import (
	"fmt"
	"math"
	"slices"
	"sync"

	"repro/internal/geo"
	"repro/internal/visibility"
)

// Session is one placed (or placement-pending) compute session: a small
// user group that wants a shared satellite-server, with its resource
// demand and migratable state size. Immutable fields are set before
// Submit; the assignment fields (Sat, PlacedAt, RTTMs, Handoffs) are
// written only by the orchestrator's serial admission phase.
type Session struct {
	// ID identifies the session; unique within a table.
	ID uint64
	// Users are the group's terminals (ECEF, on the surface: AltKm 0).
	Users []geo.Vec3
	// Centroid is the group centroid (ECEF) and CentroidLL its geographic
	// form.
	Centroid   geo.Vec3
	CentroidLL geo.LatLon
	// SpreadKm is the largest great-circle distance from a user to the
	// centroid — the margin of the transfer-pricing radius.
	SpreadKm float64

	// CoresDemand and MemoryGB are the per-session resource demand.
	CoresDemand float64
	MemoryGB    float64
	// StateMB is the session-specific state that must move on hand-off.
	StateMB float64
	// ExpiresAt is the absolute simulated departure time; +Inf runs
	// forever.
	ExpiresAt float64

	// Sat is the assigned satellite (-1 when unassigned).
	Sat int
	// PlacedAt is when the current assignment was made.
	PlacedAt float64
	// RTTMs is the group max RTT at the last placement.
	RTTMs float64
	// Handoffs counts completed migrations.
	Handoffs int
	// Retries counts consecutive failed migration transfer attempts;
	// RetryAt is the earliest simulated time the next attempt may run
	// (capped exponential backoff). Both reset on a successful placement.
	Retries int
	RetryAt float64
	// Evacuating marks a session that lost its satellite to a hard
	// failure and is still waiting for a new assignment — set and cleared
	// by the orchestrator so every evacuation is accounted for.
	Evacuating bool

	// win is the session's footprint-index window, one cell box per shell:
	// where a satellite visible to every user can be. Users and grid are both
	// Earth-fixed, so it is built once, by the session's first proposal.
	win []visibility.CellBox
}

// NewSession builds a session from user locations with the default demand
// (half a core, 1 GB, 64 MB of session state, no departure). Adjust the
// exported fields before Submit to override. Users must be on the surface.
func NewSession(id uint64, users []geo.LatLon) (*Session, error) {
	if len(users) == 0 {
		return nil, fmt.Errorf("fleet: session %d has no users", id)
	}
	s := &Session{
		ID:          id,
		CoresDemand: 0.5,
		MemoryGB:    1,
		StateMB:     64,
		ExpiresAt:   math.Inf(1),
		Sat:         -1,
	}
	for i, u := range users {
		if !u.Valid() || u.AltKm != 0 {
			return nil, fmt.Errorf("fleet: session %d user %d at %v: invalid, or off the surface (AltKm ≠ 0)", id, i, u)
		}
		s.Users = append(s.Users, u.ECEF())
	}
	s.CentroidLL = geo.Centroid(users)
	s.Centroid = s.CentroidLL.ECEF()
	for _, u := range users {
		if d := geo.GreatCircleKm(s.CentroidLL, u); d > s.SpreadKm {
			s.SpreadKm = d
		}
	}
	return s, nil
}

// Table is the session store: one mutex over a slab of sessions in
// ascending ID order, so the planner's detection walks contiguous ranges of
// it and its work list comes out in session-ID order. A delete leaves a nil
// tombstone; a put below the slab's last ID waits in the late map. The next
// ordered read squeezes out the one and merges in the other. Put, Get and
// Delete cost amortised O(1) for ascending IDs and O(log n) in any order.
type Table struct {
	mu     sync.Mutex
	ids    []uint64            // ids[i] is slab[i]'s ID, kept for a tombstone too
	slab   []*Session          // ascending ID; nil where deleted
	dead   int                 // tombstones in slab
	late   map[uint64]*Session // puts below the slab's last ID, not yet merged
	finger int                 // where the last search ended
}

// NewTable creates an empty table whose slab is pre-sized for expected
// sessions, so million-session ingest does not pay for incremental growth.
// The hint is not a cap.
func NewTable(expected int) *Table {
	return &Table{ids: make([]uint64, 0, expected), slab: make([]*Session, 0, expected), late: map[uint64]*Session{}}
}

// find returns where id is, or would go, in the slab and whether it is
// there. It gallops on from the last search, so a run of ascending IDs pays
// O(1 + log gap) each; any other order pays O(log n).
func (t *Table) find(id uint64) (int, bool) {
	lo, hi := 0, len(t.ids)
	if f := t.finger; f < hi && t.ids[f] <= id {
		lo = f
		step := 1
		for lo+step < hi && t.ids[lo+step] <= id {
			lo += step
			step *= 2
		}
		hi = min(lo+step, hi)
	}
	i, ok := slices.BinarySearch(t.ids[lo:hi], id)
	t.finger = lo + i
	return t.finger, ok
}

// Put inserts the session; duplicate IDs are an error.
func (t *Table) Put(s *Session) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if n := len(t.ids); n == 0 || s.ID > t.ids[n-1] {
		t.ids, t.slab, t.finger = append(t.ids, s.ID), append(t.slab, s), n
		return nil
	}
	i, ok := t.find(s.ID)
	switch {
	case ok && t.slab[i] == nil: // a deleted ID returns to its slot
		t.slab[i] = s
		t.dead--
	case ok || t.late[s.ID] != nil:
		return fmt.Errorf("fleet: session %d already in table", s.ID)
	default:
		t.late[s.ID] = s
	}
	return nil
}

// Get returns the session with the given ID, if present.
func (t *Table) Get(id uint64) (*Session, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if i, ok := t.find(id); ok && t.slab[i] != nil {
		return t.slab[i], true
	}
	s, ok := t.late[id]
	return s, ok
}

// Delete removes the session, reporting whether it was present.
func (t *Table) Delete(id uint64) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if i, ok := t.find(id); ok && t.slab[i] != nil {
		t.slab[i] = nil
		t.dead++
		return true
	}
	_, ok := t.late[id]
	delete(t.late, id)
	return ok
}

// Len returns the total session count.
func (t *Table) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.slab) - t.dead + len(t.late)
}

// Ordered returns the live sessions in ascending ID order, in O(n + k log k)
// for k late puts. The slice is the table's own: the caller must not modify
// it, and it is valid until the next Put or Delete.
func (t *Table) Ordered() []*Session {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.dead > 0 { // by pointer alone: no Session is read
		n := 0
		for i, s := range t.slab {
			if s != nil {
				t.ids[n], t.slab[n] = t.ids[i], s
				n++
			}
		}
		clear(t.slab[n:])
		t.ids, t.slab, t.dead = t.ids[:n], t.slab[:n], 0
	}
	if len(t.late) > 0 { // merged from the back, in place
		keys := make([]uint64, 0, len(t.late))
		for id := range t.late {
			keys = append(keys, id)
		}
		slices.Sort(keys)
		i := len(t.ids) - 1
		t.ids = append(t.ids, keys...)
		t.slab = append(t.slab, make([]*Session, len(keys))...)
		for w, j := len(t.ids)-1, len(keys)-1; j >= 0; w-- {
			if i >= 0 && t.ids[i] > keys[j] {
				t.ids[w], t.slab[w] = t.ids[i], t.slab[i]
				i--
			} else {
				t.ids[w], t.slab[w] = keys[j], t.late[keys[j]]
				j--
			}
		}
		clear(t.late)
	}
	return t.slab
}
