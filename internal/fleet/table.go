package fleet

import (
	"fmt"
	"math"
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

// DefaultShards is the default session-table shard count.
const DefaultShards = 256

// Table is a sharded session store: power-of-two shards, each a mutex plus
// map, so concurrent ingest, lookup, and shard-parallel scans contend only
// within a shard.
type Table struct {
	shards []tableShard
	shift  uint
}

type tableShard struct {
	mu sync.Mutex
	m  map[uint64]*Session
	// pad the shard to its own cache line so neighbouring shard locks do
	// not false-share.
	_ [64 - 16]byte
}

// NewTable creates a table with at least n shards (rounded up to a power
// of two; n <= 0 means DefaultShards).
func NewTable(n int) *Table { return NewTableSized(n, 0) }

// NewTableSized is NewTable with a population hint: each shard map is
// pre-sized for expected/shards sessions, so million-session ingest does
// not pay for incremental map growth. The hint is not a cap.
func NewTableSized(n, expected int) *Table {
	if n <= 0 {
		n = DefaultShards
	}
	size := 1
	for size < n {
		size <<= 1
	}
	t := &Table{shards: make([]tableShard, size), shift: 64}
	for size > 1 {
		size >>= 1
		t.shift--
	}
	perShard := 0
	if expected > 0 {
		perShard = expected / len(t.shards)
	}
	for i := range t.shards {
		t.shards[i].m = make(map[uint64]*Session, perShard)
	}
	return t
}

// NumShards returns the shard count.
func (t *Table) NumShards() int { return len(t.shards) }

// shardFor spreads IDs over shards with a Fibonacci hash, so dense
// sequential IDs (the common arrival pattern) still balance.
func (t *Table) shardFor(id uint64) *tableShard {
	if t.shift >= 64 { // single shard
		return &t.shards[0]
	}
	return &t.shards[(id*0x9E3779B97F4A7C15)>>t.shift]
}

// Put inserts the session; duplicate IDs are an error.
func (t *Table) Put(s *Session) error {
	sh := t.shardFor(s.ID)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if _, dup := sh.m[s.ID]; dup {
		return fmt.Errorf("fleet: session %d already in table", s.ID)
	}
	sh.m[s.ID] = s
	return nil
}

// Get returns the session with the given ID, if present.
func (t *Table) Get(id uint64) (*Session, bool) {
	sh := t.shardFor(id)
	sh.mu.Lock()
	s, ok := sh.m[id]
	sh.mu.Unlock()
	return s, ok
}

// Delete removes the session, reporting whether it was present.
func (t *Table) Delete(id uint64) bool {
	sh := t.shardFor(id)
	sh.mu.Lock()
	_, ok := sh.m[id]
	delete(sh.m, id)
	sh.mu.Unlock()
	return ok
}

// Len returns the total session count.
func (t *Table) Len() int {
	n := 0
	for i := range t.shards {
		t.shards[i].mu.Lock()
		n += len(t.shards[i].m)
		t.shards[i].mu.Unlock()
	}
	return n
}

// Shard runs f over shard i's map while holding that shard's lock. f must
// not call back into the table.
func (t *Table) Shard(i int, f func(map[uint64]*Session)) {
	sh := &t.shards[i]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	f(sh.m)
}
