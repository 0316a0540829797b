package session

import (
	"sync"

	"telecast/internal/model"
)

// This file implements the GSC's viewer → owning-shard routing table. With
// admission indexed (PR 3) the serial routing loop of JoinBatch became the
// control plane's bottleneck past ~4 shards: every claim, bind, and drop
// funneled through one mutex and one map. The table is therefore striped
// N-ways by a hash of the viewer ID — routing operations for different
// viewers almost never contend, and the per-stripe critical sections stay as
// short as the old single-map ones.
//
// Entry states, per viewer ID:
//
//   - absent: the GSC has no route; operations return ErrUnknownViewer.
//   - claimed (nil): an in-flight join or departure owns the ID. Joins see
//     ErrViewerExists, everything else ErrUnknownViewer — exactly the old
//     routes[id] = nil convention.
//   - migrating (the inMigration sentinel): a cross-region handoff owns the
//     viewer; concurrent Join keeps ErrViewerExists while Leave, ChangeView,
//     and a second Migrate get the typed ErrMigrating.
//   - bound (*LSC): the viewer is owned by that shard.

// inMigration marks a route whose viewer is mid-handoff between shards. The
// sentinel is a unique allocation never returned to callers.
var inMigration = new(LSC)

// routeStripes is the stripe count; a power of two so the stripe pick is a
// mask. 64 stripes keep per-stripe contention negligible at 16 shards wide
// while the whole table stays a few KB.
const routeStripes = 64

// routeTable is the striped routing map.
type routeTable struct {
	stripes [routeStripes]routeStripe
}

type routeStripe struct {
	mu sync.RWMutex
	m  map[model.ViewerID]*LSC
}

func (t *routeTable) init() {
	for i := range t.stripes {
		t.stripes[i].m = make(map[model.ViewerID]*LSC)
	}
}

// viewerStripe hashes a viewer ID (FNV-1a) onto one of the routeStripes
// stripe slots. The routing table and the batch prepare/depart workers share
// it: all requests of one stripe land on one worker, so two workers never
// touch the same routing stripe and duplicate IDs inside a batch resolve in
// input order just as the serial loop did.
func viewerStripe(id model.ViewerID) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(id); i++ {
		h = (h ^ uint32(id[i])) * 16777619
	}
	return h & (routeStripes - 1)
}

// stripeFor hashes the viewer ID (FNV-1a) onto its stripe.
func (t *routeTable) stripeFor(id model.ViewerID) *routeStripe {
	return &t.stripes[viewerStripe(id)]
}

// claim reserves a viewer ID, failing on any existing entry — bound, claimed,
// or migrating — so duplicate joins are refused no matter the ID's state.
func (t *routeTable) claim(id model.ViewerID) error {
	s := t.stripeFor(id)
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.m[id]; dup {
		return ErrViewerExists
	}
	s.m[id] = nil
	return nil
}

// bind points a viewer ID at its owning shard (claim → bound, or a restore
// after a failed departure or migration).
func (t *routeTable) bind(id model.ViewerID, lsc *LSC) {
	s := t.stripeFor(id)
	s.mu.Lock()
	s.m[id] = lsc
	s.mu.Unlock()
}

// drop removes a viewer from the table.
func (t *routeTable) drop(id model.ViewerID) {
	s := t.stripeFor(id)
	s.mu.Lock()
	delete(s.m, id)
	s.mu.Unlock()
}

// classify maps a raw entry to the bound shard or the typed error every
// reader agrees on: ErrMigrating for the sentinel, ErrUnknownViewer for an
// absent or claimed ID.
func classify(lsc *LSC, ok bool) (*LSC, error) {
	switch {
	case lsc == inMigration:
		return nil, ErrMigrating
	case !ok || lsc == nil:
		return nil, ErrUnknownViewer
	default:
		return lsc, nil
	}
}

// lookup returns the shard owning a viewer; ErrUnknownViewer when the ID is
// absent or mid-join, ErrMigrating when a handoff owns it.
func (t *routeTable) lookup(id model.ViewerID) (*LSC, error) {
	s := t.stripeFor(id)
	s.mu.RLock()
	lsc, ok := s.m[id]
	s.mu.RUnlock()
	return classify(lsc, ok)
}

// takeAs atomically looks a viewer up and, when it is bound, replaces its
// entry with the given downgrade — nil for a departure claim, inMigration
// for a handoff — so exactly one taker wins a race and the ID stays
// reserved until the winner rebinds or drops the route.
func (t *routeTable) takeAs(id model.ViewerID, downgrade *LSC) (*LSC, error) {
	s := t.stripeFor(id)
	s.mu.Lock()
	lsc, ok := s.m[id]
	if ok && lsc != nil && lsc != inMigration {
		s.m[id] = downgrade
	}
	s.mu.Unlock()
	return classify(lsc, ok)
}

// take downgrades a bound route to a departure claim: a re-join keeps
// getting ErrViewerExists and rival departures ErrUnknownViewer until the
// caller finishes the departure and drops the route.
func (t *routeTable) take(id model.ViewerID) (*LSC, error) {
	return t.takeAs(id, nil)
}

// takeForMigration downgrades a bound route to the migrating sentinel, so
// the winning handoff owns the viewer exclusively: concurrent joins keep
// getting ErrViewerExists, while departures, view changes, and rival
// migrations observe ErrMigrating until the handoff rebinds or drops the
// route.
func (t *routeTable) takeForMigration(id model.ViewerID) (*LSC, error) {
	return t.takeAs(id, inMigration)
}

// size counts entries across all stripes (tests and leak audits).
func (t *routeTable) size() int {
	n := 0
	for i := range t.stripes {
		s := &t.stripes[i]
		s.mu.RLock()
		n += len(s.m)
		s.mu.RUnlock()
	}
	return n
}

// claimed counts claimed-but-unbound entries across all stripes, the
// quantity the batch-cancellation leak regression pins at zero after every
// batch settles.
func (t *routeTable) claimed() int {
	n := 0
	for i := range t.stripes {
		s := &t.stripes[i]
		s.mu.RLock()
		for _, lsc := range s.m {
			if lsc == nil {
				n++
			}
		}
		s.mu.RUnlock()
	}
	return n
}
