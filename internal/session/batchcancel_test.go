package session

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"telecast/internal/model"
	"telecast/internal/trace"
)

// countedCancelCtx reports nil from Err for its first allow calls and
// context.Canceled afterwards. DepartBatch checks the context once per entry
// in the route-take phase and once per entry in the shard phase, so an
// allowance of exactly len(ids) drives every entry through the take phase
// and then forces every one onto the re-bind-on-cancel path — the branch
// this file pins — deterministically, whatever the stripe width.
type countedCancelCtx struct {
	calls atomic.Int64
	allow int64
}

func (c *countedCancelCtx) Deadline() (time.Time, bool) { return time.Time{}, false }
func (c *countedCancelCtx) Done() <-chan struct{}       { return nil }
func (c *countedCancelCtx) Value(any) any               { return nil }
func (c *countedCancelCtx) Err() error {
	if c.calls.Add(1) > c.allow {
		return context.Canceled
	}
	return nil
}

// TestDepartBatchCancelRebindsBeforeOutcome is the regression test for the
// re-bind-on-cancel path: a departure cancelled after its route was taken
// must put the route back as a bound entry — not leave it a claim — before
// the outcome reports the error, so a Migrate issued the moment the batch
// returns finds every viewer routed instead of racing a half-departed one.
func TestDepartBatchCancelRebindsBeforeOutcome(t *testing.T) {
	const n = 200
	c := testController16(t, 2*n, 0)
	view := model.NewUniformView(c.cfg.Producers, 0)
	ids := make([]model.ViewerID, n)
	for i := range ids {
		ids[i] = vid(i)
		if _, err := c.Join(testCtx, ids[i], 20, 4, view); err != nil {
			t.Fatalf("join %s: %v", ids[i], err)
		}
	}
	ctx := &countedCancelCtx{allow: n}
	for _, out := range c.DepartBatch(ctx, ids) {
		if !errors.Is(out.Err, context.Canceled) {
			t.Fatalf("depart %s: err = %v, want context.Canceled", out.ID, out.Err)
		}
	}
	// No route may be left a claim: a claim would make the viewer both
	// unleavable and unmigratable while reporting it still joined.
	if got := c.routes.claimed(); got != 0 {
		t.Fatalf("cancelled batch left %d route claims", got)
	}
	if got := c.routes.size(); got != n {
		t.Fatalf("route table holds %d entries, want %d", got, n)
	}
	// The pinned contract: every viewer is immediately migratable, then
	// leavable — i.e. the rebound route is a first-class bound entry.
	for i, id := range ids {
		from, err := c.lookupRoute(id)
		if err != nil {
			t.Fatalf("lookup %s after cancelled depart: %v", id, err)
		}
		dest := trace.Region((int(from.Region) + 1 + i) % 16)
		if _, err := c.Migrate(testCtx, id, MigrateRequest{To: dest, Reason: "pin"}); err != nil && !errors.Is(err, ErrRejected) && !errors.Is(err, ErrMatrixExhausted) {
			t.Fatalf("migrate %s after cancelled depart: %v", id, err)
		}
		if err := c.Leave(testCtx, id); err != nil {
			t.Fatalf("leave %s after cancelled depart: %v", id, err)
		}
	}
	if got := c.routes.size(); got != 0 {
		t.Fatalf("route table holds %d entries after final departs", got)
	}
	if err := c.Validate(); err != nil {
		t.Fatalf("invariants: %v", err)
	}
}

// TestDepartBatchCancelRacesMigrate races a cancelled departure batch
// against concurrent migrations of the same viewers. Whatever interleaving
// the scheduler picks, every viewer must end the race in a classifiable
// state — departed or routed, never a stuck claim — and every routed viewer
// must still be leavable.
func TestDepartBatchCancelRacesMigrate(t *testing.T) {
	const n = 128
	c := testController16(t, 2*n, 0)
	view := model.NewUniformView(c.cfg.Producers, 0)
	ids := make([]model.ViewerID, n)
	for i := range ids {
		ids[i] = vid(i)
		if _, err := c.Join(testCtx, ids[i], 20, 4, view); err != nil {
			t.Fatalf("join %s: %v", ids[i], err)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for _, out := range c.DepartBatch(ctx, ids) {
			if out.Err != nil && !errors.Is(out.Err, context.Canceled) &&
				!errors.Is(out.Err, ErrMigrating) && !errors.Is(out.Err, ErrUnknownViewer) {
				t.Errorf("depart %s: unexpected error %v", out.ID, out.Err)
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i, id := range ids {
			if i == n/4 {
				cancel()
			}
			dest := trace.Region(i % 16)
			_, err := c.Migrate(testCtx, id, MigrateRequest{To: dest, Reason: "race"})
			if err != nil && !errors.Is(err, ErrRejected) && !errors.Is(err, ErrMatrixExhausted) &&
				!errors.Is(err, ErrUnknownViewer) && !errors.Is(err, ErrMigrating) {
				t.Errorf("migrate %s: unexpected error %v", id, err)
			}
		}
	}()
	wg.Wait()
	cancel()
	if got := c.routes.claimed(); got != 0 {
		t.Fatalf("race left %d route claims", got)
	}
	for _, id := range ids {
		_, err := c.lookupRoute(id)
		switch {
		case err == nil:
			if err := c.Leave(testCtx, id); err != nil {
				t.Fatalf("leave routed viewer %s: %v", id, err)
			}
		case errors.Is(err, ErrUnknownViewer):
			// Departed during the race; nothing left to clean up.
		default:
			t.Fatalf("viewer %s in unclassifiable state: %v", id, err)
		}
	}
	if got := c.routes.size(); got != 0 {
		t.Fatalf("route table holds %d entries after cleanup", got)
	}
	if err := c.Validate(); err != nil {
		t.Fatalf("invariants: %v", err)
	}
}

// TestJoinBatchStripedPrepareKeepsContracts forces the striped prepare path
// (more workers than this box may have) and checks the batch contracts the
// serial loop guaranteed: outcomes in input order, first-wins for duplicate
// IDs within one batch, and a clean unwind leaving no routes or nodes behind.
func TestJoinBatchStripedPrepareKeepsContracts(t *testing.T) {
	// Raise GOMAXPROCS so batchWorkers picks several workers even on a
	// single-CPU box; goroutines still interleave, which is what the race
	// detector needs.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	const n = 4 * minStripeWork
	c := testController16(t, 2*n, 0)
	view := model.NewUniformView(c.cfg.Producers, 0)
	reqs := make([]JoinRequest, n)
	for i := range reqs {
		reqs[i] = JoinRequest{ID: vid(i % (n / 2)), InboundMbps: 20, OutboundMbps: 4, View: view}
	}
	outs := c.JoinBatch(testCtx, reqs)
	if len(outs) != n {
		t.Fatalf("got %d outcomes for %d requests", len(outs), n)
	}
	admitted := 0
	for i, out := range outs {
		if out.ID != reqs[i].ID {
			t.Fatalf("outcome %d is for %s, want %s (input order broken)", i, out.ID, reqs[i].ID)
		}
		if i < n/2 {
			if out.Err != nil && !errors.Is(out.Err, ErrRejected) {
				t.Fatalf("first occurrence %s failed: %v", out.ID, out.Err)
			}
			admitted++
		} else if !errors.Is(out.Err, ErrViewerExists) {
			t.Fatalf("duplicate %s: err = %v, want ErrViewerExists", out.ID, out.Err)
		}
	}
	if got := c.routes.size(); got != admitted {
		t.Fatalf("route table holds %d entries for %d admitted", got, admitted)
	}
	if got := c.nodes.takenCount(); got != admitted {
		t.Fatalf("allocator holds %d nodes for %d admitted", got, admitted)
	}
	ids := make([]model.ViewerID, n/2)
	for i := range ids {
		ids[i] = vid(i)
	}
	for _, out := range c.DepartBatch(testCtx, ids) {
		if out.Err != nil {
			t.Fatalf("depart %s: %v", out.ID, out.Err)
		}
	}
	if got := c.routes.size(); got != 0 {
		t.Fatalf("route table holds %d entries after departs", got)
	}
	if got := c.nodes.takenCount(); got != 0 {
		t.Fatalf("allocator holds %d nodes after departs", got)
	}
}

// prepareBatch groups a batch by owning shard with one counting pass: each
// region's share holds exactly the prepared positions its shard owns, in
// input order, shares follow region order, and failed prepares (here the
// in-batch duplicates) appear in none.
func TestPrepareBatchGroupsSharesByRegion(t *testing.T) {
	const n = 300
	c := testController16(t, n, 0)
	view := model.NewUniformView(c.cfg.Producers, 0)
	reqs := make([]JoinRequest, n)
	for i := range reqs {
		reqs[i] = JoinRequest{ID: vid(i % (n - 20)), InboundMbps: 20, OutboundMbps: 4, View: view}
	}
	out := make([]BatchOutcome, n)
	batch := c.prepareBatch(testCtx, reqs, out)
	if len(batch.order) != n-20 {
		t.Fatalf("grouped %d prepared joins, want %d", len(batch.order), n-20)
	}
	seen := 0
	for r := range len(c.lscs) {
		share := batch.share(r)
		for k, i := range share {
			if lsc := batch.joins[i].lsc; lsc == nil || int(lsc.Region) != r {
				t.Fatalf("region %d's share holds position %d, owned by %v", r, i, lsc)
			}
			if k > 0 && share[k-1] >= i {
				t.Fatalf("region %d's share is out of input order: %v", r, share)
			}
		}
		seen += len(share)
	}
	if seen != n-20 {
		t.Fatalf("shares cover %d positions, want %d", seen, n-20)
	}
	for _, i := range batch.order {
		c.abandon(batch.joins[i])
	}
}

// takeBatch groups a departure batch by owning shard with the same
// counting pass as prepareBatch: each region's share holds exactly the
// taken positions its shard owns, in input order, shares follow region
// order, and failed takes (here the in-batch duplicates, whose route the
// first occurrence already took) appear in none.
func TestDepartBatchGroupsSharesByRegion(t *testing.T) {
	const n = 300
	c := testController16(t, n, 0)
	view := model.NewUniformView(c.cfg.Producers, 0)
	joined := make([]JoinRequest, n-20)
	for i := range joined {
		joined[i] = JoinRequest{ID: vid(i), InboundMbps: 20, OutboundMbps: 4, View: view}
	}
	for _, out := range c.JoinBatch(testCtx, joined) {
		if out.Err != nil {
			t.Fatalf("join %s: %v", out.ID, out.Err)
		}
	}
	ids := make([]model.ViewerID, n)
	for i := range ids {
		ids[i] = vid(i % (n - 20))
	}
	out := make([]BatchOutcome, n)
	batch := c.takeBatch(testCtx, ids, out)
	if len(batch.order) != n-20 {
		t.Fatalf("grouped %d taken departures, want %d", len(batch.order), n-20)
	}
	seen := 0
	for r := range len(c.lscs) {
		share := batch.share(r)
		for k, i := range share {
			if lsc := batch.owners[i]; lsc == nil || int(lsc.Region) != r {
				t.Fatalf("region %d's share holds position %d, owned by %v", r, i, lsc)
			}
			if k > 0 && share[k-1] >= i {
				t.Fatalf("region %d's share is out of input order: %v", r, share)
			}
		}
		seen += len(share)
	}
	if seen != n-20 {
		t.Fatalf("shares cover %d positions, want %d", seen, n-20)
	}
	for _, i := range batch.order {
		c.bindRoute(ids[i], batch.owners[i])
	}
	for _, out := range c.DepartBatch(testCtx, ids[:n-20]) {
		if out.Err != nil {
			t.Fatalf("depart %s after the rebind: %v", out.ID, out.Err)
		}
	}
	if got := c.nodes.takenCount(); got != 0 {
		t.Fatalf("allocator holds %d nodes after departs", got)
	}
}
