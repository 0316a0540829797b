package session

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"telecast/internal/model"
	"telecast/internal/trace"
)

// migrateController builds a controller whose per-region node pools leave
// room for handoffs (a migration transiently holds two nodes).
func migrateController(t *testing.T, nodes int, cdnCapMbps float64) *Controller {
	t.Helper()
	return testController(t, nodes, cdnCapMbps)
}

// regionOf reads a routed viewer's current region through its shard.
func regionOf(t *testing.T, c *Controller, id model.ViewerID) trace.Region {
	t.Helper()
	lsc, err := c.lookupRoute(id)
	if err != nil {
		t.Fatalf("lookup %s: %v", id, err)
	}
	return lsc.Region
}

func TestMigrateMovesViewerAcrossShards(t *testing.T) {
	c := migrateController(t, 256, 6000)
	view := model.NewUniformView(c.cfg.Producers, 0)
	out, err := c.Admit(testCtx, JoinRequest{ID: "mover", InboundMbps: 12, OutboundMbps: 8, View: view, Region: InRegion(0)})
	if err != nil {
		t.Fatal(err)
	}
	if out.LSCRegion != 0 {
		t.Fatalf("viewer joined region %d, hinted 0", out.LSCRegion)
	}
	streams := len(out.Result.Accepted)

	mig, err := c.Migrate(testCtx, "mover", MigrateRequest{To: 3, Reason: "roaming"})
	if err != nil {
		t.Fatal(err)
	}
	if mig.From != 0 || mig.To != 3 || mig.Restored || mig.Departed {
		t.Fatalf("unexpected outcome %+v", mig)
	}
	if !mig.Result.Admitted || len(mig.Result.Accepted) != streams {
		t.Fatalf("destination served %d streams, source served %d", len(mig.Result.Accepted), streams)
	}
	if mig.Delay <= 0 {
		t.Fatal("no handoff protocol delay recorded")
	}
	if got := regionOf(t, c, "mover"); got != 3 {
		t.Fatalf("route points at region %d after handoff, want 3", got)
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	// The viewer is fully owned by the destination: view changes and
	// departures work there.
	if _, err := c.ChangeView(testCtx, "mover", model.NewUniformView(c.cfg.Producers, 1.5)); err != nil {
		t.Fatalf("view change after migration: %v", err)
	}
	if err := c.Leave(testCtx, "mover"); err != nil {
		t.Fatalf("leave after migration: %v", err)
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if n := c.routes.size(); n != 0 {
		t.Fatalf("%d route entries leaked", n)
	}
}

func TestMigrateSameRegionIsNoOp(t *testing.T) {
	c := migrateController(t, 128, 6000)
	view := model.NewUniformView(c.cfg.Producers, 0)
	if _, err := c.Admit(testCtx, JoinRequest{ID: "homer", InboundMbps: 12, OutboundMbps: 4, View: view, Region: InRegion(2)}); err != nil {
		t.Fatal(err)
	}
	mig, err := c.Migrate(testCtx, "homer", MigrateRequest{To: 2})
	if err != nil {
		t.Fatal(err)
	}
	if mig.From != 2 || mig.To != 2 || mig.Result != nil || mig.Restored || mig.Departed {
		t.Fatalf("same-region migration not a no-op: %+v", mig)
	}
	if got := regionOf(t, c, "homer"); got != 2 {
		t.Fatalf("route moved to region %d", got)
	}
}

func TestMigrateErrorsAreTyped(t *testing.T) {
	c := migrateController(t, 128, 6000)
	if _, err := c.Migrate(testCtx, "ghost", MigrateRequest{To: 1}); !errors.Is(err, ErrUnknownViewer) {
		t.Fatalf("unknown viewer: %v", err)
	}
	view := model.NewUniformView(c.cfg.Producers, 0)
	if _, err := c.Admit(testCtx, JoinRequest{ID: "v", InboundMbps: 12, OutboundMbps: 4, View: view}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Migrate(testCtx, "v", MigrateRequest{To: trace.Region(99)}); !errors.Is(err, ErrUnknownRegion) {
		t.Fatalf("unknown region: %v", err)
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.Migrate(cancelled, "v", MigrateRequest{To: 1}); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled context: %v", err)
	}
	// The viewer must be untouched by all of the above.
	if _, err := c.lookupRoute("v"); err != nil {
		t.Fatalf("viewer disturbed: %v", err)
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}

// seedPinnedMigrant joins a CDN-rooted forwarder and a leecher served P2P
// beneath it in region 0, with the CDN budget sized for the forwarder
// alone. Migrating the leecher must fail at any destination: its extract
// frees no CDN egress (it was P2P-served), and the destination — where it
// has no peers — needs CDN egress that does not exist.
func seedPinnedMigrant(t *testing.T, c *Controller) {
	t.Helper()
	view := model.NewUniformView(c.cfg.Producers, 0)
	for _, req := range []JoinRequest{
		{ID: "parent", InboundMbps: 12, OutboundMbps: 24, View: view, Region: InRegion(0)},
		{ID: "mover", InboundMbps: 12, OutboundMbps: 0, View: view, Region: InRegion(0)},
	} {
		out, err := c.Admit(testCtx, req)
		if err != nil {
			t.Fatalf("join %s: %v", req.ID, err)
		}
		if !out.Result.Admitted {
			t.Fatalf("viewer %s not admitted at seed", req.ID)
		}
	}
}

func TestMigrateRejectedRestoresOnSource(t *testing.T) {
	c := migrateController(t, 128, 12)
	seedPinnedMigrant(t, c)
	mig, err := c.Migrate(testCtx, "mover", MigrateRequest{To: 1, Reason: "roaming"})
	if !errors.Is(err, ErrRejected) {
		t.Fatalf("want rejection, got %v (outcome %+v)", err, mig)
	}
	var rej *RejectionError
	if !errors.As(err, &rej) {
		t.Fatalf("no RejectionError in %v", err)
	}
	if !mig.Restored || mig.Departed {
		t.Fatalf("want restored-on-source, got %+v", mig)
	}
	if got := regionOf(t, c, "mover"); got != 0 {
		t.Fatalf("restored viewer routed to region %d, want 0", got)
	}
	if err := c.Validate(); err != nil {
		t.Fatalf("invariants after restore: %v", err)
	}
	// Restored means live: the viewer departs normally.
	if err := c.Leave(testCtx, "mover"); err != nil {
		t.Fatal(err)
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestMigrateRejectedDepartsUnderPolicy(t *testing.T) {
	c := migrateController(t, 128, 12)
	seedPinnedMigrant(t, c)
	view := model.NewUniformView(c.cfg.Producers, 0)
	mig, err := c.Migrate(testCtx, "mover", MigrateRequest{To: 1, DepartOnReject: true})
	if !errors.Is(err, ErrRejected) {
		t.Fatalf("want rejection, got %v", err)
	}
	if !mig.Departed || mig.Restored {
		t.Fatalf("want departed, got %+v", mig)
	}
	if _, err := c.lookupRoute("mover"); !errors.Is(err, ErrUnknownViewer) {
		t.Fatalf("departed migrant still routed: %v", err)
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	// The ID is reusable: the departure was clean.
	if _, err := c.Admit(testCtx, JoinRequest{ID: "mover", InboundMbps: 12, OutboundMbps: 0, View: view, Region: InRegion(1)}); err != nil && !errors.Is(err, ErrRejected) {
		t.Fatalf("rejoin after departed migration: %v", err)
	}
}

func TestMigrateCancelledMidHandoffRestores(t *testing.T) {
	c := migrateController(t, 256, 6000)
	view := model.NewUniformView(c.cfg.Producers, 0)
	if _, err := c.Admit(testCtx, JoinRequest{ID: "mover", InboundMbps: 12, OutboundMbps: 8, View: view, Region: InRegion(0)}); err != nil {
		t.Fatal(err)
	}
	// Cancel between phase 1 (extract) and phase 2 (destination admission):
	// the context reports cancelled only after the entry checks passed.
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		// Cancel concurrently; whichever check observes it, the contract
		// holds: the viewer ends routed (restored or migrated), never lost.
		cancel()
		close(done)
	}()
	out, err := c.Migrate(ctx, "mover", MigrateRequest{To: 3})
	<-done
	if err != nil {
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("unexpected error: %v", err)
		}
		if out != nil && !out.Restored {
			t.Fatalf("cancelled handoff neither nil-before-detach nor restored: %+v", out)
		}
	}
	if _, routeErr := c.lookupRoute("mover"); routeErr != nil {
		t.Fatalf("viewer lost after cancellation: %v", routeErr)
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestMigrateBatchGroupsByDestination(t *testing.T) {
	c := migrateController(t, 512, 6000)
	view := model.NewUniformView(c.cfg.Producers, 0)
	const n = 48
	regions := c.cfg.Latency.NumRegions()
	for i := 0; i < n; i++ {
		if _, err := c.Admit(testCtx, JoinRequest{ID: vid(i), InboundMbps: 12, OutboundMbps: float64(i % 13), View: view, Region: InRegion(trace.Region(i % regions))}); err != nil && !errors.Is(err, ErrRejected) {
			t.Fatal(err)
		}
	}
	migs := make([]Migration, n)
	for i := 0; i < n; i++ {
		migs[i] = Migration{ID: vid(i), Req: MigrateRequest{To: trace.Region((i + 1) % regions), Reason: "wave"}}
	}
	landed := 0
	for i, out := range c.MigrateBatch(testCtx, migs) {
		if out.Err != nil && !errors.Is(out.Err, ErrRejected) && !errors.Is(out.Err, ErrMatrixExhausted) {
			t.Fatalf("migration %d: %v", i, out.Err)
		}
		if out.Err == nil && out.Outcome != nil && !out.Outcome.Restored && !out.Outcome.Departed {
			landed++
			if got := regionOf(t, c, out.ID); got != trace.Region((i+1)%regions) {
				t.Fatalf("viewer %d landed in region %d, want %d", i, got, (i+1)%regions)
			}
		}
	}
	if landed == 0 {
		t.Fatal("no migration landed")
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := c.routes.claimed(); got != 0 {
		t.Fatalf("%d claimed routes left after batch", got)
	}
}

// TestMigrationChurnRace is the acceptance gate for handoff totality: joins,
// departures, view changes, and migrations race across every shard under
// -race, and afterwards (a) invariants and exact global CDN accounting hold,
// (b) no route entry leaked (routes == shard registries == live viewers),
// and (c) every migration ended rebound, restored, or departed.
func TestMigrationChurnRace(t *testing.T) {
	c := migrateController(t, 640, 900)
	view0 := model.NewUniformView(c.cfg.Producers, 0)
	view1 := model.NewUniformView(c.cfg.Producers, 1.5)
	regions := c.cfg.Latency.NumRegions()

	const workers = 8
	const opsPerWorker = 300
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w) + 99))
			for i := 0; i < opsPerWorker; i++ {
				id := model.ViewerID(fmt.Sprintf("w%dv%02d", w, rng.Intn(24)))
				switch rng.Intn(10) {
				case 0, 1, 2, 3:
					_, err := c.Admit(testCtx, JoinRequest{
						ID: id, InboundMbps: 12, OutboundMbps: float64(rng.Intn(13)),
						View: view0, Region: InRegion(trace.Region(rng.Intn(regions))),
					})
					tolerate(t, err, "join")
				case 4, 5, 6:
					out, err := c.Migrate(testCtx, id, MigrateRequest{
						To:             trace.Region(rng.Intn(regions)),
						Reason:         "churn",
						DepartOnReject: rng.Intn(4) == 0,
					})
					tolerate(t, err, "migrate")
					if err != nil && errors.Is(err, ErrRejected) {
						if out == nil || (!out.Restored && !out.Departed) {
							t.Errorf("rejected migration neither restored nor departed: %+v", out)
						}
					}
				case 7:
					_, err := c.ChangeView(testCtx, id, view1)
					tolerate(t, err, "view change")
				default:
					tolerate(t, c.Leave(testCtx, id), "leave")
				}
			}
		}(w)
	}
	wg.Wait()

	if err := c.Validate(); err != nil {
		t.Fatalf("invariants after churn+migration: %v", err)
	}
	// Route/record agreement: every route is bound, and each shard's
	// viewer records match the routes pointing at it.
	if got := c.routes.claimed(); got != 0 {
		t.Fatalf("%d claimed routes leaked", got)
	}
	routed := 0
	perShard := make(map[trace.Region]int)
	for i := range c.routes.stripes {
		s := &c.routes.stripes[i]
		for id, lsc := range s.m {
			routed++
			perShard[lsc.Region]++
			lsc.mu.Lock()
			_, ok := lsc.shard.Viewer(id)
			lsc.mu.Unlock()
			if !ok {
				t.Fatalf("routed viewer %s has no record in region %d", id, lsc.Region)
			}
		}
	}
	registered := 0
	for region, lsc := range c.lscs {
		lsc.mu.Lock()
		n := lsc.shard.Len()
		lsc.mu.Unlock()
		registered += n
		if n != perShard[region] {
			t.Fatalf("region %d holds %d viewer records, routes say %d", region, n, perShard[region])
		}
	}
	if routed != registered {
		t.Fatalf("%d routes vs %d viewer records", routed, registered)
	}
	// Node accounting: allocator holds exactly one node per routed viewer.
	taken := c.nodes.takenCount()
	if taken != routed {
		t.Fatalf("allocator holds %d nodes for %d routed viewers", taken, routed)
	}
}

// tolerate fails on any error outside the vocabulary concurrent churn
// legitimately produces.
func tolerate(t *testing.T, err error, op string) {
	t.Helper()
	if err == nil ||
		errors.Is(err, ErrRejected) ||
		errors.Is(err, ErrViewerExists) ||
		errors.Is(err, ErrUnknownViewer) ||
		errors.Is(err, ErrMigrating) ||
		errors.Is(err, ErrMatrixExhausted) {
		return
	}
	t.Errorf("%s: %v", op, err)
}

// The online validator treats a mid-flight handoff as a non-quiescent
// window: the attempt is skipped (nil verdict after bounded retries), never
// raised as a phantom violation. The old fail-fast ErrMigrationInFlight
// behavior is gone.
func TestValidateSkipsMidHandoff(t *testing.T) {
	c := migrateController(t, 128, 6000)
	c.migrations.Add(1)
	if err := c.Validate(); err != nil {
		t.Fatalf("mid-handoff validate should skip, got %v", err)
	}
	c.migrations.Add(-1)
	if err := c.Validate(); err != nil {
		t.Fatalf("quiescent validate: %v", err)
	}
	// Same skip for a recovery in flight.
	c.recovering.Add(1)
	if err := c.Validate(); err != nil {
		t.Fatalf("mid-recovery validate should skip, got %v", err)
	}
	c.recovering.Add(-1)
	if err := c.Validate(); err != nil {
		t.Fatalf("quiescent validate: %v", err)
	}
}

func TestMigrateEmitsPerRegionOrderedEvents(t *testing.T) {
	c := migrateController(t, 256, 6000)
	sub := c.Subscribe()
	view := model.NewUniformView(c.cfg.Producers, 0)
	if _, err := c.Admit(testCtx, JoinRequest{ID: "mover", InboundMbps: 12, OutboundMbps: 8, View: view, Region: InRegion(0)}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Migrate(testCtx, "mover", MigrateRequest{To: 3, Reason: "roaming"}); err != nil {
		t.Fatal(err)
	}
	sub.Flush()
	sub.Close()
	var sawOut, sawIn bool
	for ev := range sub.Events() {
		switch ev.Kind {
		case EventMigratedOut:
			sawOut = true
			if ev.Region != 0 || ev.From != 0 || ev.To != 3 || ev.Cause != "roaming" {
				t.Fatalf("bad detach event %+v", ev)
			}
		case EventMigratedIn:
			sawIn = true
			if ev.Region != 3 || ev.From != 0 || ev.To != 3 || ev.Streams == 0 {
				t.Fatalf("bad arrival event %+v", ev)
			}
		}
	}
	if !sawOut || !sawIn {
		t.Fatalf("missing migration events (out=%t in=%t)", sawOut, sawIn)
	}
}
