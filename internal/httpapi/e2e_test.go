package httpapi_test

import (
	"context"
	"io"
	"testing"
	"time"

	"telecast/internal/httpapi"
	"telecast/internal/httpapi/client"
	"telecast/internal/workload"
)

// TestLoopbackReplay replays a catalog scenario entirely over HTTP — the
// wall-clock executor with the wire as its control plane — and pins the
// acceptance criteria: client-side accepted/rejected counts equal the
// server's /metricz totals, and the streamed feed preserves per-region
// admission order throughout the churn. Run under -race this doubles as the
// concurrency check on the whole wire path.
func TestLoopbackReplay(t *testing.T) {
	ts, _, api := newTestServer(t, 700)
	cl := client.New(ts.URL)
	ctx := context.Background()

	feed, err := cl.Subscribe(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer feed.Close()
	type feedCheck struct {
		violation string
		admitted  int
	}
	feedc := make(chan feedCheck, 1)
	go func() {
		var fc feedCheck
		lastSeq := map[int]uint64{}
		for {
			ev, err := feed.Next()
			if err != nil {
				if err != io.EOF && fc.violation == "" {
					fc.violation = err.Error()
				}
				feedc <- fc
				return
			}
			if ev.Kind == httpapi.KindFeedDropped {
				continue // drops are allowed mid-churn; order must still hold
			}
			if ev.Seq <= lastSeq[ev.Region] && fc.violation == "" {
				fc.violation = ev.Kind + ": per-region seq went backwards"
			}
			lastSeq[ev.Region] = ev.Seq
			if ev.Kind == "join-accepted" {
				fc.admitted++
			}
		}
	}()

	sc, err := workload.FromCatalog("regional-hotspot", workload.Knobs{
		Seed:     11,
		Audience: 300,
		Duration: 20 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}

	before, err := cl.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	res, err := workload.RunRemote(ctx, cl, sc,
		workload.WithSeed(11),
		workload.WithMaxInFlight(64),
	)
	if err != nil {
		t.Fatalf("remote replay: %v", err)
	}
	after, err := cl.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}

	if res.Joins == 0 {
		t.Fatal("replay admitted nobody; scenario mis-wired")
	}
	tot := after.Totals
	checks := []struct {
		name           string
		client, server uint64
	}{
		{"joins accepted", uint64(res.Joins), tot.JoinsAccepted - before.Totals.JoinsAccepted},
		{"joins rejected", uint64(res.Rejected), tot.JoinsRejected - before.Totals.JoinsRejected},
		{"leaves", uint64(res.Leaves), tot.Leaves - before.Totals.Leaves},
		{"view changes", uint64(res.ViewChanges), tot.ViewChanges - before.Totals.ViewChanges},
		{"view changes rejected", uint64(res.ViewChangesRejected), tot.ViewChangesRejected - before.Totals.ViewChangesRejected},
		{"migrations landed", uint64(res.Migrations), tot.MigrationsLanded - before.Totals.MigrationsLanded},
		{"migrations bounced", uint64(res.MigrationsBounced), tot.MigrationsBounced - before.Totals.MigrationsBounced},
	}
	for _, c := range checks {
		if c.client != c.server {
			t.Errorf("%s: client %d vs server %d", c.name, c.client, c.server)
		}
	}

	// /metricz reports process heap health alongside control-plane counters;
	// a zeroed struct means the server stopped filling it in.
	if after.Heap.HeapAllocBytes == 0 || after.Heap.HeapSysBytes == 0 {
		t.Errorf("heap stats missing from /metricz: %+v", after.Heap)
	}

	// The overlay's cumulative admission counter also covers re-admissions
	// (view changes, migration landings), so it can only exceed the join
	// count — a sanity bound, not an equality; the exact cross-check is the
	// outcome totals above.
	if got := after.Overlay.Admitted - before.Overlay.Admitted; got < res.Joins {
		t.Errorf("overlay admitted %d, below the %d client-counted joins", got, res.Joins)
	}

	// End the feed via graceful drain and verify order held end to end.
	api.Drain()
	fc := <-feedc
	if fc.violation != "" {
		t.Fatalf("feed: %s", fc.violation)
	}
	if fc.admitted == 0 {
		t.Fatal("feed saw no admissions during the replay")
	}
}
