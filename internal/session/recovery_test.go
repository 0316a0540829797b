package session

import (
	"bytes"
	"errors"
	"fmt"
	"maps"
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

	"telecast/internal/cdn"
	"telecast/internal/model"
	"telecast/internal/overlay"
	"telecast/internal/trace"
)

// joinInRegion admits n viewers pinned to one region through JoinBatch and
// returns the admitted IDs.
func joinInRegion(t testing.TB, c *Controller, region trace.Region, prefix string, n int, view model.View) []model.ViewerID {
	t.Helper()
	reqs := make([]JoinRequest, n)
	for i := range reqs {
		reqs[i] = JoinRequest{
			ID:           model.ViewerID(fmt.Sprintf("%s%04d", prefix, i)),
			InboundMbps:  14,
			OutboundMbps: float64(i % 9),
			View:         view,
			Region:       InRegion(region),
		}
	}
	ids := make([]model.ViewerID, 0, n)
	for _, out := range c.JoinBatch(testCtx, reqs) {
		if out.Err != nil && !errors.Is(out.Err, ErrRejected) {
			t.Fatalf("join %s: %v", out.ID, out.Err)
		}
		ids = append(ids, out.ID)
	}
	return ids
}

// recordCount counts the viewer records across every shard.
func recordCount(c *Controller) int {
	n := 0
	for _, l := range c.lscs {
		l.mu.Lock()
		n += l.shard.Len()
		l.mu.Unlock()
	}
	return n
}

// armedSnapshot copies a shard's current armed snapshot bytes.
func armedSnapshot(l *LSC) []byte {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.rec == nil {
		return nil
	}
	return append([]byte(nil), l.rec.snap...)
}

// TestKillRecoverByteIdenticalSnapshot pins the exact-rebuild property at the
// session layer: killing a quiesced shard and recovering it must re-arm a
// snapshot byte-identical to the one it was recovered from — registry,
// overlay topology, κ-layers, and counters all survive the crash.
func TestKillRecoverByteIdenticalSnapshot(t *testing.T) {
	c := testController(t, 256, 6000)
	view := model.NewUniformView(c.cfg.Producers, 0)
	region := trace.Region(0)
	joinInRegion(t, c, region, "r", 30, view)

	if err := c.SnapshotRegion(region); err != nil {
		t.Fatal(err)
	}
	l := c.lscs[region]
	orig := armedSnapshot(l)
	if len(orig) == 0 {
		t.Fatal("snapshot did not arm the shard")
	}

	if err := c.KillRegion(region); err != nil {
		t.Fatal(err)
	}
	if !c.ShardDown(region) {
		t.Fatal("killed shard not reported down")
	}
	rep, err := c.RecoverRegion(testCtx, region)
	if err != nil {
		t.Fatal(err)
	}
	if c.ShardDown(region) {
		t.Fatal("recovered shard still down")
	}
	if rep.Degraded || rep.Replayed != 0 || rep.ReplayDiverged != 0 {
		t.Fatalf("quiesced recovery took the wrong path: %+v", rep)
	}
	if got := armedSnapshot(l); !bytes.Equal(orig, got) {
		t.Fatalf("re-armed snapshot differs from recovery point:\n before: %s\n after:  %s", orig, got)
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestRecoverReplaysJournal drives churn past the snapshot point, kills the
// shard, and checks the journal replay restores every post-snapshot
// transition: later joins are back, departed viewers stay gone, view changes
// hold, and the shard rejoins a fully consistent control plane.
func TestRecoverReplaysJournal(t *testing.T) {
	c := testController(t, 512, 6000)
	view := model.NewUniformView(c.cfg.Producers, 0)
	view2 := model.NewUniformView(c.cfg.Producers, 1.3)
	region := trace.Region(1)
	ids := joinInRegion(t, c, region, "a", 20, view)

	if err := c.SnapshotRegion(region); err != nil {
		t.Fatal(err)
	}
	// Post-snapshot timeline: 10 more joins, 5 departures, 4 view changes —
	// all only in the journal.
	late := joinInRegion(t, c, region, "b", 10, view)
	for _, id := range ids[:5] {
		if err := c.Leave(testCtx, id); err != nil {
			t.Fatalf("leave %s: %v", id, err)
		}
	}
	for _, id := range ids[5:9] {
		if _, err := c.ChangeView(testCtx, id, view2); err != nil && !errors.Is(err, ErrRejected) {
			t.Fatalf("change view %s: %v", id, err)
		}
	}
	routesBefore, regBefore := c.routes.size(), recordCount(c)

	if err := c.KillRegion(region); err != nil {
		t.Fatal(err)
	}
	// The down window returns the typed refusal and keeps routes intact.
	if err := c.Leave(testCtx, ids[10]); !errors.Is(err, ErrShardDown) {
		t.Fatalf("leave on killed shard: err = %v, want ErrShardDown", err)
	}
	if _, err := c.ChangeView(testCtx, ids[11], view2); !errors.Is(err, ErrShardDown) {
		t.Fatalf("change view on killed shard: err = %v, want ErrShardDown", err)
	}
	if _, err := c.Join(testCtx, ids[12], 14, 4, view); !errors.Is(err, ErrViewerExists) {
		t.Fatalf("re-join of routed viewer during outage: err = %v, want ErrViewerExists", err)
	}

	rep, err := c.RecoverRegion(testCtx, region)
	if err != nil {
		t.Fatal(err)
	}
	if rep.SnapshotViewers != 20 {
		t.Fatalf("snapshot viewers = %d, want 20", rep.SnapshotViewers)
	}
	if rep.Replayed != 10+5+4 {
		t.Fatalf("replayed = %d, want 19", rep.Replayed)
	}

	// Totality across the crash: route table and shard registries agree
	// exactly, and the failed-while-down leave still works now.
	if got := c.routes.size(); got != routesBefore {
		t.Fatalf("routes = %d, want %d", got, routesBefore)
	}
	if got := recordCount(c); got != regBefore {
		t.Fatalf("registry size = %d, want %d", got, regBefore)
	}
	if err := c.Leave(testCtx, ids[10]); err != nil {
		t.Fatalf("leave after recovery: %v", err)
	}
	for _, id := range late {
		if _, err := c.ChangeView(testCtx, id, view2); err != nil && !errors.Is(err, ErrRejected) {
			t.Fatalf("journal-replayed viewer %s unusable: %v", id, err)
		}
	}
	for _, id := range ids[:5] {
		if err := c.Leave(testCtx, id); !errors.Is(err, ErrUnknownViewer) {
			t.Fatalf("pre-kill departure %s resurrected: err = %v", id, err)
		}
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestKillUnarmedRegionRefused pins the arming contract: a region without a
// snapshot cannot be killed (there would be nothing to recover from), and a
// live region cannot be recovered.
func TestKillUnarmedRegionRefused(t *testing.T) {
	c := testController(t, 64, 6000)
	if err := c.KillRegion(trace.Region(0)); err == nil {
		t.Fatal("unarmed region killed")
	}
	if _, err := c.RecoverRegion(testCtx, trace.Region(0)); err == nil {
		t.Fatal("live region recovered")
	}
	if err := c.EnableRecovery(); err != nil {
		t.Fatal(err)
	}
	if err := c.KillRegion(trace.Region(0)); err != nil {
		t.Fatalf("armed region refused kill: %v", err)
	}
	if err := c.KillRegion(trace.Region(0)); !errors.Is(err, ErrShardDown) {
		t.Fatalf("double kill: err = %v, want ErrShardDown", err)
	}
	if err := c.SnapshotRegion(trace.Region(0)); !errors.Is(err, ErrShardDown) {
		t.Fatalf("snapshot of killed shard: err = %v, want ErrShardDown", err)
	}
	if _, err := c.RecoverRegion(testCtx, trace.Region(0)); err != nil {
		t.Fatal(err)
	}
}

// TestKillRecoverMidChurnRace hammers the control plane from concurrent
// workers while shards are killed and recovered underneath them, then
// asserts totality: every route resolves to a registry entry, no claims
// leak, and the whole plane passes the epoch-based online validator. Run
// with -race.
func TestKillRecoverMidChurnRace(t *testing.T) {
	c := testController(t, 2048, 6000)
	if err := c.EnableRecovery(); err != nil {
		t.Fatal(err)
	}
	view := model.NewUniformView(c.cfg.Producers, 0)
	view2 := model.NewUniformView(c.cfg.Producers, 2.1)

	tolerable := func(err error) bool {
		return err == nil ||
			errors.Is(err, ErrShardDown) ||
			errors.Is(err, ErrRejected) ||
			errors.Is(err, ErrMigrating) // evacuation wave owns the viewer
	}

	const workers, perWorker = 6, 60
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < perWorker; i++ {
				id := model.ViewerID(fmt.Sprintf("c%d-%04d", w, i))
				if _, err := c.Join(testCtx, id, 14, float64(rng.Intn(9)), view); err != nil {
					if !tolerable(err) {
						t.Errorf("join %s: %v", id, err)
					}
					continue
				}
				if rng.Intn(2) == 0 {
					if _, err := c.ChangeView(testCtx, id, view2); !tolerable(err) {
						t.Errorf("change view %s: %v", id, err)
					}
				}
				if rng.Intn(3) == 0 {
					if err := c.Leave(testCtx, id); !tolerable(err) {
						t.Errorf("leave %s: %v", id, err)
					}
				}
			}
		}(w)
	}

	// Chaos loop: kill/recover cycles across regions while the workers churn.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for cycle := 0; cycle < 6; cycle++ {
			r := trace.Region(cycle % c.cfg.Latency.NumRegions())
			if err := c.KillRegion(r); err != nil {
				continue // not armed or already down this instant
			}
			time.Sleep(2 * time.Millisecond)
			if _, err := c.RecoverRegion(testCtx, r); err != nil {
				t.Errorf("recover region %d: %v", r, err)
				return
			}
			if err := c.SnapshotRegion(r); err != nil {
				t.Errorf("re-snapshot region %d: %v", r, err)
				return
			}
		}
	}()
	wg.Wait()
	<-done

	for r := 0; r < c.cfg.Latency.NumRegions(); r++ {
		if c.ShardDown(trace.Region(r)) {
			t.Fatalf("region %d left down", r)
		}
	}
	if claimed := c.routes.claimed(); claimed != 0 {
		t.Fatalf("%d claimed routes leaked", claimed)
	}
	if routes, reg := c.routes.size(), recordCount(c); routes != reg {
		t.Fatalf("route table holds %d viewers, registries %d", routes, reg)
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkRecovery measures the shard rebuild rate: viewers per second of
// snapshot-exact recovery at a populated shard. The shard is armed once; each
// iteration is one kill + recover cycle of the same snapshot.
func BenchmarkRecovery(b *testing.B) {
	for _, viewers := range []int{1000, 10000} {
		b.Run(fmt.Sprintf("viewers=%d", viewers), func(b *testing.B) {
			benchRecovery(b, viewers)
		})
	}
}

func benchRecovery(b *testing.B, viewers int) {
	producers, err := model.NewSession(
		model.NewRingSite("A", 8, 2.0, 10),
		model.NewRingSite("B", 8, 2.0, 10),
	)
	if err != nil {
		b.Fatal(err)
	}
	// One region: the whole population lands on the measured shard.
	latCfg := trace.DefaultLatencyConfig(viewers+64, 7)
	latCfg.Regions = 1
	lat, err := trace.GenerateLatencyMatrix(latCfg)
	if err != nil {
		b.Fatal(err)
	}
	cdnCfg := cdn.DefaultConfig()
	cdnCfg.OutboundCapacityMbps = 0 // unbounded: population never rejects
	c, err := NewController(producers, lat, WithCDN(cdnCfg))
	if err != nil {
		b.Fatal(err)
	}
	region := trace.Region(0)
	view := model.NewUniformView(producers, 0)
	joinInRegion(b, c, region, "v", viewers, view)
	if err := c.SnapshotRegion(region); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.KillRegion(region); err != nil {
			b.Fatal(err)
		}
		rep, err := c.RecoverRegion(testCtx, region)
		if err != nil {
			b.Fatal(err)
		}
		if rep.Viewers != viewers || rep.Degraded {
			b.Fatalf("rebuild lost viewers: %+v", rep)
		}
	}
	b.ReportMetric(float64(viewers)*float64(b.N)/b.Elapsed().Seconds(), "viewers/s")
}

// requireDelayChain checks every tree node of every live shard against the
// latency matrix scaled by factor: a CDN child sits at Δ, every other node
// at its parent's effective delay plus factor × d_prop plus δ. It returns the
// number of peer edges checked.
func requireDelayChain(t *testing.T, c *Controller, factor int64) int {
	t.Helper()
	edges := 0
	for r, l := range c.lscs {
		l.mu.Lock()
		mgr := l.shard.(*overlay.Manager)
		for _, id := range mgr.SortedViewerIDs() {
			v, _ := mgr.Viewer(id)
			for i, sid := range v.AcceptedStreams() {
				n := v.Nodes[i]
				want := c.params.Hierarchy.Delta
				if p := n.Parent; p != nil {
					d := c.cfg.Latency.Delay(p.Owner().Info.Node, v.Info.Node)
					want = p.EffE2E + time.Duration(factor)*d + c.params.Proc
					edges++
				}
				if n.MinE2E != want {
					t.Errorf("region %d viewer %s stream %v: MinE2E %v, want %v at %d× delays",
						r, id, sid, n.MinE2E, want, factor)
				}
			}
		}
		l.mu.Unlock()
	}
	return edges
}

// TestShiftDelaysRederivesEveryEdge pins that a DelayShift reaches every
// tree edge: the overlay caches d_prop per edge, and ShiftDelays' RefreshAll
// must re-derive each cached value, not just re-walk the trees. A region
// killed and recovered after the shift must rebuild under the shifted
// landscape too.
func TestShiftDelaysRederivesEveryEdge(t *testing.T) {
	c := testController(t, 256, 6000)
	view := model.NewUniformView(c.cfg.Producers, 0)
	region := trace.Region(0)
	joinInRegion(t, c, region, "s", 60, view)
	if edges := requireDelayChain(t, c, 1); edges == 0 {
		t.Fatal("fixture has no peer edges")
	}
	if err := c.SnapshotRegion(region); err != nil {
		t.Fatal(err)
	}

	if err := c.ShiftDelays(2); err != nil {
		t.Fatal(err)
	}
	if err := c.Validate(); err != nil {
		t.Fatalf("after the shift: %v", err)
	}
	requireDelayChain(t, c, 2)

	if err := c.KillRegion(region); err != nil {
		t.Fatal(err)
	}
	if _, err := c.RecoverRegion(testCtx, region); err != nil {
		t.Fatal(err)
	}
	if err := c.Validate(); err != nil {
		t.Fatalf("after recovery: %v", err)
	}
	if edges := requireDelayChain(t, c, 2); edges == 0 {
		t.Fatal("recovered shard has no peer edges")
	}
}

// preparedAcrossKill arms a 20-viewer shard, runs a join's GSC half for one
// more viewer pinned to it, and kills the shard before the admission: the
// schedule a kill landing between JoinBatch's prepare and admit phases makes.
func preparedAcrossKill(t *testing.T) (*Controller, preparedJoin) {
	t.Helper()
	c := testController(t, 256, 6000)
	view := model.NewUniformView(c.cfg.Producers, 0)
	region := trace.Region(0)
	joinInRegion(t, c, region, "r", 20, view)
	if err := c.SnapshotRegion(region); err != nil {
		t.Fatal(err)
	}
	p, err := c.prepare(JoinRequest{ID: "late", InboundMbps: 14, OutboundMbps: 4, View: view, Region: InRegion(region)})
	if err != nil {
		t.Fatal(err)
	}
	if p.lsc != c.lscs[region] {
		t.Fatalf("prepared join routed to region %d, want %d", p.lsc.Region, region)
	}
	if err := c.KillRegion(region); err != nil {
		t.Fatal(err)
	}
	return c, p
}

// TestPreparedJoinAdmittedAfterKillRecover pins the kill/recover cycle that
// lands between a join's prepare and its admission: the recovered shard was
// rebuilt from a snapshot and journal that never saw the in-flight viewer,
// and the admission must still admit, route and register it.
func TestPreparedJoinAdmittedAfterKillRecover(t *testing.T) {
	c, p := preparedAcrossKill(t)
	if _, err := c.RecoverRegion(testCtx, p.lsc.Region); err != nil {
		t.Fatal(err)
	}
	out, err := c.admit(p)
	if err != nil {
		t.Fatalf("admission after kill/recover: %v", err)
	}
	if !out.Result.Admitted {
		t.Fatalf("late viewer rejected: %v", out.Result.Reason)
	}
	if lsc, err := c.lookupRoute("late"); err != nil || lsc != p.lsc {
		t.Fatalf("late viewer not routed to its shard: %v", err)
	}
	if _, ok := p.lsc.Viewer("late"); !ok {
		t.Fatal("late viewer has no overlay record")
	}
	if got := recordCount(c); got != 21 || c.routes.size() != 21 || c.routes.claimed() != 0 {
		t.Fatalf("registry %d, routes %d (%d claimed), want 21 bound routes and 21 entries",
			got, c.routes.size(), c.routes.claimed())
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestPreparedJoinRefusedByKilledShard pins the same prepare with the
// admission landing while the shard is still down: it must fail with
// ErrShardDown and leave no route claim, registry entry or latency node
// behind, before or after the shard recovers.
func TestPreparedJoinRefusedByKilledShard(t *testing.T) {
	c, p := preparedAcrossKill(t)
	if _, err := c.admit(p); !errors.Is(err, ErrShardDown) {
		t.Fatalf("admission on a killed shard = %v, want ErrShardDown", err)
	}
	check := func(when string) {
		t.Helper()
		if _, err := c.lookupRoute("late"); !errors.Is(err, ErrUnknownViewer) {
			t.Fatalf("%s: refused viewer still routed: %v", when, err)
		}
		if c.routes.size() != 20 || c.routes.claimed() != 0 {
			t.Fatalf("%s: %d routes (%d claimed), want the 20 bound ones", when, c.routes.size(), c.routes.claimed())
		}
		if got := c.nodes.takenCount(); got != 20 {
			t.Fatalf("%s: allocator holds %d nodes for 20 routed viewers", when, got)
		}
	}
	check("down")
	if got := recordCount(c); got != 0 {
		t.Fatalf("killed shard's registry holds %d entries", got)
	}
	if _, err := c.RecoverRegion(testCtx, p.lsc.Region); err != nil {
		t.Fatal(err)
	}
	check("recovered")
	if got := recordCount(c); got != 20 {
		t.Fatalf("recovered registry holds %d entries, want 20", got)
	}
	if _, ok := p.lsc.Viewer("late"); ok {
		t.Fatal("refused viewer has an overlay record")
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestArmedJournalCompacts churns an armed shard far past its journal bound
// and then kills and recovers it. The journal must never outgrow the bound,
// it must have been compacted into fresh snapshots several times, and the
// recovery from the last compaction plus its journal suffix must rebuild
// exactly the shard that was killed: the same viewers with the same
// admission state, a registry equal to the overlay, and clean invariants.
func TestArmedJournalCompacts(t *testing.T) {
	c := testController(t, 8*64+16, 6000)
	region := trace.Region(0)
	if err := c.EnableRecovery(); err != nil {
		t.Fatal(err)
	}
	l := c.lscs[region]
	views := []model.View{
		model.NewUniformView(c.cfg.Producers, 0),
		model.NewUniformView(c.cfg.Producers, math.Pi/2),
	}
	const audience = 40
	bound := journalCompactFactor * journalCompactFloor
	journal := func() (entries int, snapSeq uint64) {
		l.mu.Lock()
		defer l.mu.Unlock()
		return len(l.rec.entries), l.rec.snapSeq
	}
	churn := func(ids []model.ViewerID) {
		for i := 0; i < len(ids); i += 4 {
			if _, err := c.ChangeView(testCtx, ids[i], views[1]); err != nil && !errors.Is(err, ErrRejected) {
				t.Fatalf("view change %s: %v", ids[i], err)
			}
		}
	}
	compactions := 0
	_, last := journal()
	for cycle := 0; compactions < 3; cycle++ {
		if cycle == 100 {
			t.Fatalf("journal compacted %d times in %d cycles", compactions, cycle)
		}
		ids := joinInRegion(t, c, region, "j", audience, views[0])
		churn(ids)
		for _, id := range ids {
			if err := c.Leave(testCtx, id); err != nil {
				t.Fatalf("leave %s: %v", id, err)
			}
		}
		n, snapSeq := journal()
		if n > bound {
			t.Fatalf("journal holds %d entries, bound %d", n, bound)
		}
		// Only this region journals anything, so its journal is the
		// longest one Stats reports.
		if got := c.SampleStats().JournalEntries; got != n {
			t.Fatalf("SampleStats().JournalEntries = %d, journal holds %d", got, n)
		}
		if snapSeq != last {
			compactions++
			last = snapSeq
		}
	}
	// Leave a live audience and a journal suffix past the last compaction.
	ids := joinInRegion(t, c, region, "k", audience, views[0])
	churn(ids)
	for _, id := range ids[:audience/4] {
		if err := c.Leave(testCtx, id); err != nil {
			t.Fatal(err)
		}
	}
	if n, _ := journal(); n == 0 {
		t.Fatal("no journal suffix to replay")
	}
	// admitted reads each viewer record's admission state and latency
	// node: recovery must bring back both.
	type record struct {
		admitted bool
		node     int
	}
	admitted := func() map[model.ViewerID]record {
		l.mu.Lock()
		defer l.mu.Unlock()
		mgr := l.shard.(*overlay.Manager)
		out := make(map[model.ViewerID]record, mgr.Len())
		for _, id := range mgr.SortedViewerIDs() {
			v, _ := mgr.Viewer(id)
			out[id] = record{admitted: !v.Rejected, node: v.Info.Node}
		}
		return out
	}
	want := admitted()

	if err := c.KillRegion(region); err != nil {
		t.Fatal(err)
	}
	rep, err := c.RecoverRegion(testCtx, region)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Degraded || rep.ReplayDiverged != 0 || rep.Replayed == 0 {
		t.Fatalf("recovery took the wrong path: %+v", rep)
	}
	if got := admitted(); !maps.Equal(got, want) {
		t.Fatalf("recovered viewers %v, want %v", got, want)
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}
