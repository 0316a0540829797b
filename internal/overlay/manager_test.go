package overlay

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"

	"telecast/internal/cdn"
	"telecast/internal/model"
)

// newTestManager builds a manager over the evaluation session: 2 sites × 8
// streams of 2 Mbps, Δ=60s, d_buff=300ms, κ=2, d_max=65s, δ=100ms, df cutoff
// that keeps 3 streams per site.
func newTestManager(t *testing.T, cdnCapMbps float64) *Manager {
	t.Helper()
	s, err := model.NewSession(
		model.NewRingSite("A", 8, 2.0, 10),
		model.NewRingSite("B", 8, 2.0, 10),
	)
	if err != nil {
		t.Fatal(err)
	}
	dist := cdn.New(cdn.Config{OutboundCapacityMbps: cdnCapMbps, Delta: 60 * time.Second})
	rng := rand.New(rand.NewSource(1))
	jitter := make(map[[2]model.ViewerID]time.Duration)
	prop := func(a, b model.ViewerID) time.Duration {
		key := [2]model.ViewerID{a, b}
		if a > b {
			key = [2]model.ViewerID{b, a}
		}
		if d, ok := jitter[key]; ok {
			return d
		}
		d := time.Duration(10+rng.Intn(90)) * time.Millisecond
		jitter[key] = d
		return d
	}
	m, err := NewManager(s, dist, prop, testParams(t))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func viewerN(i int, in, out float64) ViewerInfo {
	return ViewerInfo{
		ID:           model.ViewerID(fmt.Sprintf("v%04d", i)),
		InboundMbps:  in,
		OutboundMbps: out,
	}
}

func mustJoin(t *testing.T, m *Manager, info ViewerInfo, angle float64) *JoinResult {
	t.Helper()
	s := sessionOf(m)
	res, err := m.Join(info, model.NewUniformView(s, angle))
	if err != nil {
		t.Fatalf("join %s: %v", info.ID, err)
	}
	return res
}

func sessionOf(m *Manager) *model.Session { return m.session }

func TestNewManagerValidation(t *testing.T) {
	if _, err := NewManager(nil, nil, nil, Params{}); err == nil {
		t.Error("nil deps accepted")
	}
}

func TestJoinFirstViewerServedByCDN(t *testing.T) {
	m := newTestManager(t, 6000)
	res := mustJoin(t, m, viewerN(1, 12, 8), 0)
	if !res.Admitted {
		t.Fatal("first viewer rejected")
	}
	if len(res.Accepted) != 6 {
		t.Fatalf("accepted %d streams, want 6", len(res.Accepted))
	}
	snap := m.Snapshot()
	if snap.ViaCDN != 6 || snap.ViaP2P != 0 {
		t.Fatalf("cdn/p2p = %d/%d, want 6/0", snap.ViaCDN, snap.ViaP2P)
	}
	if snap.CDNUsage.OutTotalMbps != 12 {
		t.Fatalf("cdn egress = %v, want 12", snap.CDNUsage.OutTotalMbps)
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestJoinDuplicateRejected(t *testing.T) {
	m := newTestManager(t, 6000)
	mustJoin(t, m, viewerN(1, 12, 8), 0)
	_, err := m.Join(viewerN(1, 12, 8), model.NewUniformView(sessionOf(m), 0))
	if !errors.Is(err, ErrViewerExists) {
		t.Fatalf("err = %v, want ErrViewerExists", err)
	}
}

func TestJoinNegativeCapacityRejected(t *testing.T) {
	m := newTestManager(t, 6000)
	if _, err := m.Join(ViewerInfo{ID: "x", InboundMbps: -1}, model.NewUniformView(sessionOf(m), 0)); err == nil {
		t.Error("negative inbound accepted")
	}
}

func TestSecondViewerServedByPeer(t *testing.T) {
	m := newTestManager(t, 6000)
	mustJoin(t, m, viewerN(1, 12, 12), 0) // seeds 6 slots (one per stream)
	res := mustJoin(t, m, viewerN(2, 12, 0), 0)
	if !res.Admitted || len(res.Accepted) != 6 {
		t.Fatalf("second join: %+v", res)
	}
	snap := m.Snapshot()
	if snap.ViaP2P != 6 {
		t.Fatalf("p2p-served = %d, want 6", snap.ViaP2P)
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestZeroOutboundViewersAllHitCDN(t *testing.T) {
	m := newTestManager(t, 6000)
	for i := 0; i < 20; i++ {
		res := mustJoin(t, m, viewerN(i, 12, 0), 0)
		if !res.Admitted {
			t.Fatalf("viewer %d rejected with ample CDN", i)
		}
	}
	snap := m.Snapshot()
	if snap.ViaCDN != 120 || snap.ViaP2P != 0 {
		t.Fatalf("cdn/p2p = %d/%d, want 120/0", snap.ViaCDN, snap.ViaP2P)
	}
	if got := snap.CDNFraction(); got != 1 {
		t.Fatalf("cdn fraction = %v", got)
	}
}

func TestRejectionWhenNoCDNAndNoSeeds(t *testing.T) {
	m := newTestManager(t, 4) // room for only 2 streams ever
	res := mustJoin(t, m, viewerN(1, 12, 0), 0)
	if res.Admitted {
		// 2 CDN streams can cover both sites' top streams; admission
		// is then legitimate. Verify coverage rather than assuming.
		if len(res.Accepted) > 2 {
			t.Fatalf("accepted %d streams with 4 Mbps CDN", len(res.Accepted))
		}
	}
	// Second zero-outbound viewer must be rejected outright: CDN is full
	// and the only peer contributes nothing.
	res2 := mustJoin(t, m, viewerN(2, 12, 0), 0)
	if res2.Admitted {
		t.Fatal("viewer 2 admitted without any supply")
	}
	snap := m.Snapshot()
	if snap.Rejected == 0 {
		t.Error("rejection not counted")
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestAcceptanceRatioAccounting(t *testing.T) {
	m := newTestManager(t, 6000)
	mustJoin(t, m, viewerN(1, 12, 12), 0)
	mustJoin(t, m, viewerN(2, 4, 0), 0) // inbound fits only 2 streams
	snap := m.Snapshot()
	if snap.StreamsRequested != 12 {
		t.Fatalf("requested = %d, want 12", snap.StreamsRequested)
	}
	// Viewer 2's 2 accepted streams must cover both sites or be rejected.
	v2, _ := m.Viewer("v0002")
	if v2.Rejected {
		if snap.StreamsAccepted != 6 {
			t.Fatalf("accepted = %d, want 6", snap.StreamsAccepted)
		}
	} else {
		if snap.StreamsAccepted != 8 {
			t.Fatalf("accepted = %d, want 8", snap.StreamsAccepted)
		}
	}
	if ratio := snap.AcceptanceRatio(); ratio <= 0 || ratio > 1 {
		t.Fatalf("ratio = %v", ratio)
	}
}

func TestDifferentViewsDifferentGroups(t *testing.T) {
	m := newTestManager(t, 6000)
	mustJoin(t, m, viewerN(1, 12, 12), 0)
	mustJoin(t, m, viewerN(2, 12, 12), math.Pi/2)
	snap := m.Snapshot()
	if snap.Groups != 2 {
		t.Fatalf("groups = %d, want 2", snap.Groups)
	}
	// Groups do not share seeds: viewer 2's streams all come from CDN.
	if snap.ViaCDN != 12 {
		t.Fatalf("cdn-served = %d, want 12", snap.ViaCDN)
	}
}

func TestLeaveRecoversVictims(t *testing.T) {
	m := newTestManager(t, 6000)
	mustJoin(t, m, viewerN(1, 12, 12), 0) // seed
	mustJoin(t, m, viewerN(2, 12, 12), 0) // child of seed or CDN
	mustJoin(t, m, viewerN(3, 12, 0), 0)  // leaf
	before := m.Snapshot()
	if before.LiveStreams != 18 {
		t.Fatalf("live = %d, want 18", before.LiveStreams)
	}
	if err := m.Leave("v0001"); err != nil {
		t.Fatal(err)
	}
	after := m.Snapshot()
	if after.Viewers != 2 {
		t.Fatalf("viewers = %d, want 2", after.Viewers)
	}
	// Victims must still receive all their streams (ample CDN).
	if after.LiveStreams != 12 {
		t.Fatalf("live after leave = %d, want 12", after.LiveStreams)
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestLeaveUnknownViewer(t *testing.T) {
	m := newTestManager(t, 6000)
	if err := m.Leave("ghost"); !errors.Is(err, ErrViewerUnknown) {
		t.Fatalf("err = %v", err)
	}
}

func TestLeaveReleasesCDNCapacity(t *testing.T) {
	m := newTestManager(t, 12) // exactly one 6-stream viewer
	res := mustJoin(t, m, viewerN(1, 12, 0), 0)
	if !res.Admitted {
		t.Fatal("viewer 1 should fit")
	}
	if err := m.Leave("v0001"); err != nil {
		t.Fatal(err)
	}
	res2 := mustJoin(t, m, viewerN(2, 12, 0), 0)
	if !res2.Admitted {
		t.Fatal("capacity not released on leave")
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestChangeViewMovesGroups(t *testing.T) {
	m := newTestManager(t, 6000)
	mustJoin(t, m, viewerN(1, 12, 12), 0)
	res, err := m.ChangeView("v0001", model.NewUniformView(sessionOf(m), math.Pi/2))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Admitted {
		t.Fatal("view change rejected")
	}
	snap := m.Snapshot()
	if snap.Groups != 1 {
		t.Fatalf("groups = %d, want 1 (old group garbage-collected)", snap.Groups)
	}
	if snap.StreamsRequested != 12 || snap.LiveStreams != 6 {
		t.Fatalf("requested=%d live=%d", snap.StreamsRequested, snap.LiveStreams)
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestChangeViewCreatesAndRecoversVictims(t *testing.T) {
	m := newTestManager(t, 6000)
	mustJoin(t, m, viewerN(1, 12, 12), 0) // parent
	mustJoin(t, m, viewerN(2, 12, 0), 0)  // likely child of v1
	if _, err := m.ChangeView("v0001", model.NewUniformView(sessionOf(m), math.Pi/2)); err != nil {
		t.Fatal(err)
	}
	// v2 must keep all 6 streams (recovered from CDN).
	v2, _ := m.Viewer("v0002")
	if len(v2.Nodes) != 6 {
		t.Fatalf("victim kept %d streams, want 6", len(v2.Nodes))
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestChangeViewUnknownViewer(t *testing.T) {
	m := newTestManager(t, 6000)
	if _, err := m.ChangeView("ghost", model.NewUniformView(sessionOf(m), 0)); !errors.Is(err, ErrViewerUnknown) {
		t.Fatalf("err = %v", err)
	}
}

func TestKappaBoundHeldAfterJoins(t *testing.T) {
	m := newTestManager(t, 6000)
	for i := 0; i < 60; i++ {
		mustJoin(t, m, viewerN(i, 12, float64(i%13)), 0)
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	// Every admitted viewer's layer spread must satisfy Layer Property 2.
	for _, id := range m.SortedViewerIDs() {
		v, _ := m.Viewer(id)
		lo, hi := 1<<30, -1
		for _, n := range v.Nodes {
			if n.Layer < lo {
				lo = n.Layer
			}
			if n.Layer > hi {
				hi = n.Layer
			}
		}
		if hi >= 0 && hi-lo > m.Params().Hierarchy.Kappa {
			t.Fatalf("viewer %s spread %d", id, hi-lo)
		}
	}
}

func TestOverlayPropertyAcrossStreams(t *testing.T) {
	// The paper's overlay property: for two viewers of the same view, if
	// u1 sits strictly closer to the root than u2 in one stream tree, u2
	// never sits strictly closer in another. Verified on a populated
	// overlay (same-view group, heterogeneous outbound).
	m := newTestManager(t, 6000)
	for i := 0; i < 40; i++ {
		mustJoin(t, m, viewerN(i, 12, float64((i*5)%15)), 0)
	}
	var group *Group
	for _, g := range m.Groups() {
		group = g
	}
	depth := func(n *Node) int {
		d := 1
		for n.Parent != nil {
			n = n.Parent
			d++
		}
		return d
	}
	type pair struct{ a, b model.ViewerID }
	closer := map[pair]bool{} // a strictly closer than b in some tree
	for _, tree := range group.Trees {
		for aID, an := range treeNodes(tree) {
			for bID, bn := range treeNodes(tree) {
				if depth(an) < depth(bn) {
					closer[pair{aID, bID}] = true
				}
			}
		}
	}
	for p := range closer {
		if closer[pair{p.b, p.a}] {
			av, _ := m.Viewer(p.a)
			bv, _ := m.Viewer(p.b)
			// Equal-resource viewers may legitimately interleave
			// (ties broken by arrival); the paper's property is
			// stated for distinct outbound allocations.
			if av.Info.OutboundMbps != bv.Info.OutboundMbps {
				t.Fatalf("overlay property violated between %s and %s", p.a, p.b)
			}
		}
	}
}

func treeNodes(t *Tree) map[model.ViewerID]*Node {
	out := make(map[model.ViewerID]*Node, t.Size())
	t.Walk(func(n *Node) { out[n.Viewer()] = n })
	return out
}

// Property test: random churn (joins, leaves, view changes) never breaks a
// structural, bandwidth, delay, or synchronization invariant.
func TestRandomChurnInvariants(t *testing.T) {
	seeds := []int64{1, 7, 42}
	for _, seed := range seeds {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			m := newTestManager(t, 300)
			rng := rand.New(rand.NewSource(seed))
			angles := []float64{0, math.Pi / 2, math.Pi}
			live := map[int]bool{}
			// victim draws a live viewer from the seeded stream; choosing
			// by map order would make the schedule differ run to run.
			victim := func() (int, bool) {
				if len(live) == 0 {
					return 0, false
				}
				ids := make([]int, 0, len(live))
				for id := range live {
					ids = append(ids, id)
				}
				sort.Ints(ids)
				return ids[rng.Intn(len(ids))], true
			}
			next := 0
			for step := 0; step < 400; step++ {
				switch op := rng.Intn(10); {
				case op < 6: // join
					info := viewerN(next, 12, float64(rng.Intn(15)))
					if _, err := m.Join(info, model.NewUniformView(sessionOf(m), angles[rng.Intn(3)])); err != nil {
						t.Fatalf("step %d join: %v", step, err)
					}
					live[next] = true
					next++
				case op < 8: // leave
					if id, ok := victim(); ok {
						if err := m.Leave(model.ViewerID(fmt.Sprintf("v%04d", id))); err != nil {
							t.Fatalf("step %d leave: %v", step, err)
						}
						delete(live, id)
					}
				default: // view change
					if id, ok := victim(); ok {
						vid := model.ViewerID(fmt.Sprintf("v%04d", id))
						if _, err := m.ChangeView(vid, model.NewUniformView(sessionOf(m), angles[rng.Intn(3)])); err != nil {
							t.Fatalf("step %d change: %v", step, err)
						}
					}
				}
				if step%20 == 0 {
					if err := m.Validate(); err != nil {
						t.Fatalf("step %d: %v", step, err)
					}
				}
			}
			if err := m.Validate(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
