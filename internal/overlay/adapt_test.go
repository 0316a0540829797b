package overlay

import (
	"strings"
	"sync"
	"testing"
	"time"

	"telecast/internal/cdn"
	"telecast/internal/model"
)

// mutableProp is a propagation-delay model tests can change mid-run to
// emulate network dynamism.
type mutableProp struct {
	mu   sync.Mutex
	base time.Duration
	// pairs, when set, replaces the constant base with a per-pair delay.
	pairs PropFunc
	extra map[model.ViewerID]time.Duration
}

func newMutableProp(base time.Duration) *mutableProp {
	return &mutableProp{base: base, extra: make(map[model.ViewerID]time.Duration)}
}

func (p *mutableProp) fn(a, b model.ViewerID) time.Duration {
	p.mu.Lock()
	defer p.mu.Unlock()
	d := p.base
	if p.pairs != nil {
		d = p.pairs(a, b)
	}
	return d + p.extra[a] + p.extra[b]
}

// degrade adds one-way delay on every path touching the viewer.
func (p *mutableProp) degrade(id model.ViewerID, d time.Duration) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.extra[id] = d
}

func newAdaptManager(t *testing.T, prop PropFunc, cdnCap float64) *Manager {
	t.Helper()
	s, err := model.NewSession(
		model.NewRingSite("A", 8, 2.0, 10),
		model.NewRingSite("B", 8, 2.0, 10),
	)
	if err != nil {
		t.Fatal(err)
	}
	dist := cdn.New(cdn.Config{OutboundCapacityMbps: cdnCap, Delta: 60 * time.Second})
	m, err := NewManager(s, dist, prop, testParams(t))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestRefreshAllNoChangeOnStableNetwork(t *testing.T) {
	prop := newMutableProp(30 * time.Millisecond)
	m := newAdaptManager(t, prop.fn, 6000)
	for i := 0; i < 20; i++ {
		mustJoin(t, m, viewerN(i, 12, float64(i%13)), 0)
	}
	if changed := m.RefreshAll(); changed != 0 {
		t.Fatalf("stable network changed %d nodes", changed)
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestRefreshAllPropagatesDelaySpike(t *testing.T) {
	prop := newMutableProp(30 * time.Millisecond)
	m := newAdaptManager(t, prop.fn, 6000)
	mustJoin(t, m, viewerN(0, 12, 12), 0) // seed: CDN child
	mustJoin(t, m, viewerN(1, 12, 6), 0)  // under the seed
	mustJoin(t, m, viewerN(2, 12, 0), 0)  // leaf
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	// The seed's access link degrades by half a second: every descendant's
	// minimum delay rises; the adaptation must re-layer them and keep the
	// κ bound.
	prop.degrade("v0000", 500*time.Millisecond)
	changed := m.RefreshAll()
	if changed == 0 {
		t.Fatal("delay spike went unnoticed")
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	// And the inverse: the spike clears; descendants move back up
	// ("if the parent layers for all streams move up, the viewer also
	// moves up", §VI).
	prop.degrade("v0000", 0)
	if changed := m.RefreshAll(); changed == 0 {
		t.Fatal("recovery went unnoticed")
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestRefreshAllDropsBeyondDMax(t *testing.T) {
	prop := newMutableProp(30 * time.Millisecond)
	m := newAdaptManager(t, prop.fn, 12) // only the seed fits on the CDN
	mustJoin(t, m, viewerN(0, 12, 12), 0)
	res := mustJoin(t, m, viewerN(1, 12, 0), 0)
	if !res.Admitted {
		t.Fatal("leaf rejected")
	}
	// Degrade the path so the leaf's layer blows past d_max − Δ = 5 s.
	// The CDN is full, so delay-layer adaptation must drop the leaf's
	// subscriptions rather than re-provision them.
	prop.degrade("v0001", 6*time.Second)
	m.RefreshAll()
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	leaf, _ := m.Viewer("v0001")
	if len(leaf.Nodes) != 0 {
		t.Fatalf("leaf kept %d streams beyond d_max with a full CDN", len(leaf.Nodes))
	}
}

func TestInsertFIFOOnlyFillsFreeSlots(t *testing.T) {
	tree := newTestTree(t, constProp(20*time.Millisecond))
	root := mkNode(tree, "root", 1)
	tree.AttachToCDN(root)
	weakLeaf := mkNode(tree, "weak", 0)
	if !tree.InsertFIFO(weakLeaf) {
		t.Fatal("free slot refused")
	}
	// A strong joiner that degree push-down would have placed at the
	// root is refused by FIFO: no free slots remain.
	strong := mkNode(tree, "strong", 9)
	if tree.InsertFIFO(strong) {
		t.Fatal("FIFO displaced a node")
	}
	if placed, _ := tree.Insert(strong); !placed {
		t.Fatal("push-down should still place it")
	}
	requireValid(t, tree)
}

// TestInsertFIFODuplicateRefused pins the tree's half of the one-node-per-
// viewer contract: Insert and InsertFIFO refuse a node the tree already
// tracks. A second node of the same viewer is not the tree's to refuse — the
// manager never builds one (ErrViewerExists) — but validate names it.
func TestInsertFIFODuplicateRefused(t *testing.T) {
	tree := newTestTree(t, constProp(20*time.Millisecond))
	root := mkNode(tree, "root", 3)
	tree.AttachToCDN(root)
	n := mkNode(tree, "n", 0)
	if !tree.InsertFIFO(n) {
		t.Fatal("first insert failed")
	}
	if tree.InsertFIFO(n) {
		t.Fatal("InsertFIFO re-inserted a tracked node")
	}
	if placed, _ := tree.Insert(n); placed {
		t.Fatal("Insert re-inserted a tracked node")
	}
	requireValid(t, tree)

	if !tree.InsertFIFO(mkNode(tree, "n", 0)) {
		t.Fatal("a second node of the viewer found no free slot")
	}
	err := tree.validate()
	if err == nil || err.Error() != errDuplicateNode("n").Error() {
		t.Fatalf("validate = %v, want %v", err, errDuplicateNode("n"))
	}
}

func TestMeanTreeDepthAndCDNImplied(t *testing.T) {
	m := newTestManager(t, 6000)
	if m.MeanTreeDepth() != 0 {
		t.Error("empty overlay has depth")
	}
	mustJoin(t, m, viewerN(0, 12, 12), 0)
	mustJoin(t, m, viewerN(1, 12, 0), 0)
	depth := m.MeanTreeDepth()
	if depth < 1 || depth > 2 {
		t.Errorf("mean depth = %v, want within [1,2]", depth)
	}
	implied := m.CDNImplied()
	var total float64
	for _, mbps := range implied {
		total += mbps
	}
	if usage := m.CDN().Snapshot().OutTotalMbps; total != usage {
		t.Errorf("implied %v != accounted %v", total, usage)
	}
}

func TestSetOutboundPolicyHook(t *testing.T) {
	m := newTestManager(t, 6000)
	called := false
	m.SetOutboundPolicy(func(accepted []model.RankedStream, outboundMbps float64) OutboundAllocation {
		called = true
		return AllocateOutbound(accepted, outboundMbps)
	})
	mustJoin(t, m, viewerN(0, 12, 12), 0)
	if !called {
		t.Fatal("policy hook not invoked")
	}
	m.SetOutboundPolicy(nil) // restore default
	mustJoin(t, m, viewerN(1, 12, 12), 0)
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestDumpTreesDeterministic(t *testing.T) {
	m := newTestManager(t, 6000)
	mustJoin(t, m, viewerN(0, 12, 12), 0)
	mustJoin(t, m, viewerN(1, 12, 6), 0)
	mustJoin(t, m, viewerN(2, 12, 0), 0)
	a := m.DumpTrees()
	b := m.DumpTrees()
	if a != b {
		t.Fatal("dump not deterministic")
	}
	for _, want := range []string{"group ", "stream S", "v0000", "v0002", "parent="} {
		if !strings.Contains(a, want) {
			t.Fatalf("dump missing %q:\n%s", want, a)
		}
	}
	// Every live viewer appears once per accepted stream.
	count := strings.Count(a, "v0001 ")
	v1, _ := m.Viewer("v0001")
	if count != len(v1.Nodes) {
		t.Fatalf("v0001 appears %d times, has %d streams", count, len(v1.Nodes))
	}
}
