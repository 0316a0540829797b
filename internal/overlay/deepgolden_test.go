package overlay

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"testing"
	"time"

	"telecast/internal/cdn"
	"telecast/internal/model"
)

var updateDeepGolden = flag.Bool("update", false, "rewrite the deep overlay golden file")

const deepGoldenPath = "testdata/deep_overlay.golden.json"

// deepGolden is what the deep overlay golden pins: the SHA-256 of the
// encoded ExportState at every checkpoint, and the changed-node count of
// every RefreshAll. ExportState carries every parent edge, child order and
// κ-layer, so equal hashes mean every placement, displacement, recovery and
// subscription decision so far was the same.
type deepGolden struct {
	Checkpoints []deepCheckpoint `json:"checkpoints"`
	Refreshes   []deepRefresh    `json:"refreshes"`
}

type deepCheckpoint struct {
	Op     int    `json:"op"`
	SHA256 string `json:"sha256"`
}

type deepRefresh struct {
	Op      int `json:"op"`
	Changed int `json:"changed"`
}

// deepShape is one deep-shaped run of the golden.
type deepShape struct {
	name string
	// sites and streams size the session: streams per site, every one of
	// them in the view, so a viewer holds one node in each of sites×streams
	// trees.
	sites, streams int
	// outMbps bounds the outbound capacity draw, [0, outMbps).
	outMbps int
	// cdnMbps bounds the CDN egress; 0 is unbounded.
	cdnMbps float64
	// randomLeaves and viewChanges switch on the churn mix's random leaves
	// and view changes; without them churn only joins.
	randomLeaves, viewChanges bool
}

// runDeepGolden drives one seeded run shaped like the deep.local-single
// benchmark: every viewer on one view, so one group's trees hold the whole
// audience, built to 5200 viewers and then churned. The schedule is:
//
//   - build: 5200 joins;
//   - churn: 4000 ops, 40 % join, 40 % leave of a random known viewer, 20 %
//     view change (re-admission into the same view); a shape without
//     random leaves or view changes joins instead;
//   - mid-churn, one delay drift (+250 ms on 40 viewers' access links)
//     followed by RefreshAll, then a RefreshAll with nothing drifted;
//   - mid-churn, an ExportState → Restore round trip onto a fresh
//     CDN, after which the restored manager carries on;
//   - drain: 2500 leaves in join order.
//
// Validate runs at every checkpoint (every 500 ops) and after each
// refresh and the restore.
func runDeepGolden(t *testing.T, shape deepShape) deepGolden {
	t.Helper()
	const (
		build = 5200
		churn = 4000
		drain = 2500
		every = 500
	)
	var sites []model.Site
	for i := 0; i < shape.sites; i++ {
		sites = append(sites, model.NewRingSite(model.SiteID(rune('A'+i)), shape.streams, 2.0, 10))
	}
	s, err := model.NewSession(sites...)
	if err != nil {
		t.Fatal(err)
	}
	params := testParams(t)
	params.CutoffDF = -1
	prop := newMutableProp(0)
	prop.pairs = purePropFunc()
	newCDN := func() *cdn.CDN {
		return cdn.New(cdn.Config{OutboundCapacityMbps: shape.cdnMbps, Delta: 60 * time.Second})
	}
	m, err := NewManager(s, newCDN(), prop.fn, params)
	if err != nil {
		t.Fatal(err)
	}
	view := model.NewUniformView(s, 0)
	rng := rand.New(rand.NewSource(27))

	var rec deepGolden
	op := 0
	validate := func(when string) {
		t.Helper()
		if err := m.Validate(); err != nil {
			t.Fatalf("op %d (%s): %v", op, when, err)
		}
	}
	export := func() []byte {
		t.Helper()
		b, err := m.ExportState().Encode()
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	step := func() {
		t.Helper()
		op++
		if op%every != 0 {
			return
		}
		validate("checkpoint")
		sum := sha256.Sum256(export())
		rec.Checkpoints = append(rec.Checkpoints, deepCheckpoint{Op: op, SHA256: hex.EncodeToString(sum[:])})
	}
	refresh := func() {
		t.Helper()
		rec.Refreshes = append(rec.Refreshes, deepRefresh{Op: op, Changed: m.RefreshAll()})
		validate("refresh")
	}

	// known lists every viewer the manager holds a record of, admitted or
	// rejected. Leaves swap-delete, so its order is a function of the seed.
	var known []model.ViewerID
	next := 0
	join := func() {
		t.Helper()
		info := ViewerInfo{
			ID:           model.ViewerID(fmt.Sprintf("g%05d", next)),
			InboundMbps:  float64(2 * shape.sites * shape.streams),
			OutboundMbps: float64(rng.Intn(shape.outMbps)),
		}
		next++
		if _, err := m.Join(info, view); err != nil {
			t.Fatalf("op %d join %s: %v", op, info.ID, err)
		}
		known = append(known, info.ID)
		step()
	}

	for i := 0; i < build; i++ {
		join()
	}
	for i := 0; i < churn; i++ {
		switch r := rng.Intn(10); {
		case r < 4 || (r < 8 && !shape.randomLeaves) || (r >= 8 && !shape.viewChanges):
			join()
		case r < 8:
			j := rng.Intn(len(known))
			id := known[j]
			known[j] = known[len(known)-1]
			known = known[:len(known)-1]
			if err := m.Leave(id); err != nil {
				t.Fatalf("op %d leave %s: %v", op, id, err)
			}
			step()
		default:
			id := known[rng.Intn(len(known))]
			if _, err := m.ChangeView(id, view); err != nil {
				t.Fatalf("op %d view change %s: %v", op, id, err)
			}
			step()
		}
		switch i {
		case churn / 4:
			for j := 0; j < 40; j++ {
				prop.degrade(known[rng.Intn(len(known))], 250*time.Millisecond)
			}
			refresh()
			refresh() // nothing drifted since: must change nothing
		case churn / 2:
			before := export()
			st, err := DecodeShardState(before)
			if err != nil {
				t.Fatal(err)
			}
			restored, err := restoreManager(s, newCDN(), prop.fn, params, st)
			if err != nil {
				t.Fatalf("op %d restore: %v", op, err)
			}
			m = restored
			if !bytes.Equal(before, export()) {
				t.Fatalf("op %d: restored state differs from the export", op)
			}
			validate("restore")
		}
	}
	sort.Slice(known, func(i, j int) bool { return known[i] < known[j] }) // join order
	for _, id := range known[:drain] {
		if err := m.Leave(id); err != nil {
			t.Fatalf("op %d drain leave %s: %v", op, id, err)
		}
		step()
	}
	validate("end")
	if got := m.Snapshot().ResubscribeExhausted; got != 0 {
		t.Fatalf("subscription budget ran dry %d times; the golden must not depend on item-6 cycles", got)
	}
	return rec
}

// deepShapes are the golden's runs. Both are deterministic per seed, which
// is what a golden needs: the overlay walks a viewer's Nodes map in Go map
// order when it re-subscribes (ROADMAP item 6), and with more than one tree
// per viewer a random leave, a view change or a bounded CDN makes the
// outcome depend on that order. So the bounded-CDN shape, which drives
// victim recovery down all three paths (reattached, re-rooted,
// cascade-dropped) plus d_max re-rooting and drops, keeps one tree per
// viewer; and the six-tree shape, which drives κ layer push-downs across
// trees, churns by joins only and drains in join order on an unbounded CDN.
var deepShapes = []deepShape{
	{name: "one-tree-bounded", sites: 1, streams: 1, outMbps: 5, cdnMbps: 200, randomLeaves: true, viewChanges: true},
	{name: "six-tree-unbounded", sites: 2, streams: 3, outMbps: 13},
}

// TestDeepOverlayMatchesGolden pins the overlay's behaviour on a deep-shaped
// run byte for byte. It exists so that a change to the tree's bookkeeping —
// how delays are cached, how far a refresh walks, how membership is kept —
// can prove it changed no decision. Regenerate with -update only for a
// reviewed behaviour change.
func TestDeepOverlayMatchesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("two 11700-op deep-tree runs")
	}
	// It builds its own trees and shares nothing with other tests, so it
	// overlaps the other long test of the package instead of following it.
	t.Parallel()
	runs := make(map[string]deepGolden)
	for _, shape := range deepShapes {
		runs[shape.name] = runDeepGolden(t, shape)
	}
	got, err := json.MarshalIndent(runs, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	if *updateDeepGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(deepGoldenPath, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(deepGoldenPath)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if !bytes.Equal(got, want) {
		gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if !bytes.Equal(gl[i], wl[i]) {
				t.Fatalf("deep overlay run differs from %s at line %d:\n got: %s\nwant: %s", deepGoldenPath, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("deep overlay run differs from %s in length", deepGoldenPath)
	}
}
