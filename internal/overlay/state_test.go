package overlay

import (
	"bytes"
	"testing"
	"time"

	"telecast/internal/cdn"
	"telecast/internal/model"
)

// restoreManager rebuilds an exported state onto a fresh manager.
func restoreManager(s *model.Session, dist *cdn.CDN, prop PropFunc, params Params, st *ShardState) (*Manager, error) {
	m, err := NewManager(s, dist, prop, params)
	if err != nil {
		return nil, err
	}
	if err := m.Restore(st); err != nil {
		return nil, err
	}
	return m, nil
}

// purePropFunc returns a deterministic, stateless propagation function: a
// symmetric hash of the two viewer IDs. Unlike newTestManager's memoized
// jitter it computes identical delays in any call order, so an original
// manager and its restored twin see the same landscape.
func purePropFunc() PropFunc {
	return func(a, b model.ViewerID) time.Duration {
		if a > b {
			a, b = b, a
		}
		h := uint32(2166136261)
		for i := 0; i < len(a); i++ {
			h = (h ^ uint32(a[i])) * 16777619
		}
		for i := 0; i < len(b); i++ {
			h = (h ^ uint32(b[i])) * 16777619
		}
		return time.Duration(10+h%90) * time.Millisecond
	}
}

func newStateTestManager(t *testing.T, cdnCapMbps float64) (*Manager, *model.Session) {
	t.Helper()
	s, err := model.NewSession(
		model.NewRingSite("A", 8, 2.0, 10),
		model.NewRingSite("B", 8, 2.0, 10),
	)
	if err != nil {
		t.Fatal(err)
	}
	dist := cdn.New(cdn.Config{OutboundCapacityMbps: cdnCapMbps, Delta: 60 * time.Second})
	m, err := NewManager(s, dist, purePropFunc(), testParams(t))
	if err != nil {
		t.Fatal(err)
	}
	return m, s
}

// populateStateTest drives a mixed churn through the manager so the exported
// state carries every shape serialization must cover: multiple groups, deep
// trees, departed victims, rejected records, view-change group moves.
func populateStateTest(t *testing.T, m *Manager, s *model.Session) {
	t.Helper()
	angles := []float64{0, 1.1, 2.3}
	for i := 0; i < 36; i++ {
		info := viewerN(i, 14, float64(i%9))
		if _, err := m.Join(info, model.NewUniformView(s, angles[i%len(angles)])); err != nil {
			t.Fatalf("join %s: %v", info.ID, err)
		}
	}
	for i := 0; i < 36; i += 6 {
		if err := m.Leave(viewerN(i, 0, 0).ID); err != nil {
			t.Fatalf("leave %d: %v", i, err)
		}
	}
	for i := 1; i < 36; i += 9 {
		if _, err := m.ChangeView(viewerN(i, 0, 0).ID, model.NewUniformView(s, angles[(i+1)%len(angles)])); err != nil {
			t.Fatalf("change view %d: %v", i, err)
		}
	}
	if err := m.Validate(); err != nil {
		t.Fatalf("populated manager invalid: %v", err)
	}
}

// TestExportRestoreExportByteIdentical is the golden round trip the state
// format pins: Export → Restore → Export must produce byte-identical
// encodings, proving the restore path rebuilds the exact logical state (tree
// shapes, κ-layers, counters, rejected records) on fresh slabs.
func TestExportRestoreExportByteIdentical(t *testing.T) {
	m, s := newStateTestManager(t, 6000)
	populateStateTest(t, m, s)

	st1 := m.ExportState()
	b1, err := st1.Encode()
	if err != nil {
		t.Fatal(err)
	}

	dist2 := cdn.New(cdn.Config{OutboundCapacityMbps: 6000, Delta: 60 * time.Second})
	m2, err := restoreManager(s, dist2, purePropFunc(), testParams(t), st1)
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	st2 := m2.ExportState()
	b2, err := st2.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatalf("round trip not byte-identical:\n export 1: %s\n export 2: %s", b1, b2)
	}

	// The encoding itself must round-trip through Decode too.
	dec, err := DecodeShardState(b1)
	if err != nil {
		t.Fatal(err)
	}
	b3, err := dec.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1, b3) {
		t.Fatal("decode → encode not byte-identical")
	}
}

// TestRestoreLiveAfterRoundTrip checks the restored manager is not just a
// byte-equal museum piece: it keeps admitting and departing viewers.
func TestRestoreLiveAfterRoundTrip(t *testing.T) {
	m, s := newStateTestManager(t, 6000)
	populateStateTest(t, m, s)

	dist2 := cdn.New(cdn.Config{OutboundCapacityMbps: 6000, Delta: 60 * time.Second})
	m2, err := restoreManager(s, dist2, purePropFunc(), testParams(t), m.ExportState())
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	res, err := m2.Join(viewerN(500, 14, 6), model.NewUniformView(s, 0.7))
	if err != nil || !res.Admitted {
		t.Fatalf("restored shard refused a join: res=%+v err=%v", res, err)
	}
	if err := m2.Leave(viewerN(1, 0, 0).ID); err != nil {
		t.Fatalf("restored shard refused a leave: %v", err)
	}
	if err := m2.Validate(); err != nil {
		t.Fatalf("restored shard invalid after churn: %v", err)
	}
}

// TestRestoreStrictOnShrunkenCDN pins the failure contract: restoring into a
// substrate that cannot cover the snapshot's implied egress fails with every
// partial reservation released, leaving the substrate untouched.
func TestRestoreStrictOnShrunkenCDN(t *testing.T) {
	m, s := newStateTestManager(t, 6000)
	populateStateTest(t, m, s)
	st := m.ExportState()

	tiny := cdn.New(cdn.Config{OutboundCapacityMbps: 2, Delta: 60 * time.Second})
	before := tiny.RemainingMbps()
	if _, err := restoreManager(s, tiny, purePropFunc(), testParams(t), st); err == nil {
		t.Fatal("restore into a 2 Mbps CDN succeeded")
	}
	if after := tiny.RemainingMbps(); after != before {
		t.Fatalf("failed restore leaked CDN egress: remaining %v -> %v", before, after)
	}
}
