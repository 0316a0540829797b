package session

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"telecast/internal/cdn"
	"telecast/internal/model"
	"telecast/internal/trace"
)

// testCtx is the background context threaded through test operations.
var testCtx = context.Background()

// testController builds a two-site controller over an n-node matrix with the
// given CDN egress bound, refined by opts.
func testController(t *testing.T, nodes int, cdnCapMbps float64, opts ...Option) *Controller {
	t.Helper()
	producers, err := model.NewSession(
		model.NewRingSite("A", 8, 2.0, 10),
		model.NewRingSite("B", 8, 2.0, 10),
	)
	if err != nil {
		t.Fatal(err)
	}
	lat, err := trace.GenerateLatencyMatrix(trace.DefaultLatencyConfig(nodes, 11))
	if err != nil {
		t.Fatal(err)
	}
	cdnCfg := cdn.DefaultConfig()
	cdnCfg.OutboundCapacityMbps = cdnCapMbps
	c, err := NewController(producers, lat, append([]Option{WithCDN(cdnCfg)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// joinTolerant joins a viewer, treating admission rejection as success for
// tests that exercise capacity-bounded sessions.
func joinTolerant(t *testing.T, c *Controller, id model.ViewerID, in, out float64, view model.View) *JoinOutcome {
	t.Helper()
	outcome, err := c.Join(testCtx, id, in, out, view)
	if err != nil && !errors.Is(err, ErrRejected) {
		t.Fatalf("join %s: %v", id, err)
	}
	return outcome
}

func vid(i int) model.ViewerID { return model.ViewerID(fmt.Sprintf("v%04d", i)) }

func TestNewControllerValidation(t *testing.T) {
	producers, _ := model.NewSession(model.NewRingSite("A", 4, 2, 10))
	if _, err := NewController(nil, nil); err == nil {
		t.Error("nil producers accepted")
	}
	if _, err := NewController(producers, nil); err == nil {
		t.Error("nil latency matrix accepted")
	}
	lat, _ := trace.GenerateLatencyMatrix(trace.LatencyConfig{
		Nodes: 4, Regions: 8, IntraMean: time.Millisecond, InterMean: time.Millisecond, Sigma: 0.1, Seed: 1,
	})
	if _, err := NewController(producers, lat); err == nil {
		t.Error("matrix smaller than region count accepted")
	}
}

func TestJoinRecordsProtocolDelay(t *testing.T) {
	c := testController(t, 64, 6000)
	view := model.NewUniformView(c.cfg.Producers, 0)
	out, err := c.Join(testCtx, vid(1), 12, 8, view)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Result.Admitted {
		t.Fatal("rejected")
	}
	if out.Delay <= 0 {
		t.Fatalf("delay = %v", out.Delay)
	}
	// 6 one-way legs + processing: should be well under the paper's
	// 1.5 s ceiling for a single CDN-served viewer.
	if out.Delay > 3*time.Second {
		t.Fatalf("implausible join delay %v", out.Delay)
	}
}

func TestJoinDuplicateAndExhaustion(t *testing.T) {
	c := testController(t, 12, 6000) // 8 regions + GSC → 3 viewer slots
	view := model.NewUniformView(c.cfg.Producers, 0)
	if _, err := c.Join(testCtx, vid(1), 12, 0, view); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Join(testCtx, vid(1), 12, 0, view); !errors.Is(err, ErrViewerExists) {
		t.Errorf("duplicate join: err = %v, want ErrViewerExists", err)
	}
	for i := 2; ; i++ {
		if _, err := c.Join(testCtx, vid(i), 12, 0, view); err != nil {
			if !errors.Is(err, ErrMatrixExhausted) {
				t.Fatalf("exhaustion err = %v, want ErrMatrixExhausted", err)
			}
			if i < 3 {
				t.Fatalf("matrix exhausted too early at %d", i)
			}
			break
		}
		if i > 10 {
			t.Fatal("matrix never exhausted")
		}
	}
}

func TestJoinsAcrossLSCsShareCDNCapacity(t *testing.T) {
	c := testController(t, 128, 24) // room for exactly 2 full viewers
	view := model.NewUniformView(c.cfg.Producers, 0)
	admitted := 0
	for i := 0; i < 6; i++ {
		out, err := c.Join(testCtx, vid(i), 12, 0, view)
		if err != nil {
			// Rejections carry the outcome and a typed cause.
			var rej *RejectionError
			if !errors.As(err, &rej) {
				t.Fatal(err)
			}
			if rej.Reason == ReasonNone {
				t.Errorf("rejection of %s has no reason", vid(i))
			}
			if out == nil || out.Result.Admitted {
				t.Fatalf("rejected join %s: outcome %v", vid(i), out)
			}
			continue
		}
		if out.Result.Admitted {
			admitted++
		}
	}
	// With zero outbound everywhere, exactly 2 viewers fit in 24 Mbps
	// regardless of which LSC they landed on... unless a viewer was
	// admitted with fewer streams; in any case CDN must never exceed cap.
	if usage := c.CDN().Snapshot(); usage.OutTotalMbps > 24+1e-9 {
		t.Fatalf("cdn over capacity: %v", usage.OutTotalMbps)
	}
	if admitted < 2 {
		t.Fatalf("admitted %d, want >= 2", admitted)
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestLeaveAndRejoin(t *testing.T) {
	c := testController(t, 64, 6000)
	view := model.NewUniformView(c.cfg.Producers, 0)
	if _, err := c.Join(testCtx, vid(1), 12, 12, view); err != nil {
		t.Fatal(err)
	}
	if err := c.Leave(testCtx, vid(1)); err != nil {
		t.Fatal(err)
	}
	if err := c.Leave(testCtx, vid(1)); !errors.Is(err, ErrUnknownViewer) {
		t.Errorf("double leave: err = %v, want ErrUnknownViewer", err)
	}
	if _, err := c.Join(testCtx, vid(1), 12, 12, view); err != nil {
		t.Fatalf("rejoin failed: %v", err)
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestChangeViewFastPath(t *testing.T) {
	c := testController(t, 64, 6000)
	view0 := model.NewUniformView(c.cfg.Producers, 0)
	view1 := model.NewUniformView(c.cfg.Producers, math.Pi/2)
	if _, err := c.Join(testCtx, vid(1), 12, 8, view0); err != nil {
		t.Fatal(err)
	}
	out, err := c.ChangeView(testCtx, vid(1), view1)
	if err != nil {
		t.Fatal(err)
	}
	if !out.FastPathUsed {
		t.Fatal("ample CDN should enable the fast path")
	}
	if out.SwitchDelay <= 0 || out.SwitchDelay >= out.BackgroundDelay {
		t.Fatalf("switch %v should beat background %v", out.SwitchDelay, out.BackgroundDelay)
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestChangeViewWithoutCDNBudgetFallsBack(t *testing.T) {
	c := testController(t, 64, 12, WithStrictFastPath(true))
	view0 := model.NewUniformView(c.cfg.Producers, 0)
	view1 := model.NewUniformView(c.cfg.Producers, math.Pi/2)
	if _, err := c.Join(testCtx, vid(1), 12, 12, view0); err != nil {
		t.Fatal(err)
	}
	out, err := c.ChangeView(testCtx, vid(1), view1)
	if err != nil {
		t.Fatal(err)
	}
	if out.FastPathUsed {
		t.Fatal("full CDN cannot serve the fast path")
	}
	if out.SwitchDelay != out.BackgroundDelay {
		t.Fatal("without fast path, switch waits for the background join")
	}
}

func TestChangeViewUnknownViewer(t *testing.T) {
	c := testController(t, 64, 6000)
	if _, err := c.ChangeView(testCtx, "ghost", model.NewUniformView(c.cfg.Producers, 0)); !errors.Is(err, ErrUnknownViewer) {
		t.Errorf("ghost view change: err = %v, want ErrUnknownViewer", err)
	}
}

func TestStatsAggregateAcrossLSCs(t *testing.T) {
	c := testController(t, 256, 6000)
	view := model.NewUniformView(c.cfg.Producers, 0)
	n := 40
	for i := 0; i < n; i++ {
		if _, err := c.Join(testCtx, vid(i), 12, 8, view); err != nil {
			t.Fatal(err)
		}
	}
	st := c.Stats()
	if st.Overlay.Viewers != n {
		t.Fatalf("viewers = %d, want %d", st.Overlay.Viewers, n)
	}
	if st.Overlay.StreamsRequested != 6*n {
		t.Fatalf("requested = %d", st.Overlay.StreamsRequested)
	}
	if st.Overlay.LiveStreams != st.Overlay.ViaCDN+st.Overlay.ViaP2P {
		t.Fatal("live != cdn + p2p")
	}
	if len(st.Overlay.AcceptedPerViewer) != n {
		t.Fatalf("accepted-per-viewer samples = %d", len(st.Overlay.AcceptedPerViewer))
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestSessionChurnKeepsGlobalInvariants(t *testing.T) {
	c := testController(t, 512, 400)
	rng := rand.New(rand.NewSource(5))
	angles := []float64{0, math.Pi / 2, math.Pi}
	live := []int{}
	next := 0
	for step := 0; step < 250; step++ {
		switch op := rng.Intn(10); {
		case op < 6 || len(live) == 0:
			view := model.NewUniformView(c.cfg.Producers, angles[rng.Intn(3)])
			if _, err := c.Join(testCtx, vid(next), 12, float64(rng.Intn(15)), view); err != nil && !errors.Is(err, ErrRejected) {
				t.Fatalf("step %d: %v", step, err)
			}
			live = append(live, next)
			next++
		case op < 8:
			i := rng.Intn(len(live))
			if err := c.Leave(testCtx, vid(live[i])); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
			live = append(live[:i], live[i+1:]...)
		default:
			i := rng.Intn(len(live))
			view := model.NewUniformView(c.cfg.Producers, angles[rng.Intn(3)])
			if _, err := c.ChangeView(testCtx, vid(live[i]), view); err != nil && !errors.Is(err, ErrRejected) {
				t.Fatalf("step %d: %v", step, err)
			}
		}
		if step%25 == 0 {
			if err := c.Validate(); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
		}
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.Overlay.CDNUsage.OutTotalMbps > 400+1e-9 {
		t.Fatalf("cdn over cap: %v", st.Overlay.CDNUsage.OutTotalMbps)
	}
}
