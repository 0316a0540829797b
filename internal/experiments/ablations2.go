package experiments

import (
	"fmt"
	"math"
	"math/rand"

	"telecast/internal/cdn"
	"telecast/internal/model"
	"telecast/internal/overlay"
	"telecast/internal/session"
	"telecast/internal/trace"
	"telecast/internal/workload"
)

// AblationFadeRow compares the ℜ = τr push-down offset (positions a pushed-
// down viewer at the top of its layer so push-downs fade out, §V-B3)
// against the naive bottom-of-layer placement, ℜ = 0.
type AblationFadeRow struct {
	Viewers int
	// MeanMaxLayer is the mean over viewers of the maximum assigned
	// layer: bottom-of-layer placement compounds delay down the chains
	// and drives layers up.
	FadeMeanMaxLayer  float64
	NaiveMeanMaxLayer float64
}

// RunAblationLayerFade sweeps the audience and measures the layer inflation
// caused by dropping the fade-out offset.
func RunAblationLayerFade(setup Setup) ([]AblationFadeRow, error) {
	var rows []AblationFadeRow
	for _, n := range []int{200, 600, 1000} {
		row := AblationFadeRow{Viewers: n}
		for _, naive := range []bool{false, true} {
			mgr, producers, err := setup.newAblationManagerOffset(6000, naive)
			if err != nil {
				return nil, err
			}
			rng := rand.New(rand.NewSource(setup.Seed))
			spec := UniformObw(0, 12)
			for i := 0; i < n; i++ {
				view := model.NewUniformView(producers, setup.ViewAngles[i%len(setup.ViewAngles)])
				info := overlay.ViewerInfo{
					ID:           model.ViewerID(fmt.Sprintf("v%05d", i)),
					InboundMbps:  setup.InboundMbps,
					OutboundMbps: spec.Draw(rng),
				}
				if _, err := mgr.Join(info, view); err != nil {
					return nil, err
				}
			}
			if err := mgr.Validate(); err != nil {
				return nil, fmt.Errorf("ablation fade invariants: %w", err)
			}
			mean := meanMaxLayer(mgr)
			if naive {
				row.NaiveMeanMaxLayer = mean
			} else {
				row.FadeMeanMaxLayer = mean
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}

func meanMaxLayer(mgr *overlay.Manager) float64 {
	snap := mgr.Snapshot()
	if len(snap.MaxLayerPerViewer) == 0 {
		return 0
	}
	total := 0
	for _, l := range snap.MaxLayerPerViewer {
		total += l
	}
	return float64(total) / float64(len(snap.MaxLayerPerViewer))
}

// newAblationManagerOffset builds a bare manager with the fade-out offset
// either at the paper's ℜ=τr or the naive ℜ=0.
func (s Setup) newAblationManagerOffset(cdnCapMbps float64, naive bool) (*overlay.Manager, *model.Session, error) {
	mgr, producers, err := s.newAblationManager(cdnCapMbps)
	if err != nil {
		return nil, nil, err
	}
	if !naive {
		return mgr, producers, nil
	}
	// Rebuild with offset 0: Params are constructor-time state.
	producers2, err := s.producers()
	if err != nil {
		return nil, nil, err
	}
	zero := 0.0
	mgr2, err := s.buildManager(producers2, cdnCapMbps, &zero)
	if err != nil {
		return nil, nil, err
	}
	return mgr2, producers2, nil
}

// AblationViewChangeRow contrasts the two-phase view change (instant CDN
// fast path hiding the background join, §VI) with a plain re-join.
type AblationViewChangeRow struct {
	// TwoPhaseP95 and PlainP95 are the 95th-percentile perceived
	// view-change latencies in seconds.
	TwoPhaseP95 float64
	PlainP95    float64
	// TwoPhaseMedian and PlainMedian are the medians in seconds.
	TwoPhaseMedian float64
	PlainMedian    float64
}

// RunAblationViewChange measures the latency the fast path buys. Both modes
// run the identical workload; "plain" disables the CDN fast path so the
// perceived latency is the full join protocol.
func RunAblationViewChange(setup Setup) (AblationViewChangeRow, error) {
	var row AblationViewChangeRow
	for _, plain := range []bool{false, true} {
		lat, err := setup.lats.matrix(trace.DefaultLatencyConfig(setup.Audience+64, setup.Seed))
		if err != nil {
			return row, err
		}
		producers, err := setup.producers()
		if err != nil {
			return row, err
		}
		cdnCfg := cdn.DefaultConfig()
		cdnCfg.OutboundCapacityMbps = 1 // effectively no CDN headroom
		if !plain {
			cdnCfg.OutboundCapacityMbps = 6000
		}
		ctrl, err := session.NewController(producers, lat,
			session.WithCutoffDF(setup.CutoffDF),
			session.WithCDN(cdnCfg),
			session.WithStrictFastPath(plain)) // strict + no headroom ⇒ never fast
		if err != nil {
			return row, err
		}
		// With 1 Mbps of CDN the plain-mode audience must self-serve.
		rng := rand.New(rand.NewSource(setup.Seed))
		n := setup.Audience / 2
		events := joinEvents(n, UniformObw(8, 12), []float64{0}, rng)
		for i := 0; i < n/3; i++ {
			events = append(events, workload.Event{
				Kind:      workload.EventViewChange,
				Viewer:    viewerID(rng.Intn(n)),
				ViewAngle: math.Pi / 2,
			})
		}
		if err := setup.replay(ctrl, producers, "ablation-view-change", events); err != nil {
			return row, err
		}
		st := ctrl.Stats()
		if plain {
			row.PlainP95 = st.ViewChangeDelays.Quantile(0.95)
			row.PlainMedian = st.ViewChangeDelays.Quantile(0.5)
		} else {
			row.TwoPhaseP95 = st.ViewChangeDelays.Quantile(0.95)
			row.TwoPhaseMedian = st.ViewChangeDelays.Quantile(0.5)
		}
	}
	return row, nil
}
