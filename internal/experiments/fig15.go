package experiments

import (
	"fmt"
	"math/rand"

	"telecast/internal/cdn"
	"telecast/internal/model"
)

// Fig15Row compares TeleCast and Random acceptance at one sweep point.
type Fig15Row struct {
	// X is the sweep coordinate: outbound Mbps per viewer (15a) or the
	// viewer count (15b).
	X        float64
	TeleCast float64
	Random   float64
}

// Fig15Result is one comparison series.
type Fig15Result struct {
	Figure string
	Rows   []Fig15Row
}

// runRandomScenario joins n viewers through the baseline router with the
// same CDN budget, inbound capacity, and view mix as the TeleCast runs.
func (s Setup) runRandomScenario(n int, obw OutboundSpec, cdnCapMbps float64) (randomSnapshot, error) {
	producers, err := s.producers()
	if err != nil {
		return randomSnapshot{}, err
	}
	dist := cdn.New(cdn.Config{OutboundCapacityMbps: cdnCapMbps, Delta: evalDelta})
	rng := rand.New(rand.NewSource(s.Seed))
	router, err := newRandomRouter(producers, dist, rng, s.CutoffDF)
	if err != nil {
		return randomSnapshot{}, err
	}
	for i := 0; i < n; i++ {
		angle := s.ViewAngles[i%len(s.ViewAngles)]
		view := model.NewUniformView(producers, angle)
		if _, err := router.join(viewerID(i), s.InboundMbps, obw.Draw(rng), view); err != nil {
			return randomSnapshot{}, fmt.Errorf("random join %d: %w", i, err)
		}
	}
	return router.snapshot(), nil
}

// RunFig15a sweeps the per-viewer outbound bandwidth from 0 to 10 Mbps at
// 1000 viewers and compares acceptance ratios (Fig 15a). The paper reports
// TeleCast gaining about 20 percentage points over Random.
func RunFig15a(setup Setup) (Fig15Result, error) {
	const cdnCap = 6000
	res := Fig15Result{Figure: "15a"}
	for _, obw := range []float64{0, 2, 4, 6, 8, 10} {
		spec := FixedObw(obw)
		tc, err := setup.runScenario(setup.Audience, spec, cdnCap)
		if err != nil {
			return Fig15Result{}, fmt.Errorf("fig15a obw=%v telecast: %w", obw, err)
		}
		rd, err := setup.runRandomScenario(setup.Audience, spec, cdnCap)
		if err != nil {
			return Fig15Result{}, fmt.Errorf("fig15a obw=%v random: %w", obw, err)
		}
		res.Rows = append(res.Rows, Fig15Row{
			X:        obw,
			TeleCast: tc.Overlay.AcceptanceRatio(),
			Random:   rd.AcceptanceRatio(),
		})
	}
	return res, nil
}

// RunFig15b scales the audience from 100 to 1000 viewers with outbound
// capacities uniform in [2,14] Mbps (Fig 15b). The paper reports TeleCast at
// 98–99% acceptance versus 80–88% for Random.
func RunFig15b(setup Setup) (Fig15Result, error) {
	const cdnCap = 6000
	spec := UniformObw(2, 14)
	res := Fig15Result{Figure: "15b"}
	for _, n := range setup.Sizes {
		tc, err := setup.runScenario(n, spec, cdnCap)
		if err != nil {
			return Fig15Result{}, fmt.Errorf("fig15b n=%d telecast: %w", n, err)
		}
		rd, err := setup.runRandomScenario(n, spec, cdnCap)
		if err != nil {
			return Fig15Result{}, fmt.Errorf("fig15b n=%d random: %w", n, err)
		}
		res.Rows = append(res.Rows, Fig15Row{
			X:        float64(n),
			TeleCast: tc.Overlay.AcceptanceRatio(),
			Random:   rd.AcceptanceRatio(),
		})
	}
	return res, nil
}
