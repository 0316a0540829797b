package experiments

import (
	"fmt"
	"math"
	"math/rand"

	"telecast/internal/metrics"
	"telecast/internal/workload"
)

// Fig14aResult is the distribution of the maximum delay layer across each
// viewer's accepted streams at 1000 viewers with C_obw ~ U[0,12] (Fig 14a).
type Fig14aResult struct {
	// Fraction[i] is the fraction of stream-receiving viewers whose
	// maximum accepted-stream layer is exactly i.
	Fraction []float64
	// Cumulative[i] is the fraction at layer ≤ i.
	Cumulative []float64
	// Layer0Share and AtMost4Share are the paper's headline numbers
	// (~30% at Layer-0, ~80% within Layer-4).
	Layer0Share  float64
	AtMost4Share float64
}

// RunFig14a reproduces the delay-layer distribution experiment.
func RunFig14a(setup Setup) (Fig14aResult, error) {
	stats, err := setup.runScenario(setup.Audience, UniformObw(0, 12), 6000)
	if err != nil {
		return Fig14aResult{}, fmt.Errorf("fig14a: %w", err)
	}
	hist := metrics.NewIntHistogram()
	for _, layer := range stats.Overlay.MaxLayerPerViewer {
		hist.Add(layer)
	}
	if hist.Total() == 0 {
		return Fig14aResult{}, fmt.Errorf("fig14a: no viewer received streams")
	}
	maxLayer := 0
	for _, v := range hist.Values() {
		if v > maxLayer {
			maxLayer = v
		}
	}
	res := Fig14aResult{
		Fraction:   make([]float64, maxLayer+1),
		Cumulative: make([]float64, maxLayer+1),
	}
	for l := 0; l <= maxLayer; l++ {
		res.Fraction[l] = hist.Fraction(l)
		res.Cumulative[l] = hist.CumulativeFraction(l)
	}
	res.Layer0Share = res.Cumulative[0]
	if maxLayer >= 4 {
		res.AtMost4Share = res.Cumulative[4]
	} else {
		res.AtMost4Share = 1
	}
	return res, nil
}

// Fig14bResult is the CDF of the number of accepted streams per viewer
// (Fig 14b): most viewers receive all 6; rejected viewers receive 0.
type Fig14bResult struct {
	// CumulativeByCount[k] is the fraction of viewers receiving ≤ k
	// streams, k = 0..RequestedStreams.
	CumulativeByCount []float64
	// AllStreamsShare is the fraction receiving the full request (>70%
	// in the paper); ZeroStreamsShare the fraction receiving none (~15%).
	AllStreamsShare  float64
	ZeroStreamsShare float64
}

// RunFig14b reproduces the accepted-stream-count distribution.
func RunFig14b(setup Setup) (Fig14bResult, error) {
	stats, err := setup.runScenario(setup.Audience, UniformObw(0, 12), 6000)
	if err != nil {
		return Fig14bResult{}, fmt.Errorf("fig14b: %w", err)
	}
	hist := metrics.NewIntHistogram()
	maxCount := 0
	for _, k := range stats.Overlay.AcceptedPerViewer {
		hist.Add(k)
		if k > maxCount {
			maxCount = k
		}
	}
	res := Fig14bResult{CumulativeByCount: make([]float64, maxCount+1)}
	for k := 0; k <= maxCount; k++ {
		res.CumulativeByCount[k] = hist.CumulativeFraction(k)
	}
	res.ZeroStreamsShare = hist.Fraction(0)
	res.AllStreamsShare = hist.Fraction(maxCount)
	return res, nil
}

// Fig14cResult carries the join and view-change latency CDFs (Fig 14c).
type Fig14cResult struct {
	JoinDelays       *metrics.CDF
	ViewChangeDelays *metrics.CDF
	// Join95th and ViewChange95th summarize the tails the paper quotes
	// (joins up to ~1.5 s; view changes within ~500 ms).
	Join95th       float64
	ViewChange95th float64
}

// RunFig14c joins 1000 viewers and performs 300 view changes, collecting the
// protocol latencies.
func RunFig14c(setup Setup) (Fig14cResult, error) {
	c, producers, err := setup.newController(6000)
	if err != nil {
		return Fig14cResult{}, err
	}
	rng := rand.New(rand.NewSource(setup.Seed))
	events := joinEvents(setup.Audience, UniformObw(0, 12), setup.ViewAngles, rng)
	for i := 0; i < setup.Audience/3; i++ {
		angle := math.Pi / 2
		if i%2 == 1 {
			angle = math.Pi
		}
		events = append(events, workload.Event{
			Kind:      workload.EventViewChange,
			Viewer:    viewerID(rng.Intn(setup.Audience)),
			ViewAngle: angle,
		})
	}
	run, err := setup.replay(c, producers, "fig14c", events)
	if err != nil {
		return Fig14cResult{}, err
	}
	if err := c.Validate(); err != nil {
		return Fig14cResult{}, fmt.Errorf("fig14c invariants: %w", err)
	}
	return Fig14cResult{
		JoinDelays:       &run.JoinDelays,
		ViewChangeDelays: &run.ViewChangeDelays,
		Join95th:         run.JoinDelays.Quantile(0.95),
		ViewChange95th:   run.ViewChangeDelays.Quantile(0.95),
	}, nil
}
