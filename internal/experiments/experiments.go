// Package experiments regenerates every figure of the paper's evaluation
// (§VII): the overlay-construction performance (Fig. 13a–c), the stream
// subscription behaviour and system overhead (Fig. 14a–c), and the
// comparison against Random dissemination (Fig. 15a–b), plus ablations of
// the design choices the paper motivates but does not measure separately
// (see ablations.go). Each runner returns typed rows; cmd/telecast-sim
// prints them and bench_test.go wraps them in testing.B benchmarks.
package experiments

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"telecast/internal/cdn"
	"telecast/internal/model"
	"telecast/internal/session"
	"telecast/internal/trace"
	"telecast/internal/workload"
)

// Setup fixes the evaluation parameters shared by all experiments; the zero
// value is not useful — start from DefaultSetup.
type Setup struct {
	// Seed drives every random choice (latency matrix, outbound draws).
	Seed int64
	// MaxViewers bounds the latency matrix size.
	MaxViewers int
	// Sites and StreamsPerSite describe the producers (2 × 8 in §VII).
	Sites          int
	StreamsPerSite int
	// StreamMbps is the per-stream bandwidth bound (2 Mbps).
	StreamMbps float64
	// FrameRate is the media rate r (10 fps for TEEVE captures).
	FrameRate float64
	// InboundMbps is every viewer's inbound capacity (12 Mbps).
	InboundMbps float64
	// CutoffDF keeps 3 of 8 ring cameras per site (0.5).
	CutoffDF float64
	// ViewAngles are the distinct views viewers request; a single angle
	// reproduces the paper's single-activity audience.
	ViewAngles []float64
	// Audience is the viewer count for the fixed-size experiments
	// (Fig 14, Fig 15a); the paper uses 1000.
	Audience int
	// Sizes is the viewer-count sweep for Fig 13 and Fig 15(b).
	Sizes []int

	// lats is the run's latency substrate: every experiment run from this
	// setup, or from a copy of it, shares the matrices it builds. Only
	// DefaultSetup makes one, so every Setup starts from DefaultSetup.
	lats *latencies
}

// latencies builds each distinct latency substrate of a run once. A
// generated matrix is immutable and a function of its config alone, so every
// sweep point, scenario and controller that asks for the same
// trace.LatencyConfig shares one matrix instead of regenerating it.
type latencies struct {
	mu    sync.Mutex
	built map[trace.LatencyConfig]*trace.LatencyMatrix
}

// matrix returns the run's matrix for cfg, generating it on first use.
func (l *latencies) matrix(cfg trace.LatencyConfig) (*trace.LatencyMatrix, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if lat, ok := l.built[cfg]; ok {
		return lat, nil
	}
	lat, err := trace.GenerateLatencyMatrix(cfg)
	if err != nil {
		return nil, err
	}
	l.built[cfg] = lat
	return lat, nil
}

// DefaultSetup returns the §VII parameters.
func DefaultSetup(seed int64) Setup {
	return Setup{
		Seed:           seed,
		MaxViewers:     1100,
		Sites:          2,
		StreamsPerSite: 8,
		StreamMbps:     2.0,
		FrameRate:      10,
		InboundMbps:    12,
		CutoffDF:       0.5,
		ViewAngles:     []float64{0},
		Audience:       1000,
		Sizes:          []int{100, 200, 300, 400, 500, 600, 700, 800, 900, 1000},
		lats:           &latencies{built: make(map[trace.LatencyConfig]*trace.LatencyMatrix)},
	}
}

// OutboundSpec describes how viewer outbound capacity is drawn: fixed, or
// uniform over [Lo, Hi] — the paper sweeps both kinds.
type OutboundSpec struct {
	Fixed  float64
	Lo, Hi float64
	// IsUniform selects the uniform draw.
	IsUniform bool
}

// FixedObw returns a fixed-outbound spec.
func FixedObw(mbps float64) OutboundSpec { return OutboundSpec{Fixed: mbps} }

// UniformObw returns a uniform-outbound spec over [lo, hi].
func UniformObw(lo, hi float64) OutboundSpec {
	return OutboundSpec{Lo: lo, Hi: hi, IsUniform: true}
}

// Draw samples one viewer's outbound capacity.
func (o OutboundSpec) Draw(rng *rand.Rand) float64 {
	if o.IsUniform {
		return o.Lo + rng.Float64()*(o.Hi-o.Lo)
	}
	return o.Fixed
}

// Label names the spec the way the paper's legends do.
func (o OutboundSpec) Label() string {
	if o.IsUniform {
		return fmt.Sprintf("obw=%g-%g", o.Lo, o.Hi)
	}
	return fmt.Sprintf("obw=%g", o.Fixed)
}

// producers builds the site/stream model of the setup.
func (s Setup) producers() (*model.Session, error) {
	sites := make([]model.Site, 0, s.Sites)
	for i := 0; i < s.Sites; i++ {
		id := model.SiteID(string(rune('A' + i)))
		sites = append(sites, model.NewRingSite(id, s.StreamsPerSite, s.StreamMbps, s.FrameRate))
	}
	return model.NewSession(sites...)
}

// latency returns the run's PlanetLab-like matrix sized for MaxViewers,
// built on first use.
func (s Setup) latency() (*trace.LatencyMatrix, error) {
	return s.lats.matrix(trace.DefaultLatencyConfig(s.MaxViewers+16, s.Seed))
}

// newController assembles a controller with the given CDN egress bound
// (0 = unbounded, used to measure required capacity in Fig. 13a).
func (s Setup) newController(cdnCapMbps float64) (*session.Controller, *model.Session, error) {
	lat, err := s.latency()
	if err != nil {
		return nil, nil, err
	}
	return s.controllerWith(lat, cdnCapMbps)
}

// controllerWith assembles a controller over an explicit latency matrix and
// returns it with the producers its views are composed against.
func (s Setup) controllerWith(lat *trace.LatencyMatrix, cdnCapMbps float64) (*session.Controller, *model.Session, error) {
	producers, err := s.producers()
	if err != nil {
		return nil, nil, err
	}
	cdnCfg := cdn.DefaultConfig()
	cdnCfg.OutboundCapacityMbps = cdnCapMbps
	// Telemetry is armed for every experiment controller: the scenario
	// runners reduce the collector window into their exit latency tables,
	// and the concurrent-join measurement counts outcomes from it.
	ctrl, err := session.NewController(producers, lat,
		session.WithCutoffDF(s.CutoffDF),
		session.WithCDN(cdnCfg),
		session.WithTelemetry(true))
	return ctrl, producers, err
}

// viewerID names the i-th viewer of a population schedule.
func viewerID(i int) model.ViewerID { return model.ViewerID(fmt.Sprintf("v%05d", i)) }

// joinEvents is the population schedule of the controller-level figures: n
// joins at t=0, outbound capacities drawn from obw in join order and views
// cycling through angles.
func joinEvents(n int, obw OutboundSpec, angles []float64, rng *rand.Rand) []workload.Event {
	events := make([]workload.Event, n)
	for i := range events {
		events[i] = workload.Event{
			Kind:         workload.EventJoin,
			Viewer:       viewerID(i),
			OutboundMbps: obw.Draw(rng),
			ViewAngle:    angles[i%len(angles)],
		}
	}
	return events
}

// replay executes a schedule whose events all sit at t=0 on the
// deterministic runner: every op goes through the controller's single-op
// method in schedule order, and no sample point or monitor advance fires.
// Admission-control rejections are part of the measurement (they feed the
// acceptance-ratio figures), so the runner tolerates them; every other error
// aborts the run. The Result carries the run's protocol-delay distributions.
func (s Setup) replay(ctrl *session.Controller, producers *model.Session, name string, events []workload.Event) (workload.Result, error) {
	res, err := workload.NewSimRunner().Run(context.Background(), ctrl, producers,
		workload.Schedule(name, events), workload.WithInbound(s.InboundMbps))
	if err != nil {
		return res, fmt.Errorf("%s: %w", name, err)
	}
	return res, nil
}

// runScenario joins n viewers and returns the session stats.
func (s Setup) runScenario(n int, obw OutboundSpec, cdnCapMbps float64) (session.Stats, error) {
	c, producers, err := s.newController(cdnCapMbps)
	if err != nil {
		return session.Stats{}, err
	}
	rng := rand.New(rand.NewSource(s.Seed))
	if _, err := s.replay(c, producers, "populate", joinEvents(n, obw, s.ViewAngles, rng)); err != nil {
		return session.Stats{}, err
	}
	if err := c.Validate(); err != nil {
		return session.Stats{}, fmt.Errorf("invariants after scenario: %w", err)
	}
	return c.Stats(), nil
}

// evalDelta keeps the CDN constants in one place for reporting.
const evalDelta = 60 * time.Second
