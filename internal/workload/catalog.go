package workload

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"telecast/internal/fault"
	"telecast/internal/model"
	"telecast/internal/session"
	"telecast/internal/trace"
)

// FlashChurn is the original scenario: a flash crowd inside the first window
// followed by steady Poisson arrivals, exponential sessions, and occasional
// view changes. A golden test pins its schedule byte for byte, so existing
// experiments reproduce exactly.
func FlashChurn(cfg Config) (Scenario, error) {
	if cfg.Duration <= 0 {
		return nil, fmt.Errorf("workload: duration must be positive")
	}
	if len(cfg.ViewAngles) == 0 {
		return nil, fmt.Errorf("workload: at least one view angle required")
	}
	return &flashChurn{cfg: cfg}, nil
}

type flashChurn struct {
	cfg    Config
	events []Event
	built  bool
	i      int
}

func (s *flashChurn) Name() string { return "flash-churn" }

func (s *flashChurn) Next(rng *rand.Rand) (Event, bool) {
	if !s.built {
		// The legacy algorithm draws per viewer, not per instant, so the
		// schedule is materialized on first pull and streamed from there.
		s.events = generateFlashChurn(s.cfg, rng)
		s.built = true
	}
	if s.i >= len(s.events) {
		return Event{}, false
	}
	ev := s.events[s.i]
	s.i++
	return ev, true
}

// churnProcess is the streaming core shared by the rate-driven scenarios:
// a (possibly time-varying) Poisson arrival process realized by thinning
// against the peak rate, with per-viewer lifecycles — departure and view
// changes — parked in a stable queue until their time comes.
type churnProcess struct {
	name    string
	prefix  string
	horizon time.Duration
	// rate is the instantaneous arrival intensity (viewers/s) at t; peak
	// bounds it from above for the thinning draw.
	rate func(t time.Duration) float64
	peak float64

	meanSession    time.Duration
	viewChangeRate float64
	obwLo, obwHi   float64
	angles         []float64
	// region optionally assigns a placement hint to the i-th arrival.
	region func(rng *rand.Rand, i int) session.RegionHint
	// migrateRate > 0 adds random-walk re-homings: each viewer migrates to
	// a uniformly drawn region (of regions many) at this per-second rate
	// while it stays.
	migrateRate float64
	regions     int

	t       time.Duration
	n       int
	q       eventQueue
	arrival *Event
	done    bool
}

func (p *churnProcess) Name() string { return p.name }

func (p *churnProcess) Next(rng *rand.Rand) (Event, bool) {
	if p.arrival == nil && !p.done {
		p.drawArrival(rng)
	}
	// Lifecycle events generated by earlier arrivals win ties against the
	// next arrival, matching the legacy stable generation order.
	if at, ok := p.q.peekAt(); ok && (p.arrival == nil || at <= p.arrival.At) {
		return p.q.pop(), true
	}
	if p.arrival == nil {
		return Event{}, false
	}
	ev := *p.arrival
	p.arrival = nil
	p.scheduleLifecycle(rng, ev)
	return ev, true
}

// drawArrival advances the thinned Poisson process to the next accepted
// arrival and stages its join event.
func (p *churnProcess) drawArrival(rng *rand.Rand) {
	t := p.t
	for {
		t += time.Duration(rng.ExpFloat64() / p.peak * float64(time.Second))
		if t >= p.horizon {
			p.done = true
			return
		}
		if rng.Float64()*p.peak <= p.rate(t) {
			break
		}
	}
	p.t = t
	ev := Event{
		At:           t,
		Kind:         EventJoin,
		Viewer:       model.ViewerID(fmt.Sprintf("%s%06d", p.prefix, p.n)),
		OutboundMbps: p.obwLo + rng.Float64()*(p.obwHi-p.obwLo),
		ViewAngle:    p.angles[rng.Intn(len(p.angles))],
	}
	if p.region != nil {
		ev.Region = p.region(rng, p.n)
	}
	p.n++
	p.arrival = &ev
}

// scheduleLifecycle parks the departure, intra-stay view changes, and —
// for mobility scenarios — random-walk migrations of a freshly emitted
// join. The departure/view-change draw order is the legacy one (the golden
// test pins it); migration draws only happen when migrateRate is set, so
// existing scenarios consume the rng identically.
func (p *churnProcess) scheduleLifecycle(rng *rand.Rand, join Event) {
	// meanSession <= 0 means viewers never depart; migrations below still
	// run to the horizon (a permanent audience can keep roaming).
	leaveAt := p.horizon
	if p.meanSession > 0 {
		stay := time.Duration(rng.ExpFloat64() * float64(p.meanSession))
		leaveAt = join.At + stay
		if leaveAt < p.horizon {
			p.q.push(Event{At: leaveAt, Kind: EventLeave, Viewer: join.Viewer})
			if p.viewChangeRate > 0 {
				for t := join.At; ; {
					t += time.Duration(rng.ExpFloat64() / p.viewChangeRate * float64(time.Second))
					if t >= leaveAt {
						break
					}
					p.q.push(Event{
						At: t, Kind: EventViewChange, Viewer: join.Viewer,
						ViewAngle: p.angles[rng.Intn(len(p.angles))],
					})
				}
			}
		}
	}
	if p.migrateRate <= 0 || p.regions < 2 {
		return
	}
	// Unlike view changes, migrations also happen to viewers that outlive
	// the horizon — roaming does not care when the session ends.
	end := leaveAt
	if end > p.horizon {
		end = p.horizon
	}
	for t := join.At; ; {
		t += time.Duration(rng.ExpFloat64() / p.migrateRate * float64(time.Second))
		if t >= end {
			return
		}
		p.q.push(Event{
			At: t, Kind: EventMigrate, Viewer: join.Viewer,
			Region: session.InRegion(trace.Region(rng.Intn(p.regions))),
		})
	}
}

func validateChurnKnobs(duration time.Duration, angles []float64, peak float64) error {
	if duration <= 0 {
		return fmt.Errorf("workload: duration must be positive")
	}
	if len(angles) == 0 {
		return fmt.Errorf("workload: at least one view angle required")
	}
	if peak <= 0 {
		return fmt.Errorf("workload: arrival rate must be positive")
	}
	return nil
}

// DiurnalConfig parameterizes the sinusoidal day/night load scenario.
type DiurnalConfig struct {
	Duration time.Duration
	// Period is one full load cycle (default: Duration, a single day).
	Period time.Duration
	// BaseRate is the mean arrival rate (viewers/s); Swing in [0,1) is the
	// peak-to-mean amplitude of the sinusoidal modulation.
	BaseRate float64
	Swing    float64
	// Phase offsets the cycle in radians (0 starts at mean load, rising).
	Phase float64

	MeanSession            time.Duration
	ViewChangeRate         float64
	OutboundLo, OutboundHi float64
	ViewAngles             []float64
}

// Diurnal models the day/night audience cycle: arrivals follow a sinusoidal
// rate, so the overlay grows through the "evening" peak and drains through
// the "night" trough.
func Diurnal(cfg DiurnalConfig) (Scenario, error) {
	if cfg.Swing < 0 || cfg.Swing >= 1 {
		return nil, fmt.Errorf("workload: diurnal swing must be in [0,1), got %v", cfg.Swing)
	}
	peak := cfg.BaseRate * (1 + cfg.Swing)
	if err := validateChurnKnobs(cfg.Duration, cfg.ViewAngles, peak); err != nil {
		return nil, err
	}
	period := cfg.Period
	if period <= 0 {
		period = cfg.Duration
	}
	return &churnProcess{
		name:    "diurnal",
		prefix:  "d",
		horizon: cfg.Duration,
		rate: func(t time.Duration) float64 {
			return cfg.BaseRate * (1 + cfg.Swing*math.Sin(2*math.Pi*float64(t)/float64(period)+cfg.Phase))
		},
		peak:           peak,
		meanSession:    cfg.MeanSession,
		viewChangeRate: cfg.ViewChangeRate,
		obwLo:          cfg.OutboundLo, obwHi: cfg.OutboundHi,
		angles: cfg.ViewAngles,
	}, nil
}

// SoakConfig parameterizes the long-horizon leak-hunting scenario.
type SoakConfig struct {
	// Days is how many diurnal cycles to chain; DayLength is one cycle of
	// model time.
	Days      int
	DayLength time.Duration
	// BaseRate is the mean arrival rate (viewers/s); Swing the sinusoidal
	// amplitude, as in DiurnalConfig.
	BaseRate float64
	Swing    float64

	// MeanSession defaults to DayLength/3, so the audience fully turns
	// over every cycle.
	MeanSession            time.Duration
	ViewChangeRate         float64
	OutboundLo, OutboundHi float64
	ViewAngles             []float64
}

// Soak chains Days diurnal cycles into one long horizon. Because the mean
// session is a fraction of a day, the audience completely turns over each
// cycle — any state that still grows after the first cycle is control-plane
// leakage, not viewers. The soak tier's heap-trajectory test is built on it.
func Soak(cfg SoakConfig) (Scenario, error) {
	if cfg.Days <= 0 {
		return nil, fmt.Errorf("workload: soak days must be positive, got %d", cfg.Days)
	}
	if cfg.DayLength <= 0 {
		return nil, fmt.Errorf("workload: soak day length must be positive, got %v", cfg.DayLength)
	}
	meanSession := cfg.MeanSession
	if meanSession <= 0 {
		meanSession = cfg.DayLength / 3
	}
	sc, err := Diurnal(DiurnalConfig{
		Duration:       time.Duration(cfg.Days) * cfg.DayLength,
		Period:         cfg.DayLength,
		BaseRate:       cfg.BaseRate,
		Swing:          cfg.Swing,
		Phase:          -math.Pi / 2, // each day starts at its nightly trough
		MeanSession:    meanSession,
		ViewChangeRate: cfg.ViewChangeRate,
		OutboundLo:     cfg.OutboundLo, OutboundHi: cfg.OutboundHi,
		ViewAngles: cfg.ViewAngles,
	})
	if err != nil {
		return nil, err
	}
	sc.(*churnProcess).name = "soak"
	return sc, nil
}

// HotspotConfig parameterizes the skewed-region scenario.
type HotspotConfig struct {
	Duration    time.Duration
	ArrivalRate float64
	// HotRegion receives HotShare of all arrivals via region hints,
	// concentrating load on one LSC shard while the rest spread normally.
	HotRegion trace.Region
	HotShare  float64

	MeanSession            time.Duration
	ViewChangeRate         float64
	OutboundLo, OutboundHi float64
	ViewAngles             []float64
}

// RegionalHotspot skews viewer placement toward one region, stressing a
// single LSC shard the way a geographically concentrated audience would.
func RegionalHotspot(cfg HotspotConfig) (Scenario, error) {
	if err := validateChurnKnobs(cfg.Duration, cfg.ViewAngles, cfg.ArrivalRate); err != nil {
		return nil, err
	}
	if cfg.HotShare < 0 || cfg.HotShare > 1 {
		return nil, fmt.Errorf("workload: hot share must be in [0,1], got %v", cfg.HotShare)
	}
	return &churnProcess{
		name:    "regional-hotspot",
		prefix:  "h",
		horizon: cfg.Duration,
		rate:    func(time.Duration) float64 { return cfg.ArrivalRate },
		peak:    cfg.ArrivalRate,
		region: func(rng *rand.Rand, _ int) session.RegionHint {
			if rng.Float64() < cfg.HotShare {
				return session.InRegion(cfg.HotRegion)
			}
			return session.RegionHint{}
		},
		meanSession:    cfg.MeanSession,
		viewChangeRate: cfg.ViewChangeRate,
		obwLo:          cfg.OutboundLo, obwHi: cfg.OutboundHi,
		angles: cfg.ViewAngles,
	}, nil
}

// MassDepartureConfig parameterizes the correlated-failure scenario.
type MassDepartureConfig struct {
	// Population viewers arrive uniformly inside RampWindow.
	Population int
	RampWindow time.Duration
	// At DepartAt, Fraction of the population departs within DepartWindow —
	// the paper's "large-scale simultaneous departures".
	DepartAt     time.Duration
	DepartWindow time.Duration
	Fraction     float64
	// RejoinFraction of the departed return inside RejoinWindow at RejoinAt.
	RejoinAt       time.Duration
	RejoinWindow   time.Duration
	RejoinFraction float64

	OutboundLo, OutboundHi float64
	ViewAngles             []float64
}

// MassDeparture joins a population, tears a correlated fraction of it down
// inside one short window, then brings part of it back — the most violent of
// the paper's churn patterns, exercising victim recovery in bulk.
func MassDeparture(cfg MassDepartureConfig) (Scenario, error) {
	if cfg.Population <= 0 {
		return nil, fmt.Errorf("workload: population must be positive")
	}
	if len(cfg.ViewAngles) == 0 {
		return nil, fmt.Errorf("workload: at least one view angle required")
	}
	if cfg.Fraction < 0 || cfg.Fraction > 1 || cfg.RejoinFraction < 0 || cfg.RejoinFraction > 1 {
		return nil, fmt.Errorf("workload: fractions must be in [0,1]")
	}
	if cfg.DepartAt < cfg.RampWindow {
		return nil, fmt.Errorf("workload: departure wave at %v precedes ramp window %v", cfg.DepartAt, cfg.RampWindow)
	}
	if cfg.RejoinAt < cfg.DepartAt+cfg.DepartWindow {
		return nil, fmt.Errorf("workload: rejoin wave at %v overlaps departure wave", cfg.RejoinAt)
	}
	return &queuedScenario{name: "mass-departure", build: func(rng *rand.Rand, q *eventQueue) {
		for i := 0; i < cfg.Population; i++ {
			id := model.ViewerID(fmt.Sprintf("md%06d", i))
			q.push(Event{
				At:           time.Duration(rng.Float64() * float64(cfg.RampWindow)),
				Kind:         EventJoin,
				Viewer:       id,
				OutboundMbps: cfg.OutboundLo + rng.Float64()*(cfg.OutboundHi-cfg.OutboundLo),
				ViewAngle:    cfg.ViewAngles[rng.Intn(len(cfg.ViewAngles))],
			})
			if rng.Float64() >= cfg.Fraction {
				continue
			}
			q.push(Event{
				At:     cfg.DepartAt + time.Duration(rng.Float64()*float64(cfg.DepartWindow)),
				Kind:   EventLeave,
				Viewer: id,
			})
			if rng.Float64() < cfg.RejoinFraction {
				q.push(Event{
					At:           cfg.RejoinAt + time.Duration(rng.Float64()*float64(cfg.RejoinWindow)),
					Kind:         EventJoin,
					Viewer:       id,
					OutboundMbps: cfg.OutboundLo + rng.Float64()*(cfg.OutboundHi-cfg.OutboundLo),
					ViewAngle:    cfg.ViewAngles[rng.Intn(len(cfg.ViewAngles))],
				})
			}
		}
	}}, nil
}

// ViewSweepConfig parameterizes the synchronized view-change scenario.
type ViewSweepConfig struct {
	// Population viewers arrive uniformly inside RampWindow and never leave.
	Population int
	RampWindow time.Duration
	// Sweeps synchronized view changes run SweepEvery apart after the ramp;
	// every viewer switches to the next angle at the same instant.
	Sweeps     int
	SweepEvery time.Duration

	OutboundLo, OutboundHi float64
	ViewAngles             []float64
}

// ViewSweep drives synchronized view changes: the whole audience re-targets
// a new view at the same instant, sweep after sweep — the worst case for the
// two-phase view-change machinery and the CDN fast path.
func ViewSweep(cfg ViewSweepConfig) (Scenario, error) {
	if cfg.Population <= 0 {
		return nil, fmt.Errorf("workload: population must be positive")
	}
	if cfg.Sweeps <= 0 || cfg.SweepEvery <= 0 {
		return nil, fmt.Errorf("workload: sweeps and sweep interval must be positive")
	}
	if len(cfg.ViewAngles) < 2 {
		return nil, fmt.Errorf("workload: view sweep needs at least two view angles")
	}
	return &queuedScenario{name: "view-sweep", build: func(rng *rand.Rand, q *eventQueue) {
		for i := 0; i < cfg.Population; i++ {
			q.push(Event{
				At:           time.Duration(rng.Float64() * float64(cfg.RampWindow)),
				Kind:         EventJoin,
				Viewer:       model.ViewerID(fmt.Sprintf("vs%06d", i)),
				OutboundMbps: cfg.OutboundLo + rng.Float64()*(cfg.OutboundHi-cfg.OutboundLo),
				ViewAngle:    cfg.ViewAngles[0],
			})
		}
		for k := 1; k <= cfg.Sweeps; k++ {
			at := cfg.RampWindow + time.Duration(k)*cfg.SweepEvery
			angle := cfg.ViewAngles[k%len(cfg.ViewAngles)]
			for i := 0; i < cfg.Population; i++ {
				q.push(Event{
					At:        at,
					Kind:      EventViewChange,
					Viewer:    model.ViewerID(fmt.Sprintf("vs%06d", i)),
					ViewAngle: angle,
				})
			}
		}
	}}, nil
}

// MobilityConfig parameterizes the random-walk region-churn scenario.
type MobilityConfig struct {
	Duration    time.Duration
	ArrivalRate float64
	// Regions is the number of LSC regions viewers roam across; arrivals
	// are spread uniformly and each re-homing targets a uniform draw.
	Regions int
	// MigrateRate is per-viewer re-homings per second while the viewer
	// stays — the random-walk step rate.
	MigrateRate float64

	MeanSession            time.Duration
	ViewChangeRate         float64
	OutboundLo, OutboundHi float64
	ViewAngles             []float64
}

// Mobility models roaming viewers: arrivals spread across every region and
// each viewer re-homes to a random region at MigrateRate while it stays —
// device roaming and network re-homing as a steady cross-shard handoff
// load on the control plane.
func Mobility(cfg MobilityConfig) (Scenario, error) {
	if err := validateChurnKnobs(cfg.Duration, cfg.ViewAngles, cfg.ArrivalRate); err != nil {
		return nil, err
	}
	if cfg.Regions < 2 {
		return nil, fmt.Errorf("workload: mobility needs at least two regions, got %d", cfg.Regions)
	}
	if cfg.MigrateRate <= 0 {
		return nil, fmt.Errorf("workload: migrate rate must be positive, got %v", cfg.MigrateRate)
	}
	return &churnProcess{
		name:    "mobility",
		prefix:  "m",
		horizon: cfg.Duration,
		rate:    func(time.Duration) float64 { return cfg.ArrivalRate },
		peak:    cfg.ArrivalRate,
		region: func(rng *rand.Rand, _ int) session.RegionHint {
			return session.InRegion(trace.Region(rng.Intn(cfg.Regions)))
		},
		meanSession:    cfg.MeanSession,
		viewChangeRate: cfg.ViewChangeRate,
		migrateRate:    cfg.MigrateRate,
		regions:        cfg.Regions,
		obwLo:          cfg.OutboundLo, obwHi: cfg.OutboundHi,
		angles: cfg.ViewAngles,
	}, nil
}

// EvacuationConfig parameterizes the regional-evacuation scenario.
type EvacuationConfig struct {
	// Population viewers arrive uniformly inside RampWindow, spread across
	// Regions regions.
	Population int
	RampWindow time.Duration
	Regions    int
	// At EvacAt every viewer homed in EvacRegion migrates to a random
	// other region within EvacWindow — a geo-failover wave.
	EvacRegion trace.Region
	EvacAt     time.Duration
	EvacWindow time.Duration

	OutboundLo, OutboundHi float64
	ViewAngles             []float64
}

// Evacuation drains one region mid-session: the audience builds up across
// all regions, then everyone homed in the evacuated region re-homes
// elsewhere inside one short window — the worst case for the handoff path,
// a migration wave concentrated on one source shard.
func Evacuation(cfg EvacuationConfig) (Scenario, error) {
	if cfg.Population <= 0 {
		return nil, fmt.Errorf("workload: population must be positive")
	}
	if len(cfg.ViewAngles) == 0 {
		return nil, fmt.Errorf("workload: at least one view angle required")
	}
	if cfg.Regions < 2 {
		return nil, fmt.Errorf("workload: evacuation needs at least two regions, got %d", cfg.Regions)
	}
	if int(cfg.EvacRegion) >= cfg.Regions {
		return nil, fmt.Errorf("workload: evacuated region %d outside the %d-region walk", cfg.EvacRegion, cfg.Regions)
	}
	if cfg.EvacAt < cfg.RampWindow {
		return nil, fmt.Errorf("workload: evacuation at %v precedes ramp window %v", cfg.EvacAt, cfg.RampWindow)
	}
	return &queuedScenario{name: "evacuation", build: func(rng *rand.Rand, q *eventQueue) {
		for i := 0; i < cfg.Population; i++ {
			id := model.ViewerID(fmt.Sprintf("e%06d", i))
			home := trace.Region(rng.Intn(cfg.Regions))
			q.push(Event{
				At:           time.Duration(rng.Float64() * float64(cfg.RampWindow)),
				Kind:         EventJoin,
				Viewer:       id,
				OutboundMbps: cfg.OutboundLo + rng.Float64()*(cfg.OutboundHi-cfg.OutboundLo),
				ViewAngle:    cfg.ViewAngles[rng.Intn(len(cfg.ViewAngles))],
				Region:       session.InRegion(home),
			})
			if home != cfg.EvacRegion {
				continue
			}
			// Re-home to a uniform draw over the surviving regions.
			dest := trace.Region(rng.Intn(cfg.Regions - 1))
			if dest >= cfg.EvacRegion {
				dest++
			}
			q.push(Event{
				At:     cfg.EvacAt + time.Duration(rng.Float64()*float64(cfg.EvacWindow)),
				Kind:   EventMigrate,
				Viewer: id,
				Region: session.InRegion(dest),
			})
		}
	}}, nil
}

// ReplayConfig parameterizes trace-driven replay.
type ReplayConfig struct {
	// Trace modulates arrival intensity: the instantaneous rate is
	// RatePerMbps × the trace's bitrate at t, so audience interest tracks
	// scene activity in the 3DTI capture.
	Trace       *trace.TEEVETrace
	RatePerMbps float64
	Duration    time.Duration

	MeanSession            time.Duration
	ViewChangeRate         float64
	OutboundLo, OutboundHi float64
	ViewAngles             []float64
}

// Replay derives the arrival process from a TEEVE activity trace: intense
// capture phases (big frames) attract viewers, calm ones shed them.
func Replay(cfg ReplayConfig) (Scenario, error) {
	if cfg.Trace == nil || cfg.Trace.Len() == 0 {
		return nil, fmt.Errorf("workload: replay requires a non-empty trace")
	}
	if cfg.RatePerMbps <= 0 {
		return nil, fmt.Errorf("workload: rate per Mbps must be positive")
	}
	frameRate := cfg.Trace.FrameRate()
	bitrate := func(t time.Duration) float64 {
		f, ok := cfg.Trace.FrameAt(t)
		if !ok {
			return 0
		}
		return float64(f.SizeBytes) * 8 * frameRate / 1e6
	}
	var peakMbps float64
	for i := 0; i < cfg.Trace.Len(); i++ {
		if b := float64(cfg.Trace.Frame(i).SizeBytes) * 8 * frameRate / 1e6; b > peakMbps {
			peakMbps = b
		}
	}
	peak := cfg.RatePerMbps * peakMbps
	if err := validateChurnKnobs(cfg.Duration, cfg.ViewAngles, peak); err != nil {
		return nil, err
	}
	return &churnProcess{
		name:    "trace-replay",
		prefix:  "r",
		horizon: cfg.Duration,
		rate: func(t time.Duration) float64 {
			return cfg.RatePerMbps * bitrate(t)
		},
		peak:           peak,
		meanSession:    cfg.MeanSession,
		viewChangeRate: cfg.ViewChangeRate,
		obwLo:          cfg.OutboundLo, obwHi: cfg.OutboundHi,
		angles: cfg.ViewAngles,
	}, nil
}

// queuedScenario precomputes its whole schedule into the stable queue on the
// first pull and streams it in time order.
type queuedScenario struct {
	name  string
	build func(rng *rand.Rand, q *eventQueue)
	q     eventQueue
	built bool
}

func (s *queuedScenario) Name() string { return s.name }

func (s *queuedScenario) Next(rng *rand.Rand) (Event, bool) {
	if !s.built {
		s.build(rng, &s.q)
		s.built = true
	}
	if s.q.len() == 0 {
		return Event{}, false
	}
	return s.q.pop(), true
}

// Knobs sizes a catalog scenario without committing to its full config:
// FromCatalog derives each scenario's rates and windows from the audience
// and duration, so the CLI and tests can spin up any scenario by name.
type Knobs struct {
	Seed     int64
	Audience int
	Duration time.Duration
	// HotRegion targets the regional-hotspot scenario and is the region
	// the evacuation scenario drains (default region 0).
	HotRegion trace.Region
	// Regions sizes the mobility scenarios' region walk; it must match the
	// controller's latency substrate (default trace.DefaultRegions, so
	// unset knobs always agree with the default substrate).
	Regions                int
	OutboundLo, OutboundHi float64
	ViewAngles             []float64
}

// withDefaults fills unset knobs with the churn experiment's shape.
func (k Knobs) withDefaults() Knobs {
	if k.Audience <= 0 {
		k.Audience = 1000
	}
	if k.Duration <= 0 {
		k.Duration = 60 * time.Second
	}
	if k.Regions <= 0 {
		k.Regions = trace.DefaultRegions
	}
	if k.OutboundHi <= k.OutboundLo {
		k.OutboundLo, k.OutboundHi = 0, 12
	}
	if len(k.ViewAngles) == 0 {
		k.ViewAngles = []float64{0, math.Pi / 2, math.Pi}
	}
	return k
}

// CatalogNames lists the built-in scenarios in CLI order.
func CatalogNames() []string {
	return []string{"flash-churn", "diurnal", "soak", "regional-hotspot", "mass-departure", "view-sweep", "trace-replay", "mobility", "evacuation", "outage", "cdn-collapse"}
}

// FromCatalog instantiates a built-in scenario by name, sized by the knobs.
func FromCatalog(name string, k Knobs) (Scenario, error) {
	k = k.withDefaults()
	secs := k.Duration.Seconds()
	switch name {
	case "flash-churn":
		cfg := DefaultConfig(k.Seed)
		cfg.Duration = k.Duration
		cfg.FlashCrowd = k.Audience / 2
		cfg.ArrivalRate = float64(k.Audience) / 2 / secs
		cfg.OutboundLo, cfg.OutboundHi = k.OutboundLo, k.OutboundHi
		cfg.ViewAngles = k.ViewAngles
		return FlashChurn(cfg)
	case "diurnal":
		return Diurnal(DiurnalConfig{
			Duration:       k.Duration,
			BaseRate:       float64(k.Audience) / secs,
			Swing:          0.6,
			Phase:          -math.Pi / 2, // start at the nightly trough
			MeanSession:    k.Duration / 3,
			ViewChangeRate: 0.02,
			OutboundLo:     k.OutboundLo, OutboundHi: k.OutboundHi,
			ViewAngles: k.ViewAngles,
		})
	case "soak":
		const days = 4
		day := k.Duration / days
		return Soak(SoakConfig{
			Days:      days,
			DayLength: day,
			// Audience sizes one day's arrivals, so the whole soak runs
			// days× that many viewer generations through the control plane.
			BaseRate:       float64(k.Audience) / day.Seconds(),
			Swing:          0.6,
			ViewChangeRate: 0.02,
			OutboundLo:     k.OutboundLo, OutboundHi: k.OutboundHi,
			ViewAngles: k.ViewAngles,
		})
	case "regional-hotspot":
		return RegionalHotspot(HotspotConfig{
			Duration:       k.Duration,
			ArrivalRate:    float64(k.Audience) / secs,
			HotRegion:      k.HotRegion,
			HotShare:       0.7,
			MeanSession:    k.Duration / 2,
			ViewChangeRate: 0.02,
			OutboundLo:     k.OutboundLo, OutboundHi: k.OutboundHi,
			ViewAngles: k.ViewAngles,
		})
	case "mass-departure":
		return MassDeparture(MassDepartureConfig{
			Population:     k.Audience,
			RampWindow:     k.Duration / 4,
			DepartAt:       k.Duration / 2,
			DepartWindow:   k.Duration / 20,
			Fraction:       0.6,
			RejoinAt:       k.Duration * 3 / 4,
			RejoinWindow:   k.Duration / 10,
			RejoinFraction: 0.5,
			OutboundLo:     k.OutboundLo, OutboundHi: k.OutboundHi,
			ViewAngles: k.ViewAngles,
		})
	case "view-sweep":
		return ViewSweep(ViewSweepConfig{
			Population: k.Audience,
			RampWindow: k.Duration / 4,
			Sweeps:     3,
			SweepEvery: k.Duration / 6,
			OutboundLo: k.OutboundLo, OutboundHi: k.OutboundHi,
			ViewAngles: k.ViewAngles,
		})
	case "mobility":
		return Mobility(MobilityConfig{
			Duration:       k.Duration,
			ArrivalRate:    float64(k.Audience) / secs,
			Regions:        k.Regions,
			MigrateRate:    0.1,
			MeanSession:    k.Duration / 2,
			ViewChangeRate: 0.02,
			OutboundLo:     k.OutboundLo, OutboundHi: k.OutboundHi,
			ViewAngles: k.ViewAngles,
		})
	case "evacuation":
		return Evacuation(EvacuationConfig{
			Population: k.Audience,
			RampWindow: k.Duration / 4,
			Regions:    k.Regions,
			EvacRegion: k.HotRegion,
			EvacAt:     k.Duration / 2,
			EvacWindow: k.Duration / 8,
			OutboundLo: k.OutboundLo, OutboundHi: k.OutboundHi,
			ViewAngles: k.ViewAngles,
		})
	case "outage":
		// Region-concentrated churn with two kill/recover cycles of the hot
		// shard: half the audience homes on HotRegion, each cycle snapshots
		// it, kills it for a tenth of the run, and recovers it from the
		// snapshot plus the journal. Runs need WithInjector.
		churn, err := RegionalHotspot(HotspotConfig{
			Duration:       k.Duration,
			ArrivalRate:    float64(k.Audience) / secs,
			HotRegion:      k.HotRegion,
			HotShare:       0.5,
			MeanSession:    k.Duration / 2,
			ViewChangeRate: 0.02,
			OutboundLo:     k.OutboundLo, OutboundHi: k.OutboundHi,
			ViewAngles: k.ViewAngles,
		})
		if err != nil {
			return nil, err
		}
		faults, err := FaultEvents(fault.OutageCycle(k.HotRegion, k.Duration/4, k.Duration/10, k.Duration*2/5, 2))
		if err != nil {
			return nil, err
		}
		return Rename("outage", Merge(churn, faults)), nil
	case "cdn-collapse":
		// Flash-crowd churn with the CDN egress collapsing to 40% for the
		// middle third of the run, then restoring — admission rides the
		// shrunken substrate while existing reservations keep flowing.
		cfg := DefaultConfig(k.Seed)
		cfg.Duration = k.Duration
		cfg.FlashCrowd = k.Audience / 2
		cfg.ArrivalRate = float64(k.Audience) / 2 / secs
		cfg.OutboundLo, cfg.OutboundHi = k.OutboundLo, k.OutboundHi
		cfg.ViewAngles = k.ViewAngles
		churn, err := FlashChurn(cfg)
		if err != nil {
			return nil, err
		}
		faults, err := FaultEvents(fault.CDNCollapsePulse(k.Duration/3, k.Duration*2/3, 0.4))
		if err != nil {
			return nil, err
		}
		return Rename("cdn-collapse", Merge(churn, faults)), nil
	case "trace-replay":
		tr, err := trace.GenerateTEEVE(trace.DefaultTEEVEConfig(k.Seed), k.Duration)
		if err != nil {
			return nil, err
		}
		return Replay(ReplayConfig{
			Trace:          tr,
			RatePerMbps:    float64(k.Audience) / (tr.MeanBitrateMbps() * secs),
			Duration:       k.Duration,
			MeanSession:    k.Duration / 2,
			ViewChangeRate: 0.02,
			OutboundLo:     k.OutboundLo, OutboundHi: k.OutboundHi,
			ViewAngles: k.ViewAngles,
		})
	default:
		return nil, fmt.Errorf("workload: unknown scenario %q (have %v)", name, CatalogNames())
	}
}
