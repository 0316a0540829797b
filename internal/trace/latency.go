// Package trace provides the two workload substrates the paper's evaluation
// depends on: (1) a PlanetLab-like all-pairs latency matrix standing in for
// the 4-hour PlanetLab ping traces [14], and (2) a TEEVE-like 3DTI activity
// trace standing in for the "light saber" session recordings [18]. Both are
// fully synthetic, seeded, and deterministic, because neither recording is
// public. The substitutions keep what the algorithms read: the latency
// matrix keeps the ping traces' clustered lognormal shape (low delays within
// a region, heavier ones across), and the activity trace keeps the 2 Mbps,
// ~10 fps bursty streams the paper's evaluation assumes.
package trace

import (
	"fmt"
	"math"
	"math/rand"
	"time"
)

// Region groups nodes whose mutual latencies are low (same continent /
// backbone in PlanetLab terms). Cross-region latencies are drawn from a
// heavier distribution.
type Region int

// LatencyConfig parameterizes the synthetic PlanetLab matrix.
type LatencyConfig struct {
	// Nodes is the number of overlay endpoints (viewers + producers +
	// CDN edges) to generate latencies for.
	Nodes int
	// Regions is the number of geographic clusters.
	Regions int
	// IntraMean is the mean one-way intra-region delay.
	IntraMean time.Duration
	// InterMean is the mean one-way inter-region delay.
	InterMean time.Duration
	// Sigma is the log-normal shape parameter controlling the tail.
	Sigma float64
	// Seed makes the matrix reproducible.
	Seed int64
}

// DefaultRegions is the region count of DefaultLatencyConfig. Consumers
// that must agree with the default substrate — the workload catalog's
// mobility scenarios size their region walk from it — share this constant
// instead of hard-coding a second 8.
const DefaultRegions = 8

// DefaultLatencyConfig mirrors published PlanetLab measurement shape:
// intra-region one-way delays around 20 ms, inter-region around 80 ms, with
// a lognormal tail reaching a few hundred milliseconds.
func DefaultLatencyConfig(nodes int, seed int64) LatencyConfig {
	return LatencyConfig{
		Nodes:     nodes,
		Regions:   DefaultRegions,
		IntraMean: 20 * time.Millisecond,
		InterMean: 80 * time.Millisecond,
		Sigma:     0.45,
		Seed:      seed,
	}
}

// LatencyMatrix is a symmetric all-pairs one-way propagation-delay matrix
// with region labels per node. It implements the paper's d_prop.
//
// It stores only the region labels and derives every pair delay on demand
// from (seed, i, j), so the substrate costs O(n) memory at any audience
// size. Delays are deterministic per config and bounded by clampDelay.
type LatencyMatrix struct {
	cfg     LatencyConfig
	regions []Region
	// muIntra and muInter are the lognormal location parameters of the
	// intra- and inter-region delay families: mean = exp(mu + sigma²/2).
	muIntra, muInter float64
}

// GenerateLatencyMatrix synthesizes the matrix from the config: each node's
// region is one Intn draw of a stream seeded by cfg.Seed, in node order.
// It allocates nothing beyond the labels; pair delays are computed by Delay.
func GenerateLatencyMatrix(cfg LatencyConfig) (*LatencyMatrix, error) {
	if cfg.Nodes <= 0 {
		return nil, fmt.Errorf("latency matrix: nodes must be positive, got %d", cfg.Nodes)
	}
	if cfg.Regions <= 0 {
		return nil, fmt.Errorf("latency matrix: regions must be positive, got %d", cfg.Regions)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	regions := make([]Region, cfg.Nodes)
	for i := range regions {
		regions[i] = Region(rng.Intn(cfg.Regions))
	}
	mu := func(mean time.Duration) float64 { return math.Log(float64(mean)) - cfg.Sigma*cfg.Sigma/2 }
	return &LatencyMatrix{cfg: cfg, regions: regions, muIntra: mu(cfg.IntraMean), muInter: mu(cfg.InterMean)}, nil
}

// GenerateHashedLatencyMatrix is GenerateLatencyMatrix.
//
// Deprecated: use GenerateLatencyMatrix. The alias remains only because
// the benchmark module calls it (benchmark/target.go, for a system marked
// hashed); the next change to that module calls GenerateLatencyMatrix
// there and drops both this alias and the `system.hashed` switch.
func GenerateHashedLatencyMatrix(cfg LatencyConfig) (*LatencyMatrix, error) {
	return GenerateLatencyMatrix(cfg)
}

// hashedDelay derives the delay of pair i < j: two splitmix64 streams keyed
// by (seed, i, j) feed a Box–Muller transform into the lognormal family of
// the pair's regions, independently per pair.
func (m *LatencyMatrix) hashedDelay(i, j int) time.Duration {
	mu := m.muInter
	if m.regions[i] == m.regions[j] {
		mu = m.muIntra
	}
	key := uint64(m.cfg.Seed)*0x9E3779B97F4A7C15 ^ uint64(i)<<32 ^ uint64(j)
	u1 := unitFloat(splitmix64(key))
	u2 := unitFloat(splitmix64(key ^ 0xD1B54A32D192ED03))
	z := math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
	return clampDelay(math.Exp(mu + m.cfg.Sigma*z))
}

// clampDelay turns a drawn delay in nanoseconds into a pair delay in
// [1 ms, math.MaxUint32 ns ≈ 4.29 s]. The upper bound is a 9σ draw under
// DefaultLatencyConfig (p ≈ 1e-19 a pair).
func clampDelay(ns float64) time.Duration {
	if ns > math.MaxUint32 {
		return math.MaxUint32
	}
	d := time.Duration(ns)
	if d < time.Millisecond {
		d = time.Millisecond
	}
	return d
}

// splitmix64 is the standard 64-bit finalizer-style mixer; good enough to
// decorrelate adjacent (i, j) keys.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// unitFloat maps a hash to the open interval (0, 1).
func unitFloat(h uint64) float64 {
	return (float64(h>>11) + 0.5) / (1 << 53)
}

// Nodes returns the number of endpoints in the matrix.
func (m *LatencyMatrix) Nodes() int { return m.cfg.Nodes }

// Delay returns the one-way propagation delay between endpoints i and j.
// It panics on out-of-range indices: indices come from internal placement
// logic, so a bad index is a programming error, not an input error.
func (m *LatencyMatrix) Delay(i, j int) time.Duration {
	if i > j {
		i, j = j, i
	}
	_ = m.regions[j] // the larger index panics when out of range
	if i == j {
		return 0
	}
	return m.hashedDelay(i, j)
}

// RegionOf returns the region label of endpoint i. The session layer uses it
// to assign viewers to region-based Local Session Controller clusters
// (the paper's geo-location detector, §III).
func (m *LatencyMatrix) RegionOf(i int) Region { return m.regions[i] }

// NumRegions returns the configured region count.
func (m *LatencyMatrix) NumRegions() int { return m.cfg.Regions }
