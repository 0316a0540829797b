// Package trace provides the two workload substrates the paper's evaluation
// depends on: (1) a PlanetLab-like all-pairs latency matrix standing in for
// the 4-hour PlanetLab ping traces [14], and (2) a TEEVE-like 3DTI activity
// trace standing in for the "light saber" session recordings [18]. Both are
// fully synthetic, seeded, and deterministic; DESIGN.md documents why the
// substitutions preserve the behaviour the algorithms depend on.
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
// Two storage modes share the type. The dense mode
// (GenerateLatencyMatrix) materializes the strict upper triangle in 4-byte
// nanosecond cells — 2·n² bytes, ~72 MB at 6000 endpoints — and is
// byte-stable across calls. The hashed mode (GenerateHashedLatencyMatrix)
// stores only the region labels and derives every pair delay on demand
// from (seed, i, j), so a million-endpoint substrate costs O(n) memory
// instead of terabytes; it is equally deterministic, just a different
// (per-pair independent) draw than the dense generator's sequential stream.
// Both modes bound every pair delay with clampDelay.
type LatencyMatrix struct {
	cfg     LatencyConfig
	regions []Region
	// muIntra and muInter are the lognormal location parameters of the
	// intra- and inter-region delay families: mean = exp(mu + sigma²/2).
	muIntra, muInter float64
	// delays is the dense mode's strict upper triangle in nanoseconds,
	// row-major, indexed by triIndex; nil in hashed mode.
	delays []uint32
}

// newLatencyMatrix validates cfg, labels every node with a region and
// computes the two lognormal locations. It returns the RNG positioned just
// past the labels, where the dense generator continues its stream.
func newLatencyMatrix(cfg LatencyConfig) (*LatencyMatrix, *rand.Rand, error) {
	if cfg.Nodes <= 0 {
		return nil, nil, fmt.Errorf("latency matrix: nodes must be positive, got %d", cfg.Nodes)
	}
	if cfg.Regions <= 0 {
		return nil, nil, fmt.Errorf("latency matrix: regions must be positive, got %d", cfg.Regions)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	regions := make([]Region, cfg.Nodes)
	for i := range regions {
		regions[i] = Region(rng.Intn(cfg.Regions))
	}
	mu := func(mean time.Duration) float64 { return math.Log(float64(mean)) - cfg.Sigma*cfg.Sigma/2 }
	return &LatencyMatrix{cfg: cfg, regions: regions, muIntra: mu(cfg.IntraMean), muInter: mu(cfg.InterMean)}, rng, nil
}

// GenerateLatencyMatrix synthesizes the matrix from the config. Pairs are
// drawn row-major over i < j, one normal deviate each, from the stream that
// labelled the regions.
func GenerateLatencyMatrix(cfg LatencyConfig) (*LatencyMatrix, error) {
	m, rng, err := newLatencyMatrix(cfg)
	if err != nil {
		return nil, err
	}
	n := cfg.Nodes
	m.delays = make([]uint32, n*(n-1)/2)
	for i := 0; i < n; i++ {
		row := m.delays[triIndex(n, i, i+1):][:n-1-i]
		for c := range row {
			mu := m.muInter
			if m.regions[i] == m.regions[i+1+c] {
				mu = m.muIntra
			}
			row[c] = uint32(clampDelay(math.Exp(mu + cfg.Sigma*rng.NormFloat64())))
		}
	}
	return m, nil
}

// GenerateHashedLatencyMatrix builds the O(n)-memory variant of the
// substrate: region labels are assigned exactly like the dense generator's,
// but pair delays are computed on demand by hashing (seed, i, j) into the
// same lognormal family instead of being materialized. This is the only
// mode that scales to the paper's audience sizes — a dense 100k-node matrix
// is ~20 GB of delays before a single viewer joins.
func GenerateHashedLatencyMatrix(cfg LatencyConfig) (*LatencyMatrix, error) {
	m, _, err := newLatencyMatrix(cfg)
	return m, err
}

// hashedDelay derives the pair delay of the hashed mode for i < j: two
// splitmix64 streams keyed by (seed, i, j) feed a Box–Muller transform,
// producing the dense mode's lognormal family with per-pair independence.
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
// [1 ms, math.MaxUint32 ns ≈ 4.29 s], the range a dense 4-byte cell holds.
// The upper bound is a 9σ draw under DefaultLatencyConfig (p ≈ 1e-19 a pair).
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

// triIndex is the position of pair (i, j), i < j, in the row-major strict
// upper triangle: rows 0..i-1 hold (n-1) + ... + (n-i) = i(2n-i-1)/2 cells.
func triIndex(n, i, j int) int {
	return i*(2*n-i-1)/2 + (j - i - 1)
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
	_ = m.regions[j] // the larger index panics when out of range, in both modes
	if i == j {
		return 0
	}
	if m.delays == nil {
		return m.hashedDelay(i, j)
	}
	return time.Duration(m.delays[triIndex(m.cfg.Nodes, i, j)])
}

// RegionOf returns the region label of endpoint i. The session layer uses it
// to assign viewers to region-based Local Session Controller clusters
// (the paper's geo-location detector, §III).
func (m *LatencyMatrix) RegionOf(i int) Region { return m.regions[i] }

// NumRegions returns the configured region count.
func (m *LatencyMatrix) NumRegions() int { return m.cfg.Regions }
