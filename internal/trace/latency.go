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
	"runtime"
	"sync"
	"sync/atomic"
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
// Both modes bound every pair delay with clampDelay. The dense table is
// filled in the background after GenerateLatencyMatrix returns; each row
// is written once, then published by a watermark (see Delay).
//
// On unix the dense triangle lives outside the Go heap, in one anonymous
// private mapping per matrix (OffHeapBytes counts it). The table is
// pointer-free and never freed while the matrix is in use, but on the heap
// it counts as live heap, and the GC sets its next goal at live heap ×
// (1 + GOGC/100): a 72 MB triangle lets 72 MB of garbage pile up between
// collections, next to a live overlay of ~20 MB in `telecast-node serve`.
// Off the heap, the heap goal follows what the control plane holds, and
// the process collects correspondingly more often. A value copy of a
// LatencyMatrix shares the table and keeps it mapped.
type LatencyMatrix struct {
	cfg     LatencyConfig
	regions []Region
	// muIntra and muInter are the lognormal location parameters of the
	// intra- and inter-region delay families: mean = exp(mu + sigma²/2).
	muIntra, muInter float64
	// dense owns the dense mode's triangle; nil in hashed mode. The owner
	// (not an empty table) is what marks the mode: a 1-node dense matrix
	// has no cells.
	dense *denseTable
}

// denseTable owns the dense mode's strict upper triangle in nanoseconds,
// row-major, indexed by triIndex. newDenseTable allocates it: a mapping
// outside the Go heap on unix (table_unix.go), unmapped by a cleanup once
// the owner is unreachable; a plain slice elsewhere (table_other.go).
//
// fillDense writes each row once, in the background, and publishes it by
// raising filled: every row below filled is written and never changes, so
// Delay reads it with one atomic load and a compare. A read of a row not
// yet published waits on cond until it is.
type denseTable struct {
	cells []uint32
	// filled is the row watermark: rows [0, filled) are published. It is
	// stored under mu and read without it.
	filled atomic.Int64
	// waits counts the Delay calls that found their row unpublished.
	waits atomic.Uint64

	mu   sync.Mutex
	cond sync.Cond // L is &mu; broadcast whenever filled rises
	// rows is the number of rows holding cells, n-1. finished marks, bit
	// per row, the rows of chunks written out of order above the
	// watermark; nil once the fill ends.
	rows     int
	finished []uint64
	// begin is when the build started and took how long it ran to its
	// last row (0 until then); done is closed once the fill has ended and
	// unmapped its ring.
	begin time.Time
	took  time.Duration
	done  chan struct{}
}

// offHeapBytes is the size of every dense table currently mapped outside
// the Go heap, and of the deviate ring of any dense fill under way, summed
// over the process.
var offHeapBytes atomic.Int64

// OffHeapBytes reports the bytes of dense latency tables the process holds
// outside the Go heap: mapped by GenerateLatencyMatrix and not yet released
// by the cleanup that follows their matrix becoming unreachable. While a
// table fills it also counts that fill's deviate ring, which the fill
// unmaps when it writes the table's last row, not when GenerateLatencyMatrix
// returns. Together with the runtime's heap figures it accounts for the
// substrate's share of the resident set. It stays 0 on platforms without
// mmap, where the table is an ordinary heap slice.
func OffHeapBytes() uint64 { return uint64(offHeapBytes.Load()) }

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
// labelled the regions. The call returns once the labels are drawn and the
// table and its fill's deviate ring are mapped, so every error is reported
// here; the cells are written in the background (see fillDense), row by
// row in table order. Delay waits only for a row it asks for before that
// row is written, and Filled reports when the last one is.
func GenerateLatencyMatrix(cfg LatencyConfig) (*LatencyMatrix, error) {
	begin := time.Now()
	m, rng, err := newLatencyMatrix(cfg)
	if err != nil {
		return nil, err
	}
	n := cfg.Nodes
	if m.dense, err = newDenseTable(n * (n - 1) / 2); err != nil {
		return nil, fmt.Errorf("latency matrix: %w", err)
	}
	draw := func(z []float64) {
		for k := range z {
			z[k] = rng.NormFloat64()
		}
	}
	workers := min(runtime.GOMAXPROCS(0), denseMaxWorkers)
	if err := m.fillDense(begin, draw, workers, denseChunkCells); err != nil {
		return nil, fmt.Errorf("latency matrix: %w", err)
	}
	return m, nil
}

// denseChunkCells is the cell count a chunk of the dense build reaches
// before its last row closes it: 128 KiB of deviates, which stay in cache
// between the producer that draws them and the worker that reads them.
const denseChunkCells = 1 << 14

// denseMaxWorkers caps the dense build's workers. Profiles of the
// one-loop build put 17–20 % of its time in drawing deviates and the rest
// in turning them into cells, so the one producer keeps four or five
// workers busy; more would wait for deviates and cost goroutine heap.
const denseMaxWorkers = 4

// denseChunk hands the rows [lo, hi) of the triangle to a worker, with z
// holding their deviates in stream order and slot naming z's ring slot.
type denseChunk struct {
	lo, hi, slot int
	z            []float64
}

// fillDense fills the dense table in chunks of whole rows, each closed by
// the row that brings it to chunkCells cells, and publishes every row
// below the first chunk not yet written. draw fills a chunk's deviates
// from the stream, chunk after chunk in table order, so the table holds
// the same stream whatever the chunking. workers goroutines transform the
// drawn chunks from a ring of 2·workers slots, writing disjoint rows (the
// table's first-touch page faults spread with them), and hand each slot
// back to the producer when done. With one worker the producer transforms
// each chunk itself from a single slot.
//
// A table under two chunks fills inline before fillDense returns. A larger
// one fills in the background: fillDense returns once the ring (off the Go
// heap, newScratch) is mapped, and the fill runs to the last row, unmaps
// the ring and closes the table's done channel. The fill goroutines hold
// the matrix, so a matrix dropped mid-fill is unmapped by its cleanup once
// the fill ends. begin is when the build started, for FillProgress.
func (m *LatencyMatrix) fillDense(begin time.Time, draw func(z []float64), workers, chunkCells int) error {
	t := m.dense
	n, total := m.cfg.Nodes, len(t.cells)
	t.cond.L = &t.mu
	t.rows, t.begin, t.done = n-1, begin, make(chan struct{})
	if total == 0 {
		close(t.done)
		return nil
	}
	workers = min(workers, total/chunkCells)
	slots := 1
	if workers > 1 {
		slots = 2 * workers
	}
	// A chunk stops below chunkCells before its closing row adds at most
	// n-1 cells.
	slotCap := min(total, chunkCells+n-2)
	ring, err := newScratch(slots * slotCap)
	if err != nil {
		return err
	}
	t.finished = make([]uint64, (n-1+63)/64)

	fill := func() {
		var free chan int
		var work chan denseChunk
		var wg sync.WaitGroup
		if slots > 1 {
			// Both channels hold every slot at once, so neither side ever
			// blocks on a send: free starts full, and work takes whatever
			// the producer has drawn while the workers are busy.
			free, work = make(chan int, slots), make(chan denseChunk, slots)
			for s := range slots {
				free <- s
			}
			for range workers {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for c := range work {
						m.fillRows(c.lo, c.hi, c.z)
						free <- c.slot
						t.publish(c.lo, c.hi)
					}
				}()
			}
		}
		for lo := 0; lo < n-1; {
			hi, cells := chunkEnd(n, lo, chunkCells)
			c := denseChunk{lo: lo, hi: hi}
			if work != nil {
				c.slot = <-free
			}
			c.z = ring[c.slot*slotCap:][:cells]
			draw(c.z)
			if work != nil {
				work <- c
			} else {
				m.fillRows(c.lo, c.hi, c.z)
				t.publish(c.lo, c.hi)
			}
			lo = hi
		}
		if work != nil {
			close(work)
			wg.Wait()
		}
		freeScratch(ring)
		close(t.done)
	}
	if total < 2*chunkCells {
		fill()
	} else {
		go fill()
	}
	return nil
}

// chunkEnd closes the chunk of an n-node table that starts at row lo: it
// returns the row past the chunk's last and the chunk's cell count, which
// reaches chunkCells unless the table ends first.
func chunkEnd(n, lo, chunkCells int) (hi, cells int) {
	for hi = lo; cells < chunkCells && hi < n-1; hi++ {
		cells += n - 1 - hi
	}
	return hi, cells
}

// publish marks rows [lo, hi) written and raises the watermark over every
// written row below the first unwritten one, waking the readers waiting
// for any of them. Chunks finish out of order, so a chunk above the
// watermark stays marked in finished until the chunks below it land. The
// table's last row records how long the build took.
func (t *denseTable) publish(lo, hi int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for r := lo; r < hi; r++ {
		t.finished[r/64] |= 1 << (r % 64)
	}
	old := int(t.filled.Load())
	w := old
	for w < t.rows && t.finished[w/64]&(1<<(w%64)) != 0 {
		w++
	}
	if w == old {
		return
	}
	t.filled.Store(int64(w))
	t.cond.Broadcast()
	if w == t.rows {
		t.took = time.Since(t.begin)
		t.finished = nil
	}
}

// await blocks until row i is published: Delay's slow path, taken by a
// read that overtakes the fill.
func (t *denseTable) await(i int) {
	t.waits.Add(1)
	t.mu.Lock()
	for int64(i) >= t.filled.Load() {
		t.cond.Wait()
	}
	t.mu.Unlock()
}

// fillRows writes the cells of rows [lo, hi) from their deviates z, in
// stream order: each cell is the lognormal of its pair's region family.
func (m *LatencyMatrix) fillRows(lo, hi int, z []float64) {
	n, sigma := m.cfg.Nodes, m.cfg.Sigma
	for i := lo; i < hi; i++ {
		row := m.dense.cells[triIndex(n, i, i+1):][:n-1-i]
		dev, peers := z[:len(row)], m.regions[i+1:][:len(row)]
		z = z[len(row):]
		for c := range row {
			mu := m.muInter
			if m.regions[i] == peers[c] {
				mu = m.muIntra
			}
			row[c] = uint32(clampDelay(math.Exp(mu + sigma*dev[c])))
		}
	}
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
//
// A dense matrix's pair (i, j), i < j, lives in row i. Once that row is
// published Delay is one atomic load and a compare away from the cell; a
// call that overtakes the background fill waits until the row is written
// (FillProgress counts such calls), then reads the same value.
func (m *LatencyMatrix) Delay(i, j int) time.Duration {
	if i > j {
		i, j = j, i
	}
	_ = m.regions[j] // the larger index panics when out of range, in both modes
	if i == j {
		return 0
	}
	t := m.dense
	if t == nil {
		return m.hashedDelay(i, j)
	}
	if int64(i) >= t.filled.Load() {
		t.await(i)
	}
	d := t.cells[triIndex(m.cfg.Nodes, i, j)]
	// The owner must stay reachable until the cell is read: its cleanup
	// unmaps the cells, and a matrix whose last use is this call would
	// otherwise be collectable between loading the slice and indexing it.
	runtime.KeepAlive(t)
	return time.Duration(d)
}

// closedChan is what Filled returns for a matrix with nothing to fill.
var closedChan = func() chan struct{} {
	c := make(chan struct{})
	close(c)
	return c
}()

// Filled returns a channel closed once the dense table is written to its
// last row and the fill's deviate ring is unmapped; a hashed matrix's is
// closed already. Delay never needs it. A caller waits on it to time
// work apart from the build, to count the table's mapped bytes exactly,
// or to report when the fill ended.
func (m *LatencyMatrix) Filled() <-chan struct{} {
	if m.dense == nil {
		return closedChan
	}
	return m.dense.done
}

// FillProgress is how far a dense matrix's background fill has come.
type FillProgress struct {
	// Rows is the number of table rows that hold cells, Nodes-1 (0 in
	// hashed mode, which has no table), and RowsFilled how many of them
	// are published: the fill is complete when the two are equal.
	Rows, RowsFilled int
	// Took runs from the start of GenerateLatencyMatrix to the table's
	// last row; 0 until the fill is complete.
	Took time.Duration
	// Waits counts the Delay calls that found their row unpublished and
	// waited for it.
	Waits uint64
}

// FillProgress reports how far the dense table's fill has come.
func (m *LatencyMatrix) FillProgress() FillProgress {
	t := m.dense
	if t == nil {
		return FillProgress{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return FillProgress{Rows: t.rows, RowsFilled: int(t.filled.Load()), Took: t.took, Waits: t.waits.Load()}
}

// RegionOf returns the region label of endpoint i. The session layer uses it
// to assign viewers to region-based Local Session Controller clusters
// (the paper's geo-location detector, §III).
func (m *LatencyMatrix) RegionOf(i int) Region { return m.regions[i] }

// NumRegions returns the configured region count.
func (m *LatencyMatrix) NumRegions() int { return m.cfg.Regions }
