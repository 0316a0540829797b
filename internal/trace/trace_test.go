package trace

import (
	"fmt"
	"math"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestGenerateLatencyMatrixValidation(t *testing.T) {
	if _, err := GenerateLatencyMatrix(LatencyConfig{Nodes: 0, Regions: 1}); err == nil {
		t.Error("zero nodes accepted")
	}
	if _, err := GenerateLatencyMatrix(LatencyConfig{Nodes: 5, Regions: 0}); err == nil {
		t.Error("zero regions accepted")
	}
}

func TestLatencyMatrixSymmetricZeroDiagonal(t *testing.T) {
	m, err := GenerateLatencyMatrix(DefaultLatencyConfig(40, 7))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < m.Nodes(); i++ {
		if d := m.Delay(i, i); d != 0 {
			t.Fatalf("self delay %d = %v, want 0", i, d)
		}
		for j := 0; j < m.Nodes(); j++ {
			if m.Delay(i, j) != m.Delay(j, i) {
				t.Fatalf("asymmetric delay (%d,%d)", i, j)
			}
			if i != j && m.Delay(i, j) <= 0 {
				t.Fatalf("non-positive delay (%d,%d)", i, j)
			}
		}
	}
}

func TestLatencyMatrixDeterministic(t *testing.T) {
	a, _ := GenerateLatencyMatrix(DefaultLatencyConfig(30, 42))
	b, _ := GenerateLatencyMatrix(DefaultLatencyConfig(30, 42))
	c, _ := GenerateLatencyMatrix(DefaultLatencyConfig(30, 43))
	same, diff := true, false
	for i := 0; i < 30; i++ {
		for j := 0; j < 30; j++ {
			if a.Delay(i, j) != b.Delay(i, j) {
				same = false
			}
			if a.Delay(i, j) != c.Delay(i, j) {
				diff = true
			}
		}
	}
	if !same {
		t.Error("same seed produced different matrices")
	}
	if !diff {
		t.Error("different seeds produced identical matrices")
	}
}

func TestLatencyMatrixRegionStructure(t *testing.T) {
	m, err := GenerateLatencyMatrix(DefaultLatencyConfig(200, 11))
	if err != nil {
		t.Fatal(err)
	}
	var intraSum, interSum time.Duration
	var intraN, interN int
	for i := 0; i < m.Nodes(); i++ {
		for j := i + 1; j < m.Nodes(); j++ {
			if m.RegionOf(i) == m.RegionOf(j) {
				intraSum += m.Delay(i, j)
				intraN++
			} else {
				interSum += m.Delay(i, j)
				interN++
			}
		}
	}
	if intraN == 0 || interN == 0 {
		t.Fatal("degenerate region assignment")
	}
	intraMean := intraSum / time.Duration(intraN)
	interMean := interSum / time.Duration(interN)
	if intraMean >= interMean {
		t.Errorf("intra-region mean %v not below inter-region mean %v", intraMean, interMean)
	}
	if m.NumRegions() != 8 {
		t.Errorf("NumRegions = %d, want 8", m.NumRegions())
	}
}

// Means far out in both tails force draws above math.MaxUint32 ns and below
// the 1 ms floor; the generator must clamp them to [1 ms, MaxUint32 ns] and
// both bounds must actually be hit.
func TestLatencyClamp(t *testing.T) {
	cfg := LatencyConfig{Nodes: 200, Regions: 2, IntraMean: time.Second, InterMean: 20 * time.Second, Sigma: 3, Seed: 5}
	const lo, hi = time.Millisecond, time.Duration(math.MaxUint32)
	m, err := GenerateLatencyMatrix(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var atLo, atHi int
	for i := 0; i < cfg.Nodes; i++ {
		for j := i + 1; j < cfg.Nodes; j++ {
			d := m.Delay(i, j)
			if d < lo || d > hi {
				t.Fatalf("Delay(%d,%d) = %v outside [%v, %v]", i, j, d, lo, hi)
			}
			if d == lo {
				atLo++
			}
			if d == hi {
				atHi++
			}
		}
	}
	if atLo == 0 || atHi == 0 {
		t.Errorf("clamp not exercised: %d pairs at the floor, %d at the ceiling", atLo, atHi)
	}
}

// Every split of the pair space among concurrent readers reads the same
// delays as one sequential loop over hashedDelay, row-major over i < j:
// Delay keeps no shared mutable state, so the wire sessions may call it
// from many goroutines at once. Each subtest fills an all-pairs table by
// handing chunk-cell spans round-robin to workers goroutines, including
// chunk sizes that split rows unevenly (7; 100 and 1000 leave a short last
// span) and one larger than every table; odd cells are read as Delay(j, i).
func TestDenseFillMatchesSequentialStream(t *testing.T) {
	for _, n := range []int{2, 3, 41, 200} {
		cfg := DefaultLatencyConfig(n, int64(n))
		ref, err := GenerateLatencyMatrix(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var pairs [][2]int
		var want []time.Duration
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				pairs = append(pairs, [2]int{i, j})
				want = append(want, ref.hashedDelay(i, j))
			}
		}
		for _, workers := range []int{1, 2, 3, 4} {
			for _, chunk := range []int{1, 7, 100, 1000, 1 << 20} {
				t.Run(fmt.Sprintf("n=%d/workers=%d/chunk=%d", n, workers, chunk), func(t *testing.T) {
					m, err := GenerateLatencyMatrix(cfg)
					if err != nil {
						t.Fatal(err)
					}
					got := make([]time.Duration, len(pairs))
					var wg sync.WaitGroup
					for w := 0; w < workers; w++ {
						wg.Add(1)
						go func() {
							defer wg.Done()
							for lo := w * chunk; lo < len(pairs); lo += workers * chunk {
								for k := lo; k < min(lo+chunk, len(pairs)); k++ {
									i, j := pairs[k][0], pairs[k][1]
									if k%2 == 1 {
										i, j = j, i
									}
									got[k] = m.Delay(i, j)
								}
							}
						}()
					}
					wg.Wait()
					for k := range want {
						if got[k] != want[k] {
							t.Fatalf("cell %d %v = %v, want %v", k, pairs[k], got[k], want[k])
						}
					}
				})
			}
		}
	}
}

func TestGenerateTEEVEValidation(t *testing.T) {
	bad := []TEEVEConfig{
		{MeanBitrateMbps: 0, FrameRate: 10},
		{MeanBitrateMbps: 2, FrameRate: 0},
		{MeanBitrateMbps: 2, FrameRate: 10, Burstiness: 1.5},
	}
	for i, cfg := range bad {
		if _, err := GenerateTEEVE(cfg, time.Second); err == nil {
			t.Errorf("config %d accepted", i)
		}
	}
}

func TestTEEVEMeanBitrateNearTarget(t *testing.T) {
	tr, err := GenerateTEEVE(DefaultTEEVEConfig(5), 60*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	got := tr.MeanBitrateMbps()
	if math.Abs(got-2.0) > 0.3 {
		t.Errorf("mean bitrate %v Mbps, want ~2.0", got)
	}
	if tr.Len() != 600 {
		t.Errorf("frames = %d, want 600 (60s at 10fps)", tr.Len())
	}
	if tr.FrameRate() != 10 {
		t.Errorf("frame rate = %v", tr.FrameRate())
	}
}

func TestTEEVEFrameAt(t *testing.T) {
	tr, err := GenerateTEEVE(DefaultTEEVEConfig(5), 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	f, ok := tr.FrameAt(2500 * time.Millisecond)
	if !ok {
		t.Fatal("FrameAt failed")
	}
	if f.Number != 25 {
		t.Errorf("frame number = %d, want 25", f.Number)
	}
	if _, ok := tr.FrameAt(-time.Second); ok {
		t.Error("negative offset returned a frame")
	}
	// Past the end clamps to the last frame.
	last, ok := tr.FrameAt(time.Hour)
	if !ok || last.Number != int64(tr.Len()-1) {
		t.Errorf("clamped frame = %+v ok=%v", last, ok)
	}
}

func TestTEEVEFrameNumbersMonotonic(t *testing.T) {
	tr, err := GenerateTEEVE(DefaultTEEVEConfig(9), 20*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < tr.Len(); i++ {
		prev, cur := tr.Frame(i-1), tr.Frame(i)
		if cur.Number != prev.Number+1 {
			t.Fatalf("frame numbers not consecutive at %d", i)
		}
		if cur.Capture <= prev.Capture {
			t.Fatalf("capture timestamps not increasing at %d", i)
		}
		if cur.SizeBytes <= 0 {
			t.Fatalf("frame %d has non-positive size", i)
		}
	}
}

// Property: frame sizes stay within the burstiness bound around the mean.
func TestTEEVESizesBounded(t *testing.T) {
	f := func(seed int64) bool {
		cfg := DefaultTEEVEConfig(seed)
		tr, err := GenerateTEEVE(cfg, 5*time.Second)
		if err != nil {
			return false
		}
		meanFrame := cfg.MeanBitrateMbps * 1e6 / 8 / cfg.FrameRate
		// envelope ≤ 1+b, jitter ≤ 1+b/2 ⇒ size < mean*(1+b)*(1+b/2)+1
		upper := meanFrame*(1+cfg.Burstiness)*(1+cfg.Burstiness/2) + 1
		for i := 0; i < tr.Len(); i++ {
			if float64(tr.Frame(i).SizeBytes) > upper {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// The lognormal family must keep its calibration: per seed, intra-region
// pairs average IntraMean and inter-region pairs InterMean, each within 2 %,
// and the log-delays of each family spread by Sigma, within 2 %.
func TestHashedLatencyMatrixProperties(t *testing.T) {
	const tol = 0.02
	for seed := int64(1); seed <= 3; seed++ {
		cfg := DefaultLatencyConfig(1000, seed)
		m, err := GenerateLatencyMatrix(cfg)
		if err != nil {
			t.Fatal(err)
		}
		// Per family (0 intra, 1 inter): count, sum of delays, and sum and
		// sum of squares of log-delays.
		var n [2]int
		var sum, sumLog, sumLog2 [2]float64
		for i := 0; i < cfg.Nodes; i++ {
			for j := i + 1; j < cfg.Nodes; j++ {
				f := 1
				if m.RegionOf(i) == m.RegionOf(j) {
					f = 0
				}
				d := float64(m.Delay(i, j))
				l := math.Log(d)
				n[f]++
				sum[f] += d
				sumLog[f] += l
				sumLog2[f] += l * l
			}
		}
		for f, target := range []time.Duration{cfg.IntraMean, cfg.InterMean} {
			k := float64(n[f])
			mean := sum[f] / k
			sigma := math.Sqrt(sumLog2[f]/k - (sumLog[f]/k)*(sumLog[f]/k))
			if r := mean / float64(target); math.Abs(r-1) > tol {
				t.Errorf("seed %d family %d: mean %v is %.4f× the target %v", seed, f, time.Duration(mean), r, target)
			}
			if r := sigma / cfg.Sigma; math.Abs(r-1) > tol {
				t.Errorf("seed %d family %d: log-delay σ %.4f, want %.2f ± %.0f %%", seed, f, sigma, cfg.Sigma, 100*tol)
			}
		}
	}
}
