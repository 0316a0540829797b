package trace

import (
	"math"
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

// triIndex must map the strict upper triangle (i < j, no diagonal) onto
// exactly [0, n(n-1)/2), in the row-major order the dense generator fills.
func TestTriIndexBijective(t *testing.T) {
	for _, n := range []int{1, 2, 3, 17} {
		want := 0
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if idx := triIndex(n, i, j); idx != want {
					t.Fatalf("n=%d: triIndex(%d,%d) = %d, want %d", n, i, j, idx, want)
				}
				want++
			}
		}
		if want != n*(n-1)/2 {
			t.Fatalf("n=%d: covered %d cells, want %d", n, want, n*(n-1)/2)
		}
	}
}

// Means far out in both tails force draws above a 4-byte cell's range and
// below the 1 ms floor; both modes must clamp them to [1 ms, MaxUint32 ns]
// and both bounds must actually be hit.
func TestLatencyClampBothModes(t *testing.T) {
	cfg := LatencyConfig{Nodes: 200, Regions: 2, IntraMean: time.Second, InterMean: 20 * time.Second, Sigma: 3, Seed: 5}
	const lo, hi = time.Millisecond, time.Duration(math.MaxUint32)
	for name, gen := range map[string]func(LatencyConfig) (*LatencyMatrix, error){
		"dense": GenerateLatencyMatrix, "hashed": GenerateHashedLatencyMatrix,
	} {
		m, err := gen(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var atLo, atHi int
		for i := 0; i < cfg.Nodes; i++ {
			for j := i + 1; j < cfg.Nodes; j++ {
				d := m.Delay(i, j)
				if d < lo || d > hi {
					t.Fatalf("%s: Delay(%d,%d) = %v outside [%v, %v]", name, i, j, d, lo, hi)
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
			t.Errorf("%s: clamp not exercised: %d pairs at the floor, %d at the ceiling", name, atLo, atHi)
		}
	}
}

// The dense mode is marked by its table's owner, not by the table holding
// cells: a 1-node matrix has an empty triangle and is still dense.
func TestOneNodeDenseMatrixIsDense(t *testing.T) {
	m, err := GenerateLatencyMatrix(DefaultLatencyConfig(1, 1))
	if err != nil {
		t.Fatal(err)
	}
	if m.dense == nil || len(m.dense.cells) != 0 {
		t.Fatalf("1-node dense matrix: owner %v, want an owner of an empty table", m.dense)
	}
	if d := m.Delay(0, 0); d != 0 {
		t.Fatalf("Delay(0, 0) = %v, want 0", d)
	}
	h, err := GenerateHashedLatencyMatrix(DefaultLatencyConfig(1, 1))
	if err != nil {
		t.Fatal(err)
	}
	if h.dense != nil {
		t.Fatal("1-node hashed matrix carries a dense table")
	}
}

func BenchmarkGenerateLatencyMatrix(b *testing.B) {
	for _, bc := range []struct {
		name  string
		nodes int
		gen   func(LatencyConfig) (*LatencyMatrix, error)
	}{
		{"dense/6016", 6016, GenerateLatencyMatrix},
		{"hashed/30016", 30016, GenerateHashedLatencyMatrix},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := bc.gen(DefaultLatencyConfig(bc.nodes, 1)); err != nil {
					b.Fatal(err)
				}
			}
		})
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

func TestHashedLatencyMatrixProperties(t *testing.T) {
	cfg := DefaultLatencyConfig(200, 11)
	m, err := GenerateHashedLatencyMatrix(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := GenerateHashedLatencyMatrix(LatencyConfig{Nodes: 0, Regions: 1}); err == nil {
		t.Error("zero nodes accepted")
	}
	// Region assignment must match the dense generator's byte for byte, so
	// session sharding is identical across the two substrate modes.
	dense, err := GenerateLatencyMatrix(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < cfg.Nodes; i++ {
		if m.RegionOf(i) != dense.RegionOf(i) {
			t.Fatalf("region of %d = %d, dense says %d", i, m.RegionOf(i), dense.RegionOf(i))
		}
	}
	// Symmetric, zero diagonal, positive, deterministic.
	other, _ := GenerateHashedLatencyMatrix(cfg)
	var intra, inter []time.Duration
	for i := 0; i < cfg.Nodes; i++ {
		if d := m.Delay(i, i); d != 0 {
			t.Fatalf("self delay %d = %v", i, d)
		}
		for j := i + 1; j < cfg.Nodes; j++ {
			d := m.Delay(i, j)
			if d <= 0 {
				t.Fatalf("non-positive delay (%d,%d)", i, j)
			}
			if d != m.Delay(j, i) {
				t.Fatalf("asymmetric delay (%d,%d)", i, j)
			}
			if d != other.Delay(i, j) {
				t.Fatalf("nondeterministic delay (%d,%d)", i, j)
			}
			if m.RegionOf(i) == m.RegionOf(j) {
				intra = append(intra, d)
			} else {
				inter = append(inter, d)
			}
		}
	}
	// The lognormal family must keep its calibration: intra-region pairs
	// center near IntraMean, inter-region near InterMean.
	mean := func(ds []time.Duration) time.Duration {
		var sum time.Duration
		for _, d := range ds {
			sum += d
		}
		return sum / time.Duration(len(ds))
	}
	if got := mean(intra); got < cfg.IntraMean/2 || got > cfg.IntraMean*2 {
		t.Errorf("intra mean = %v, want near %v", got, cfg.IntraMean)
	}
	if got := mean(inter); got < cfg.InterMean/2 || got > cfg.InterMean*2 {
		t.Errorf("inter mean = %v, want near %v", got, cfg.InterMean)
	}
}
