package trace

import (
	"fmt"
	"math"
	"testing"
	"time"
)

// sequentialCells is the dense table as one loop over one stream builds
// it, row-major over i < j: the reference every split of the parallel
// build must reproduce byte for byte.
func sequentialCells(cfg LatencyConfig) []uint32 {
	m, rng, err := newLatencyMatrix(cfg)
	if err != nil {
		panic(err)
	}
	n := cfg.Nodes
	cells := make([]uint32, 0, n*(n-1)/2)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			mu := m.muInter
			if m.regions[i] == m.regions[j] {
				mu = m.muIntra
			}
			cells = append(cells, uint32(clampDelay(math.Exp(mu+cfg.Sigma*rng.NormFloat64()))))
		}
	}
	return cells
}

// Every worker count and chunk size fills the same bytes, including chunk
// sizes that split the rows unevenly (7 cells closes most chunks one row at
// a time and some with two; 100 and 1000 leave a short last chunk) and a
// chunk larger than the table (inline). The producer sleeps before it draws
// each chunk, so a chunk handed to a worker before its deviates are drawn,
// or a worker that reads its deviates from the wrong offset, writes cells
// that differ from the reference.
func TestDenseFillMatchesSequentialStream(t *testing.T) {
	for _, n := range []int{2, 3, 41, 200} {
		cfg := DefaultLatencyConfig(n, int64(n))
		want := sequentialCells(cfg)
		for _, workers := range []int{1, 2, 3, 4} {
			for _, chunk := range []int{1, 7, 100, 1000, 1 << 20} {
				t.Run(fmt.Sprintf("n=%d/workers=%d/chunk=%d", n, workers, chunk), func(t *testing.T) {
					m, rng, err := newLatencyMatrix(cfg)
					if err != nil {
						t.Fatal(err)
					}
					// A heap table: the fill is under test, not the mapping,
					// and mapped tables would leave cleanups pending for the
					// tests that count mapped bytes.
					m.dense = &denseTable{cells: make([]uint32, n*(n-1)/2)}
					slowDraw := func(z []float64) {
						time.Sleep(time.Microsecond)
						for k := range z {
							z[k] = rng.NormFloat64()
						}
					}
					if err := m.fillDense(slowDraw, workers, chunk); err != nil {
						t.Fatal(err)
					}
					for k, c := range m.dense.cells {
						if c != want[k] {
							t.Fatalf("cell %d = %d, want %d", k, c, want[k])
						}
					}
				})
			}
		}
	}
}
