package trace

import (
	"fmt"
	"math"
	"runtime"
	"sync"
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

// heapMatrix labels an n-node matrix and gives it a zeroed table on the Go
// heap: the fill is under test, not the mapping, and mapped tables would
// leave cleanups pending for the tests that count mapped bytes.
func heapMatrix(t *testing.T, cfg LatencyConfig) (*LatencyMatrix, func(z []float64)) {
	t.Helper()
	m, rng, err := newLatencyMatrix(cfg)
	if err != nil {
		t.Fatal(err)
	}
	n := cfg.Nodes
	m.dense = &denseTable{cells: make([]uint32, n*(n-1)/2)}
	return m, func(z []float64) {
		for k := range z {
			z[k] = rng.NormFloat64()
		}
	}
}

// waitFilled blocks until m's fill has ended, failing the test after 10 s.
func waitFilled(t testing.TB, m *LatencyMatrix) {
	t.Helper()
	select {
	case <-m.Filled():
	case <-time.After(10 * time.Second):
		t.Fatalf("fill never ended: %+v", m.FillProgress())
	}
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
					m, draw := heapMatrix(t, cfg)
					slowDraw := func(z []float64) {
						time.Sleep(time.Microsecond)
						draw(z)
					}
					if err := m.fillDense(time.Now(), slowDraw, workers, chunk); err != nil {
						t.Fatal(err)
					}
					waitFilled(t, m)
					for k, c := range m.dense.cells {
						if c != want[k] {
							t.Fatalf("cell %d = %d, want %d", k, c, want[k])
						}
					}
					if p := m.FillProgress(); p.RowsFilled != n-1 || p.Rows != n-1 || p.Took <= 0 {
						t.Fatalf("progress after the fill = %+v, want %d of %d rows and a duration", p, n-1, n-1)
					}
				})
			}
		}
	}
}

// A table under two chunks fills before fillDense returns; a larger one
// returns with its fill under way and completes it in the background.
func TestDenseFillInlineBelowTwoChunks(t *testing.T) {
	cfg := DefaultLatencyConfig(41, 5) // 820 cells
	m, draw := heapMatrix(t, cfg)
	if err := m.fillDense(time.Now(), draw, 4, 500); err != nil {
		t.Fatal(err)
	}
	select {
	case <-m.Filled():
	default:
		t.Fatalf("a %d-cell table with 500-cell chunks returned before its fill ended: %+v", len(m.dense.cells), m.FillProgress())
	}
}

// holdAfter wraps draw in the seam the watermark tests use: the producer
// draws chunks 0..k, then blocks before drawing chunk k+1 until release is
// closed. held is closed once the producer is blocked there.
func holdAfter(k int, draw func(z []float64)) (seam func(z []float64), held, release chan struct{}) {
	held, release = make(chan struct{}), make(chan struct{})
	drawn := 0
	return func(z []float64) {
		if drawn == k+1 {
			close(held)
			<-release
		}
		drawn++
		draw(z)
	}, held, release
}

// The watermark publishes every row below the first chunk not yet
// written. With the producer held after chunk k, the rows of chunks 0..k
// are published and read without waiting; a read of the next row blocks,
// counted as a wait, until the producer is released, and then reads the
// one-loop reference value.
func TestDenseWatermarkPublishesRowsBelowHeldChunk(t *testing.T) {
	const n, chunk, k = 300, 2000, 3
	cfg := DefaultLatencyConfig(n, 17)
	want := sequentialCells(cfg)
	// The rows chunks 0..k cover, closed as the producer closes them.
	published := 0
	for range k + 1 {
		published, _ = chunkEnd(n, published, chunk)
	}
	for _, workers := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			m, draw := heapMatrix(t, cfg)
			seam, held, release := holdAfter(k, draw)
			defer func() {
				select {
				case <-release:
				default:
					close(release)
				}
				waitFilled(t, m)
			}()
			if err := m.fillDense(time.Now(), seam, workers, chunk); err != nil {
				t.Fatal(err)
			}
			<-held
			for deadline := time.Now().Add(10 * time.Second); m.FillProgress().RowsFilled < published; {
				if time.Now().After(deadline) {
					t.Fatalf("watermark stuck at %+v, want %d rows", m.FillProgress(), published)
				}
				time.Sleep(time.Millisecond)
			}
			if p := m.FillProgress(); p.RowsFilled != published || p.Took != 0 {
				t.Fatalf("with the producer held after chunk %d: %+v, want %d rows published and no duration", k, p, published)
			}
			for i := 0; i < published; i++ {
				for j := i + 1; j < n; j++ {
					if d := m.Delay(i, j); d != time.Duration(want[triIndex(n, i, j)]) {
						t.Fatalf("Delay(%d,%d) = %v below the watermark, want %v", i, j, d, time.Duration(want[triIndex(n, i, j)]))
					}
				}
			}
			if w := m.FillProgress().Waits; w != 0 {
				t.Fatalf("%d reads below the watermark waited", w)
			}

			i, j := published, n-1
			got := make(chan time.Duration)
			go func() { got <- m.Delay(j, i) }()
			for deadline := time.Now().Add(10 * time.Second); m.FillProgress().Waits == 0; {
				if time.Now().After(deadline) {
					t.Fatal("a read of an unpublished row never took the slow path")
				}
				time.Sleep(time.Millisecond)
			}
			select {
			case d := <-got:
				t.Fatalf("Delay(%d,%d) answered %v while its row was unpublished", j, i, d)
			case <-time.After(20 * time.Millisecond):
			}
			close(release)
			if d := <-got; d != time.Duration(want[triIndex(n, i, j)]) {
				t.Fatalf("Delay(%d,%d) = %v after the wait, want %v", j, i, d, time.Duration(want[triIndex(n, i, j)]))
			}
		})
	}
}

// Readers racing the fill across every row read exactly the one-loop
// reference, whatever the GOMAXPROCS: each reader walks the table in its
// own order, so some overtake the fill and wait while others trail it.
func TestDenseConcurrentReadersMatchReference(t *testing.T) {
	const n, readers = 500, 4
	cfg := DefaultLatencyConfig(n, 23)
	want := sequentialCells(cfg)
	for _, procs := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			m, err := GenerateLatencyMatrix(cfg)
			if err != nil {
				t.Fatal(err)
			}
			var wg sync.WaitGroup
			errs := make(chan error, readers)
			for r := range readers {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for s := range n {
						// Reader 0 walks the rows in order, reader 1 from
						// the last row down, the others from a staggered start.
						i := (s + r*n/readers) % n
						if r == 1 {
							i = n - 1 - s
						}
						for j := i + 1; j < n; j++ {
							if d, w := m.Delay(j, i), time.Duration(want[triIndex(n, i, j)]); d != w {
								errs <- fmt.Errorf("reader %d: Delay(%d,%d) = %v, want %v", r, j, i, d, w)
								return
							}
						}
					}
				}()
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Error(err)
			}
			waitFilled(t, m)
			if p := m.FillProgress(); p.RowsFilled != n-1 || p.Took <= 0 {
				t.Fatalf("progress after the fill = %+v", p)
			}
		})
	}
}
