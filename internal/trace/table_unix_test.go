//go:build unix

package trace

import (
	"fmt"
	"runtime"
	"testing"
	"time"
)

// settledOffHeap collects garbage until OffHeapBytes holds still over a few
// rounds, so cleanups queued for matrices earlier tests dropped have run,
// and returns the settled value. A round sleeps 10 ms: on a loaded box the
// goroutine running the cleanups can stall for a few milliseconds between
// two of them.
func settledOffHeap(t *testing.T) uint64 {
	t.Helper()
	last, stable := OffHeapBytes(), 0
	for deadline := time.Now().Add(10 * time.Second); stable < 3; {
		if time.Now().After(deadline) {
			t.Fatalf("off-heap bytes never settled (last %d)", last)
		}
		runtime.GC()
		time.Sleep(10 * time.Millisecond)
		if cur := OffHeapBytes(); cur == last {
			stable++
		} else {
			last, stable = cur, 0
		}
	}
	return last
}

// waitOffHeap collects garbage until OffHeapBytes reads want; cleanups run
// asynchronously after the cycle that finds their owner unreachable.
func waitOffHeap(t *testing.T, want uint64) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); OffHeapBytes() != want; {
		if time.Now().After(deadline) {
			t.Fatalf("off-heap bytes = %d, want %d: a dropped table was not unmapped", OffHeapBytes(), want)
		}
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
}

// A dense build allocates only its region labels (8n: one int each), the
// RNG's ~4.9 KB state and the fill's row bitmap (n/8) on the Go heap; the
// triangle is mapped outside it, at exactly 4 bytes a cell. Both checks
// run once the fill has ended. A table put back on the heap fails the first
// bound by 72 MB at this n; int64 cells or a stored diagonal fail the second.
func TestDenseMatrixAllocationBound(t *testing.T) {
	const n = 6000
	base := settledOffHeap(t)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	m, err := GenerateLatencyMatrix(DefaultLatencyConfig(n, 1))
	if err != nil {
		t.Fatal(err)
	}
	waitFilled(t, m)
	runtime.ReadMemStats(&after)
	if limit, got := uint64(8*n+16<<10), after.TotalAlloc-before.TotalAlloc; got > limit {
		t.Errorf("dense %d-node build allocated %d heap bytes, want <= %d", n, got, limit)
	}
	if want, got := uint64(4*n*(n-1)/2), OffHeapBytes()-base; got != want {
		t.Errorf("dense %d-node build mapped %d bytes, want %d", n, got, want)
	}
	runtime.KeepAlive(m)
}

// A dense fill maps its deviate ring beside the table and unmaps it when it
// ends: while the producer draws, OffHeapBytes counts the ring too, and
// once the fill has ended it reads the table alone, at every GOMAXPROCS.
func TestDenseBuildReleasesScratch(t *testing.T) {
	const n = 2000
	table := uint64(4 * n * (n - 1) / 2)
	for _, procs := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			base := settledOffHeap(t)
			m, rng, err := newLatencyMatrix(DefaultLatencyConfig(n, 3))
			if err != nil {
				t.Fatal(err)
			}
			if m.dense, err = newDenseTable(n * (n - 1) / 2); err != nil {
				t.Fatal(err)
			}
			var peak uint64
			draw := func(z []float64) {
				peak = max(peak, OffHeapBytes()-base)
				for k := range z {
					z[k] = rng.NormFloat64()
				}
			}
			if err := m.fillDense(time.Now(), draw, procs, denseChunkCells); err != nil {
				t.Fatal(err)
			}
			waitFilled(t, m)
			if peak <= table {
				t.Errorf("mapped %d bytes while drawing, want the %d-byte table and a ring", peak, table)
			}
			if got := OffHeapBytes() - base; got != table {
				t.Errorf("mapped %d bytes after the fill, want the table's %d", got, table)
			}
			m2, err := GenerateLatencyMatrix(DefaultLatencyConfig(n, 4))
			if err != nil {
				t.Fatal(err)
			}
			waitFilled(t, m2)
			if got := OffHeapBytes() - base; got != 2*table {
				t.Errorf("mapped %d bytes after a second build, want two tables' %d", got, 2*table)
			}
			runtime.KeepAlive(m)
			runtime.KeepAlive(m2)
			m, m2 = nil, nil
			waitOffHeap(t, base)
		})
	}
}

// Dropped matrices give their mappings back: after GC and the cleanups, the
// live mapped bytes return to where they started, round after round. The
// sizes include an empty table (1 node) and one smaller than a page. The
// exact count is read once every fill has ended and unmapped its ring.
func TestDenseTablesReleasedAfterDrop(t *testing.T) {
	base := settledOffHeap(t)
	sizes := []int{1, 2, 40, 300, 1000}
	var mapped uint64
	for _, n := range sizes {
		mapped += uint64(4 * n * (n - 1) / 2)
	}
	for round := 0; round < 4; round++ {
		var ms []*LatencyMatrix
		for rep := 0; rep < 4; rep++ {
			for _, n := range sizes {
				m, err := GenerateLatencyMatrix(DefaultLatencyConfig(n, int64(round)))
				if err != nil {
					t.Fatal(err)
				}
				ms = append(ms, m)
			}
		}
		for _, m := range ms {
			waitFilled(t, m)
		}
		if got, want := OffHeapBytes(), base+4*mapped; got != want {
			t.Fatalf("round %d: %d bytes mapped with %d matrices live, want %d", round, got, len(ms), want)
		}
		runtime.KeepAlive(ms)
		ms = nil
		waitOffHeap(t, base)
	}
}

// A value copy of a matrix shares its table's owner, so the copy keeps the
// mapping alive and readable after every pointer to the original is gone.
// Were the cleanup tied to the matrix instead, reading the copy would fault.
func TestDenseMatrixValueCopyOutlivesOriginal(t *testing.T) {
	const n = 300
	m, err := GenerateLatencyMatrix(DefaultLatencyConfig(n, 9))
	if err != nil {
		t.Fatal(err)
	}
	want := make([]time.Duration, 0, n*(n-1)/2)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			want = append(want, m.Delay(i, j))
		}
	}
	cp := *m
	m = nil
	for range 3 {
		runtime.GC()
		time.Sleep(2 * time.Millisecond)
	}
	k := 0
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if d := cp.Delay(i, j); d != want[k] {
				t.Fatalf("copy's Delay(%d,%d) = %v, want %v", i, j, d, want[k])
			}
			k++
		}
	}
}

// A matrix dropped while its fill is held mid-table stays mapped, ring and
// all, because the fill goroutines hold it; once the fill is released and
// ends, the ring is unmapped and the cleanup unmaps the table, so
// OffHeapBytes returns to where it started.
func TestDenseMatrixDroppedMidFillIsUnmapped(t *testing.T) {
	const n = 1000
	table := uint64(4 * n * (n - 1) / 2)
	for _, workers := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			base := settledOffHeap(t)
			m, rng, err := newLatencyMatrix(DefaultLatencyConfig(n, 5))
			if err != nil {
				t.Fatal(err)
			}
			if m.dense, err = newDenseTable(n * (n - 1) / 2); err != nil {
				t.Fatal(err)
			}
			seam, held, release := holdAfter(2, func(z []float64) {
				for k := range z {
					z[k] = rng.NormFloat64()
				}
			})
			if err := m.fillDense(time.Now(), seam, workers, denseChunkCells); err != nil {
				t.Fatal(err)
			}
			<-held
			m = nil
			for range 3 {
				runtime.GC()
				time.Sleep(2 * time.Millisecond)
			}
			if got := OffHeapBytes() - base; got <= table {
				t.Errorf("mapped %d bytes with a dropped matrix mid-fill, want its %d-byte table and its ring", got, table)
			}
			close(release)
			waitOffHeap(t, base)
		})
	}
}
