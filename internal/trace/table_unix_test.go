//go:build unix

package trace

import (
	"runtime"
	"testing"
	"time"
)

// settledOffHeap collects garbage until OffHeapBytes holds still over a few
// rounds, so cleanups queued for matrices earlier tests dropped have run,
// and returns the settled value.
func settledOffHeap(t *testing.T) uint64 {
	t.Helper()
	last, stable := OffHeapBytes(), 0
	for deadline := time.Now().Add(10 * time.Second); stable < 3; {
		if time.Now().After(deadline) {
			t.Fatalf("off-heap bytes never settled (last %d)", last)
		}
		runtime.GC()
		time.Sleep(2 * time.Millisecond)
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

// A dense build allocates only its region labels (8n: one int each) and the
// RNG's ~4.9 KB state on the Go heap; the triangle is mapped outside it, at
// exactly 4 bytes a cell. A table put back on the heap fails the first bound
// by 72 MB at this n; int64 cells or a stored diagonal fail the second.
func TestDenseMatrixAllocationBound(t *testing.T) {
	const n = 6000
	base := settledOffHeap(t)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	m, err := GenerateLatencyMatrix(DefaultLatencyConfig(n, 1))
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if limit, got := uint64(8*n+16<<10), after.TotalAlloc-before.TotalAlloc; got > limit {
		t.Errorf("dense %d-node build allocated %d heap bytes, want <= %d", n, got, limit)
	}
	if want, got := uint64(4*n*(n-1)/2), OffHeapBytes()-base; got != want {
		t.Errorf("dense %d-node build mapped %d bytes, want %d", n, got, want)
	}
	runtime.KeepAlive(m)
}

// Dropped matrices give their mappings back: after GC and the cleanups, the
// live mapped bytes return to where they started, round after round. The
// sizes include an empty table (1 node) and one smaller than a page.
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
