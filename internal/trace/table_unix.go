//go:build unix

package trace

import (
	"fmt"
	"runtime"
	"syscall"
	"unsafe"
)

// newDenseTable maps a table of n zeroed 4-byte cells in one anonymous
// private mapping, outside the Go heap, and registers a cleanup that unmaps
// it once the returned owner is unreachable. An empty table maps nothing.
// A failed mapping is an error: the table does not fall back to the heap.
func newDenseTable(n int) (*denseTable, error) {
	t := &denseTable{}
	if n == 0 {
		return t, nil
	}
	mem, err := mapOffHeap(4*n, "dense table")
	if err != nil {
		return nil, err
	}
	t.cells = unsafe.Slice((*uint32)(unsafe.Pointer(unsafe.SliceData(mem))), n)
	// The cleanup's argument is the mapping itself, which points outside the
	// heap and so does not keep t reachable.
	runtime.AddCleanup(t, unmapOffHeap, mem)
	return t, nil
}

// newScratch maps n zeroed float64s beside the tables, outside the Go heap,
// for the scratch of one dense build; freeScratch unmaps them before the
// build returns.
func newScratch(n int) ([]float64, error) {
	if n == 0 {
		return nil, nil
	}
	mem, err := mapOffHeap(8*n, "dense build scratch")
	if err != nil {
		return nil, err
	}
	return unsafe.Slice((*float64)(unsafe.Pointer(unsafe.SliceData(mem))), n), nil
}

// freeScratch releases what newScratch mapped.
func freeScratch(z []float64) {
	if len(z) > 0 {
		unmapOffHeap(unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(z))), 8*len(z)))
	}
}

// mapOffHeap maps size zeroed bytes in one anonymous private mapping and
// counts them in OffHeapBytes.
func mapOffHeap(size int, what string) ([]byte, error) {
	mem, err := syscall.Mmap(-1, 0, size, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("map %d-byte %s: %w", size, what, err)
	}
	offHeapBytes.Add(int64(len(mem)))
	return mem, nil
}

// unmapOffHeap releases a mapping mapOffHeap made. Munmap fails only on a
// mapping syscall.Mmap did not hand out, which is a bug, not a condition.
func unmapOffHeap(mem []byte) {
	offHeapBytes.Add(-int64(len(mem)))
	if err := syscall.Munmap(mem); err != nil {
		panic(fmt.Sprintf("trace: unmap %d-byte mapping: %v", len(mem), err))
	}
}
