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
	mem, err := syscall.Mmap(-1, 0, 4*n, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("map %d-byte dense table: %w", 4*n, err)
	}
	t.cells = unsafe.Slice((*uint32)(unsafe.Pointer(unsafe.SliceData(mem))), n)
	offHeapBytes.Add(int64(len(mem)))
	// The cleanup's argument is the mapping itself, which points outside the
	// heap and so does not keep t reachable.
	runtime.AddCleanup(t, unmapTable, mem)
	return t, nil
}

// unmapTable releases a dense table's mapping. Munmap fails only on a
// mapping syscall.Mmap did not hand out, which is a bug, not a condition.
func unmapTable(mem []byte) {
	offHeapBytes.Add(-int64(len(mem)))
	if err := syscall.Munmap(mem); err != nil {
		panic(fmt.Sprintf("trace: unmap %d-byte dense table: %v", len(mem), err))
	}
}
