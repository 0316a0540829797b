//go:build !unix

package trace

// newDenseTable allocates the table on the Go heap, where a platform
// without mmap has to keep it; see table_unix.go for why unix does not.
func newDenseTable(n int) (*denseTable, error) {
	return &denseTable{cells: make([]uint32, n)}, nil
}

// newScratch allocates a dense build's scratch on the Go heap.
func newScratch(n int) ([]float64, error) { return make([]float64, n), nil }

// freeScratch leaves the scratch to the garbage collector.
func freeScratch([]float64) {}
