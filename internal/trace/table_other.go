//go:build !unix

package trace

// newDenseTable allocates the table on the Go heap, where a platform
// without mmap has to keep it; see table_unix.go for why unix does not.
func newDenseTable(n int) (*denseTable, error) {
	return &denseTable{cells: make([]uint32, n)}, nil
}
