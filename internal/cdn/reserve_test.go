package cdn

import (
	"errors"
	"math/rand"
	"sync"
	"testing"
)

// TestParallelReserveNeverOversubscribes is the contention proof: many
// goroutines hammer Allocate/Release against a tight budget, and neither
// the live total nor the high-water mark may ever exceed the bound — the
// invariant the Δ-bounded egress depends on.
func TestParallelReserveNeverOversubscribes(t *testing.T) {
	const capMbps = 100.0
	c := New(Config{OutboundCapacityMbps: capMbps})
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			var held float64
			release := func(bw float64) bool {
				if err := c.Release(s1, bw); err != nil {
					t.Errorf("release: %v", err)
					return false
				}
				held -= bw
				return true
			}
			for i := 0; i < 2000; i++ {
				bw := float64(1 + rng.Intn(5))
				if err := c.Allocate(s1, bw); err != nil {
					if !errors.Is(err, ErrCapacity) {
						t.Errorf("allocate: %v", err)
						return
					}
					// Budget full: return something if we hold any.
					if held >= 2 && !release(2) {
						return
					}
					continue
				}
				held += bw
				if got := c.Snapshot().OutTotalMbps; got > capMbps {
					t.Errorf("oversubscribed: %v > %v", got, capMbps)
					return
				}
				// Half the allocations are handed straight back.
				if rng.Intn(2) == 0 && !release(bw) {
					return
				}
			}
			// Drain what this goroutine still holds.
			for held >= 1 {
				if !release(1) {
					return
				}
			}
		}(g)
	}
	wg.Wait()
	u := c.Snapshot()
	if u.PeakOutMbps > capMbps {
		t.Fatalf("peak %v exceeded capacity %v", u.PeakOutMbps, capMbps)
	}
	if u.OutTotalMbps > 1e-6 {
		t.Fatalf("leaked %v Mbps", u.OutTotalMbps)
	}
}
