package session

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"telecast/internal/trace"
)

// testAllocator builds a region-aware allocator over a fresh latency matrix,
// returning it with the matrix for region queries.
func testAllocator(t *testing.T, nodes int) (*nodeAllocator, *trace.LatencyMatrix) {
	t.Helper()
	lat, err := trace.GenerateLatencyMatrix(trace.DefaultLatencyConfig(nodes, 5))
	if err != nil {
		t.Fatal(err)
	}
	a := &nodeAllocator{}
	a.init(1+lat.NumRegions(), lat.Nodes())
	a.initRegions(lat)
	return a, lat
}

// drainRegion acquires every node of one region through the hint path,
// returning the indices taken.
func drainRegion(t *testing.T, a *nodeAllocator, r trace.Region) []int {
	t.Helper()
	var got []int
	for {
		idx, ok := a.acquireInStrict(r)
		if !ok {
			return got
		}
		got = append(got, idx)
	}
}

func TestAllocatorFallbackAfterRegionExhaustion(t *testing.T) {
	a, lat := testAllocator(t, 64)
	hot := trace.Region(0)
	inRegion := drainRegion(t, a, hot)
	if len(inRegion) == 0 {
		t.Fatal("region 0 holds no allocatable node")
	}
	for _, idx := range inRegion {
		if lat.RegionOf(idx) != hot {
			t.Fatalf("strict acquire handed out node %d of region %d", idx, lat.RegionOf(idx))
		}
	}
	// Strict: exhausted region fails.
	if _, ok := a.acquireInStrict(hot); ok {
		t.Fatal("strict acquire succeeded on an exhausted region")
	}
	// Best-effort: the hint falls back to a cross-region node.
	idx, ok := a.acquireIn(InRegion(hot))
	if !ok {
		t.Fatal("hinted acquire failed with free nodes in other regions")
	}
	if lat.RegionOf(idx) == hot {
		t.Fatalf("fallback produced node %d of the exhausted region", idx)
	}
	// After a free, the hint is honored again — with exactly the node the
	// region got back.
	released := inRegion[len(inRegion)/2]
	a.release(released)
	got, ok := a.acquireIn(InRegion(hot))
	if !ok || got != released {
		t.Fatalf("hinted acquire after free returned %d (ok=%t), want released node %d", got, ok, released)
	}
}

func TestAllocatorLazyTakenInvalidation(t *testing.T) {
	a, lat := testAllocator(t, 64)
	hot := trace.Region(1)
	// Take a hot-region node via the hint path and release it, seeding the
	// region's free pool.
	idx, ok := a.acquireInStrict(hot)
	if !ok {
		t.Fatal("region 1 holds no allocatable node")
	}
	a.release(idx)
	// Consume the same node through the default path (the global free list
	// is served before the sequential cursor), leaving the region pool's
	// entry stale.
	def, ok := a.acquire()
	if !ok || def != idx {
		t.Fatalf("default acquire returned %d (ok=%t), want the freed node %d", def, ok, idx)
	}
	// The hint path must lazily discard the stale pool entry — never hand
	// the node out twice — and fall through to the region's untouched
	// sequence.
	again, ok := a.acquireInStrict(hot)
	if !ok {
		t.Fatal("strict acquire failed with untouched nodes left in the region")
	}
	if again == idx {
		t.Fatalf("node %d handed out twice", idx)
	}
	if lat.RegionOf(again) != hot {
		t.Fatalf("strict acquire escaped to region %d", lat.RegionOf(again))
	}
}

func TestAllocatorNeverDoubleAllocates(t *testing.T) {
	a, lat := testAllocator(t, 96)
	regions := lat.NumRegions()
	seen := make(map[int]bool)
	acquire := func(idx int, ok bool) {
		t.Helper()
		if !ok {
			return
		}
		if seen[idx] {
			t.Fatalf("node %d allocated twice", idx)
		}
		seen[idx] = true
	}
	// Interleave every acquisition path against shared state, releasing a
	// node occasionally so pools and free lists stay populated.
	for i := 0; i < 4*96; i++ {
		switch i % 4 {
		case 0:
			idx, ok := a.acquire()
			acquire(idx, ok)
		case 1:
			idx, ok := a.acquireIn(InRegion(trace.Region(i % regions)))
			acquire(idx, ok)
		case 2:
			idx, ok := a.acquireInStrict(trace.Region(i % regions))
			acquire(idx, ok)
		default:
			for idx := range seen {
				delete(seen, idx)
				a.release(idx)
				break
			}
		}
	}
}

// mixedAllocatorOps drives the allocator through a seeded mix of every
// acquisition path — unhinted acquire, hinted acquireIn (set and unset
// hints), strict acquireInStrict — and releases of held nodes, calling visit
// with each acquisition's result in order.
func mixedAllocatorOps(a *nodeAllocator, regions, steps int, seed int64, visit func(idx int, ok bool)) {
	rng := rand.New(rand.NewSource(seed))
	var held []int
	for i := 0; i < steps; i++ {
		var idx int
		var ok bool
		switch op := rng.Intn(20); {
		case op < 10 && len(held) > 0:
			k := rng.Intn(len(held))
			a.release(held[k])
			held[k] = held[len(held)-1]
			held = held[:len(held)-1]
			continue
		case op < 13:
			idx, ok = a.acquire()
		case op < 15:
			idx, ok = a.acquireIn(RegionHint{})
		case op < 18:
			idx, ok = a.acquireIn(InRegion(trace.Region(rng.Intn(regions))))
		default:
			idx, ok = a.acquireInStrict(trace.Region(rng.Intn(regions)))
		}
		if ok {
			held = append(held, idx)
		}
		visit(idx, ok)
	}
}

// TestAllocatorHandOutOrderPinned pins the exact node sequence a seeded mix
// of all acquisition paths and releases hands out over a small multi-region
// matrix. The allocator's bookkeeping may change shape; the order it hands
// nodes out in is behaviour (placement decides each viewer's region and
// delays) and must not.
func TestAllocatorHandOutOrderPinned(t *testing.T) {
	a, lat := testAllocator(t, 96)
	const steps = 20000
	h := fnv.New64a()
	var buf [8]byte
	var first []int
	handed := 0
	mixedAllocatorOps(a, lat.NumRegions(), steps, 43, func(idx int, ok bool) {
		if !ok {
			idx = -1
		} else {
			handed++
		}
		if len(first) < 16 {
			first = append(first, idx)
		}
		binary.LittleEndian.PutUint64(buf[:], uint64(int64(idx)))
		h.Write(buf[:])
	})
	wantFirst := []int{9, 10, 11, 12, 27, 12, 14, 9, 9, 25, 10, 17, 11, 13, 9, 27}
	const wantHanded, wantDigest = 9951, uint64(0x62adfb95c5da4233)
	if !slices.Equal(first, wantFirst) || handed != wantHanded || h.Sum64() != wantDigest {
		t.Fatalf("hand-out order moved: first %v, %d handed, digest %#x; want %v, %d, %#x",
			first, handed, h.Sum64(), wantFirst, wantHanded, wantDigest)
	}
}

// checkNodeList walks a list front to back and fails unless its links are
// consistent both ways, it holds no more entries than the matrix has nodes,
// and — when quiescent — it lists no taken node.
func checkNodeList(t *testing.T, a *nodeAllocator, name string, l *nodeList, nodes int, quiescent bool) {
	t.Helper()
	n, prev := 0, int32(0)
	for ref := l.head; ref != 0; ref = l.links[ref-1].next {
		idx := ref - 1
		if l.links[idx].prev != prev {
			t.Fatalf("%s: node %d links back to %d, want %d", name, idx, l.links[idx].prev-1, prev-1)
		}
		if quiescent && a.taken[idx].Load() {
			t.Errorf("%s lists taken node %d", name, idx)
		}
		if n++; n > nodes {
			t.Fatalf("%s holds more entries than the matrix has nodes (%d)", name, nodes)
		}
		prev = ref
	}
}

// TestAllocatorListsBoundedByNodes runs a long seeded mix of every
// acquisition path and release and requires each list to hold every node at
// most once and no taken node — so no list can outgrow the matrix, however
// many nodes have been recycled.
func TestAllocatorListsBoundedByNodes(t *testing.T) {
	a, lat := testAllocator(t, 96)
	mixedAllocatorOps(a, lat.NumRegions(), 100_000, 44, func(int, bool) {})
	checkNodeList(t, a, "default list", &a.free, lat.Nodes(), true)
	for r, p := range a.pools {
		checkNodeList(t, a, fmt.Sprintf("region %d pool", r), &p.free, lat.Nodes(), true)
	}
}

// TestAllocatorConcurrentPaths runs every acquisition path and release from
// several goroutines at once over a small matrix. No node may be owned twice,
// and once everything is released the lists must still be well-formed and
// bounded. Run with -race.
func TestAllocatorConcurrentPaths(t *testing.T) {
	a, lat := testAllocator(t, 96)
	owner := make([]atomic.Int32, lat.Nodes())
	var wg sync.WaitGroup
	for w := int32(1); w <= 4; w++ {
		wg.Add(1)
		go func(w int32) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			var held []int
			for i := 0; i < 20_000; i++ {
				var idx int
				var ok bool
				switch op := rng.Intn(4); {
				case op == 0 && len(held) > 0:
					idx, held = held[len(held)-1], held[:len(held)-1]
					owner[idx].Store(0)
					a.release(idx)
					continue
				case op == 1:
					idx, ok = a.acquire()
				case op == 2:
					idx, ok = a.acquireIn(InRegion(trace.Region(rng.Intn(lat.NumRegions()))))
				default:
					idx, ok = a.acquireInStrict(trace.Region(rng.Intn(lat.NumRegions())))
				}
				if !ok {
					continue
				}
				if prev := owner[idx].Swap(w); prev != 0 {
					t.Errorf("node %d handed to worker %d while worker %d held it", idx, w, prev)
					return
				}
				held = append(held, idx)
			}
			for _, idx := range held {
				owner[idx].Store(0)
				a.release(idx)
			}
		}(w)
	}
	wg.Wait()
	if n := a.takenCount(); n != 0 {
		t.Fatalf("%d nodes still taken after every worker released its own", n)
	}
	checkNodeList(t, a, "default list", &a.free, lat.Nodes(), true)
	for r, p := range a.pools {
		checkNodeList(t, a, fmt.Sprintf("region %d pool", r), &p.free, lat.Nodes(), true)
	}
}
