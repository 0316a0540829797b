package session

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
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
	a.init(lat, 1+lat.NumRegions())
	return a, lat
}

// has reports whether idx's bit is set.
func (b takenBits) has(idx int) bool { return b[idx>>6].Load()&(1<<(idx&63)) != 0 }

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

// TestAllocatorDefaultPathTakesRegionRelease: a node released into its
// region's pool is the default path's next node too, and once that path has
// claimed it the region hands out its next fresh node, not the claimed one.
func TestAllocatorDefaultPathTakesRegionRelease(t *testing.T) {
	a, lat := testAllocator(t, 64)
	hot := trace.Region(1)
	// Take a hot-region node via the hint path and release it, seeding the
	// region's free pool.
	idx, ok := a.acquireInStrict(hot)
	if !ok {
		t.Fatal("region 1 holds no allocatable node")
	}
	a.release(idx)
	// Consume the same node through the default path (the most recent
	// release is served before any never-allocated node).
	def, ok := a.acquire()
	if !ok || def != idx {
		t.Fatalf("default acquire returned %d (ok=%t), want the freed node %d", def, ok, idx)
	}
	// The hint path must not hand the node out twice: it falls through to
	// the region's untouched nodes.
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
	auditPools(t, a, lat)
}

// TestAllocatorDoubleReleaseListsOnce: releasing a node twice lists it once,
// so it is handed out once before the allocator moves on.
func TestAllocatorDoubleReleaseListsOnce(t *testing.T) {
	a, lat := testAllocator(t, 64)
	idx, ok := a.acquire()
	if !ok {
		t.Fatal("fresh allocator handed out nothing")
	}
	a.release(idx)
	a.release(idx)
	auditPools(t, a, lat)
	seen := 0
	for {
		got, ok := a.acquire()
		if !ok {
			break
		}
		if got == idx {
			seen++
		}
	}
	if seen != 1 {
		t.Fatalf("node %d handed out %d times after a double release, want once", idx, seen)
	}
	if n, want := a.takenCount(), lat.Nodes()-1-lat.NumRegions(); n != want {
		t.Fatalf("%d nodes taken after draining, want every allocatable node (%d)", n, want)
	}
	auditPools(t, a, lat)
}

// TestAllocatorFirstReleaseAllocatesNoTable: recycling one node on a large
// matrix costs a stack entry, not a table sized by the matrix. MemStats are
// process-wide, so goroutines earlier tests left running can only add to a
// reading; the least of a few trials on fresh allocators is the path's own.
func TestAllocatorFirstReleaseAllocatesNoTable(t *testing.T) {
	least := uint64(math.MaxUint64)
	for range 5 {
		a, _ := testAllocator(t, 100_000)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		idx, ok := a.acquire()
		if !ok {
			t.Fatal("fresh allocator handed out nothing")
		}
		a.release(idx)
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	if least > 4<<10 {
		t.Fatalf("one acquire and release allocated %d B on a 100 000-node matrix, want <= 4 KiB", least)
	}
}

// TestAllocatorInitTakesABitPerNode: the ownership record is a bitset, so
// readying a 100 000-node matrix costs 12.5 KB of taken bits plus the
// region pools, where a flag per node cost 400 KB. Least of a few trials,
// as above.
func TestAllocatorInitTakesABitPerNode(t *testing.T) {
	lat, err := trace.GenerateLatencyMatrix(trace.DefaultLatencyConfig(100_000, 5))
	if err != nil {
		t.Fatal(err)
	}
	least := uint64(math.MaxUint64)
	for range 5 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		a := &nodeAllocator{}
		a.init(lat, 1+lat.NumRegions())
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
		runtime.KeepAlive(a)
	}
	t.Logf("init allocated %d B", least)
	if least > 16<<10 {
		t.Fatalf("init allocated %d B for a 100 000-node matrix, want <= 16 KiB", least)
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

// auditPools checks a quiescent allocator's pools against its taken bitmap.
// Each pool's stack lists free nodes of its own region only, each once, in
// increasing stamp order under its published top stamp, and its cursor sits
// on a node of its region (or at the end). Every allocatable node is exactly
// one of listed, taken, or never reached (at or past its region's cursor),
// and no node outside the allocatable range is listed or taken.
func auditPools(t *testing.T, a *nodeAllocator, lat *trace.LatencyMatrix) {
	t.Helper()
	start := 1 + lat.NumRegions()
	listed := make([]bool, lat.Nodes())
	for r := range a.pools {
		p := &a.pools[r]
		stamp := uint64(0)
		for _, e := range p.free {
			switch {
			case e.idx < start || e.idx >= lat.Nodes():
				t.Fatalf("region %d pool lists node %d outside [%d, %d)", r, e.idx, start, lat.Nodes())
			case lat.RegionOf(e.idx) != trace.Region(r):
				t.Errorf("region %d pool lists node %d of region %d", r, e.idx, lat.RegionOf(e.idx))
			case listed[e.idx]:
				t.Errorf("node %d listed twice", e.idx)
			case e.stamp <= stamp:
				t.Errorf("region %d pool: node %d stamp %d not above the entry below it (%d)", r, e.idx, e.stamp, stamp)
			}
			listed[e.idx], stamp = true, e.stamp
		}
		if top := p.top.Load(); top != stamp {
			t.Errorf("region %d pool publishes top stamp %d, its stack's top is %d", r, top, stamp)
		}
		if c := int(p.cursor.Load()); c < lat.Nodes() && lat.RegionOf(c) != trace.Region(r) {
			t.Errorf("region %d cursor sits on node %d of region %d", r, c, lat.RegionOf(c))
		}
	}
	for idx := range lat.Nodes() {
		taken := a.taken.has(idx)
		if idx < start {
			if taken || listed[idx] {
				t.Errorf("reserved node %d is taken or listed", idx)
			}
			continue
		}
		unreached := idx >= int(a.pools[lat.RegionOf(idx)].cursor.Load())
		if n := btoi(listed[idx]) + btoi(taken) + btoi(unreached); n != 1 {
			t.Errorf("node %d: listed %t, taken %t, never reached %t; want exactly one", idx, listed[idx], taken, unreached)
		}
	}
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// TestAllocatorListsBoundedByNodes runs a long seeded mix of every
// acquisition path and release and requires each pool to list every node at
// most once and no taken node — so no pool can outgrow the matrix, however
// many nodes have been recycled.
func TestAllocatorListsBoundedByNodes(t *testing.T) {
	a, lat := testAllocator(t, 96)
	mixedAllocatorOps(a, lat.NumRegions(), 100_000, 44, func(int, bool) {})
	auditPools(t, a, lat)
}

// TestAllocatorConcurrentPaths runs every acquisition path and release from
// several goroutines at once over a small matrix. No node may be owned twice,
// and once everything is released the pools must pass the audit. Run with
// -race.
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
	auditPools(t, a, lat)
}
