package overlay

// The admission index: every attached node is filed, by depth, into
// per-level out-degree buckets, and every bucket is kept *ordered* under
// Algorithm 1's candidate order. A bucket is a pair of intrusive binary
// min-heaps of slab slots — one for members whose child slots are all
// taken, one for members with a free slot — whose per-member position lives
// in the slab's pos array (slab.go). The index exists to answer the two
// questions Algorithm 1 asks at every BFS level — "what is the weakest
// candidate here?" and "who has a free slot here?" — without sorting or
// visiting the level: the weakest candidate of a bucket is the lesser of
// its two heap tops, the best free-slot parent is the top of the free heap,
// and findPosition walks levels and degrees, never bucket members. Levels
// of a wide tree hold tens of thousands of nodes per bucket, which is why
// an unordered bucket (an argmin walk per level per join) is not enough.
//
// The index is maintained incrementally by the attach/detach primitives in
// tree.go (linkChild, unlinkChild, indexSubtree, unindexSubtree), every
// operation O(log bucket). Out-degree and out capacity are immutable per
// node, so
// bucket membership only changes when a node attaches, detaches, or changes
// depth; a member moves between the two heaps of its bucket when a child
// count crosses the free/full boundary (adjustFree); and a member's key
// changes in place only when a delay refresh moves its EffE2E — the
// tie-breaker after capacity — which Tree.settle follows with rekey, once
// per node however often the node moved since the last settle (tree.go).
// Heap sifts compare through nodeStore.lessSlot, i.e. inside the dense SoA
// arrays; a Node is dereferenced only when capacity and delay both tie.
// Because lessSlot is a total order the heap top is the unique minimum, so
// placements are exactly those of the paper-literal findPositionScan.

// bucket holds the attached nodes of one (level, out-degree) pair as two
// min-heaps of slab slots under nodeStore.lessSlot, 4 B per member.
type bucket struct {
	// full are the members with no free child slot, free those with at
	// least one; a member is in exactly one, at index store.pos[slot].
	full, free []int32
}

// half returns the heap a member belongs in.
func (b *bucket) half(hasFree bool) *[]int32 {
	if hasFree {
		return &b.free
	}
	return &b.full
}

// levelIndex holds the attached nodes of one tree depth (0 = CDN children).
type levelIndex struct {
	// count is the number of attached nodes at this level.
	count int
	// free is the number of those with at least one free child slot: the
	// total length of the buckets' free heaps.
	free int
	// buckets are indexed by out-degree.
	buckets []bucket
}

// heapUp sifts the member at index i toward the top of h.
func (s *nodeStore) heapUp(h []int32, i int32) {
	slot := h[i]
	for i > 0 {
		p := (i - 1) / 2
		if !s.lessSlot(slot, h[p]) {
			break
		}
		h[i] = h[p]
		s.pos[h[i]] = i
		i = p
	}
	h[i] = slot
	s.pos[slot] = i
}

// heapDown sifts the member at index i toward the leaves of h.
func (s *nodeStore) heapDown(h []int32, i int32) {
	slot := h[i]
	n := int32(len(h))
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && s.lessSlot(h[r], h[c]) {
			c = r
		}
		if !s.lessSlot(h[c], slot) {
			break
		}
		h[i] = h[c]
		s.pos[h[i]] = i
		i = c
	}
	h[i] = slot
	s.pos[slot] = i
}

// heapFix restores heap order around index i after its key changed.
func (s *nodeStore) heapFix(h []int32, i int32) {
	if i > 0 && s.lessSlot(h[i], h[(i-1)/2]) {
		s.heapUp(h, i)
	} else {
		s.heapDown(h, i)
	}
}

// heapPush files slot into h.
func (s *nodeStore) heapPush(h *[]int32, slot int32) {
	*h = append(*h, slot)
	s.heapUp(*h, int32(len(*h)-1))
}

// heapRemove unfiles slot from h, found through its position mirror.
func (s *nodeStore) heapRemove(h *[]int32, slot int32) {
	i := s.pos[slot]
	last := int32(len(*h) - 1)
	moved := (*h)[last]
	*h = (*h)[:last]
	s.pos[slot] = -1
	if i != last {
		(*h)[i] = moved
		s.pos[moved] = i
		s.heapFix(*h, i)
	}
}

// add files an attached node into its out-degree bucket.
func (li *levelIndex) add(s *nodeStore, n *Node) {
	slot := n.slot - 1
	for len(li.buckets) <= int(s.deg[slot]) {
		li.buckets = append(li.buckets, bucket{})
	}
	hasFree := s.freeSlotsAt(slot) > 0
	s.heapPush(li.buckets[s.deg[slot]].half(hasFree), slot)
	li.count++
	if hasFree {
		li.free++
	}
}

// remove unfiles a node. The caller must not have changed the node's child
// count since the last add/adjustFree, so its free slots still name its
// heap.
func (li *levelIndex) remove(s *nodeStore, n *Node) {
	slot := n.slot - 1
	hasFree := s.freeSlotsAt(slot) > 0
	s.heapRemove(li.buckets[s.deg[slot]].half(hasFree), slot)
	li.count--
	if hasFree {
		li.free--
	}
}

// adjustFree moves a filed node between the two heaps of its bucket after a
// child-count change took it across the free/full boundary; the kids column
// already reflects the new side.
func (li *levelIndex) adjustFree(s *nodeStore, n *Node) {
	slot := n.slot - 1
	b := &li.buckets[s.deg[slot]]
	hasFree := s.freeSlotsAt(slot) > 0
	s.heapRemove(b.half(!hasFree), slot)
	s.heapPush(b.half(hasFree), slot)
	if hasFree {
		li.free++
	} else {
		li.free--
	}
}

// rekey restores a filed node's heap position after its store.eff changed
// (Tree.settle).
func (li *levelIndex) rekey(s *nodeStore, slot int32) {
	h := li.buckets[s.deg[slot]].half(s.freeSlotsAt(slot) > 0)
	s.heapFix(*h, s.pos[slot])
}

// min returns the bucket's minimum member under lessSlot — the lesser of the
// two heap tops — or -1 when the bucket is empty.
func (b *bucket) min(s *nodeStore) int32 {
	switch {
	case len(b.full) == 0 && len(b.free) == 0:
		return -1
	case len(b.full) == 0:
		return b.free[0]
	case len(b.free) == 0 || s.lessSlot(b.full[0], b.free[0]):
		return b.full[0]
	default:
		return b.free[0]
	}
}

// weakest returns the level's minimum under the candidate order
// (sortCandidates) when a joiner with the given degree and capacity beats
// it, nil otherwise.
// The minimum lives in the lowest non-empty bucket; buckets beyond deg can
// never be beaten, so at most deg+1 buckets are probed and no member is
// visited.
func (li *levelIndex) weakest(s *nodeStore, deg int, cap float64) *Node {
	max := deg
	if max > len(li.buckets)-1 {
		max = len(li.buckets) - 1
	}
	for d := 0; d <= max; d++ {
		best := li.buckets[d].min(s)
		if best == -1 {
			continue
		}
		if d < deg || s.cap[best] < cap {
			return s.at(best)
		}
		return nil // equal degree, no weaker capacity: nothing beatable here
	}
	return nil
}

// bestFree returns the minimum free-slot node of the level under the
// candidate order — the parent Algorithm 1's virtual empty slots would
// elect — or nil when the level has no free slot: the top of the lowest
// non-empty free heap.
func (li *levelIndex) bestFree(s *nodeStore) *Node {
	for d := range li.buckets {
		if h := li.buckets[d].free; len(h) > 0 {
			return s.at(h[0])
		}
	}
	return nil
}

// hasWeakerCap reports whether some member of the exact-degree bucket has
// less out capacity than cap. Capacity is lessSlot's leading key, so the
// bucket minimum carries the minimum capacity.
func (li *levelIndex) hasWeakerCap(s *nodeStore, deg int, cap float64) bool {
	if deg >= len(li.buckets) {
		return false
	}
	best := li.buckets[deg].min(s)
	return best != -1 && s.cap[best] < cap
}
