package sssp

import (
	"slices"

	"parsssp/internal/graph"
)

// bucketStore holds each rank's bucket lists (local vertex indices keyed
// by bucket index) with lazy deletion: when a vertex's tentative distance
// improves it is appended to its new bucket's list, and the entry in the
// old list goes stale. Stale entries are filtered against bucketOf when a
// list is read. Under bulk-synchronous execution, tentative distances
// only decrease and a bucket is processed exactly once, so a vertex is
// appended to any given bucket at most once and lists never contain
// duplicates of valid entries.
//
// The asynchronous mode (async.go) breaks that at-most-once property: a
// vertex collected from bucket k can be re-improved within k and
// re-appended to the same list. Async reads therefore filter on a
// per-vertex pending flag as well (nextPending, collectAsyncMembers),
// which the collection pass clears first-occurrence-wins, making later
// duplicates of the same vertex stale by construction.
//
// Retired list storage (dropped buckets, fully-stale lists, reset) is
// kept on a free list and handed back out by add, so a long-lived
// Machine stops allocating bucket lists after the first few queries.
type bucketStore struct {
	lists map[int64][]uint32
	free  [][]uint32
}

func newBucketStore() bucketStore {
	return bucketStore{lists: make(map[int64][]uint32)}
}

// add records that local vertex li now belongs to bucket k.
func (s *bucketStore) add(k int64, li uint32) {
	l, ok := s.lists[k]
	if !ok && len(s.free) > 0 {
		l = s.free[len(s.free)-1][:0]
		s.free = s.free[:len(s.free)-1]
	}
	s.lists[k] = append(l, li)
}

// list returns bucket k's list without removing it; entries may be stale.
func (s *bucketStore) list(k int64) []uint32 { return s.lists[k] }

// take removes and returns bucket k's list, unfiltered. The storage is
// surrendered to the caller (not recycled).
func (s *bucketStore) take(k int64) []uint32 {
	l := s.lists[k]
	delete(s.lists, k)
	return l
}

// nextNonEmpty returns the smallest bucket index > k that contains at
// least one valid entry according to bucketOf, or infBucket if none.
// Visited lists are compacted in place (stale entries dropped) and fully
// stale lists are recycled, so the amortized cost over a run is linear in
// the number of insertions.
func (s *bucketStore) nextNonEmpty(k int64, bucketOf []int64) int64 {
	for {
		best := int64(infBucket)
		//parssspvet:allow nodeterminism -- pure min reduction over the keys; result is order-insensitive
		for idx := range s.lists {
			if idx > k && idx < best {
				best = idx
			}
		}
		if best == int64(infBucket) {
			return best
		}
		l := s.lists[best]
		valid := l[:0]
		for _, li := range l {
			if bucketOf[li] == best {
				valid = append(valid, li)
			}
		}
		if len(valid) > 0 {
			s.lists[best] = valid
			return best
		}
		s.drop(best)
	}
}

// nextPending returns the smallest bucket index holding at least one
// entry that is both valid (bucketOf matches) and pending, or infBucket
// if none. Unlike nextNonEmpty it scans every bucket, not only those
// above a floor: asynchronous arrival can re-populate a bucket below the
// one processed last. Visited fully-useless lists are recycled; partially
// useless ones are compacted.
func (s *bucketStore) nextPending(bucketOf []int64, pending []bool) int64 {
	for {
		best := int64(infBucket)
		//parssspvet:allow nodeterminism -- pure min reduction over the keys; result is order-insensitive
		for idx := range s.lists {
			if idx < best {
				best = idx
			}
		}
		if best == int64(infBucket) {
			return best
		}
		l := s.lists[best]
		valid := l[:0]
		for _, li := range l {
			if bucketOf[li] == best && pending[li] {
				valid = append(valid, li)
			}
		}
		if len(valid) > 0 {
			s.lists[best] = valid
			return best
		}
		s.drop(best)
	}
}

// sumValidAbove returns Σ cost(li) over the valid entries of every
// bucket above k — under bulk-synchronous execution exactly the local
// vertices that are reached but not yet settled, each once. Visited
// lists are compacted in place and fully stale ones recycled, as in
// nextNonEmpty, so repeated calls stay linear in the insertions.
func (s *bucketStore) sumValidAbove(k int64, bucketOf []int64, cost func(li uint32) int64) int64 {
	var sum int64
	//parssspvet:allow nodeterminism -- pure sum reduction over the buckets; result is order-insensitive
	for idx, l := range s.lists {
		if idx <= k {
			continue
		}
		valid := l[:0]
		for _, li := range l {
			if bucketOf[li] == idx {
				valid = append(valid, li)
				sum += cost(li)
			}
		}
		if len(valid) == 0 {
			s.drop(idx)
			continue
		}
		s.lists[idx] = valid
	}
	return sum
}

// setList replaces bucket k's list with l, which must alias k's own
// storage after an in-place compaction (the ρ driver's capped extraction
// keeps leftover members this way). An empty l drops the bucket,
// recycling the storage.
func (s *bucketStore) setList(k int64, l []uint32) {
	if len(l) == 0 {
		s.drop(k)
		return
	}
	s.lists[k] = l
}

// drop discards bucket k, recycling its storage.
func (s *bucketStore) drop(k int64) {
	if l, ok := s.lists[k]; ok {
		if cap(l) > 0 {
			s.free = append(s.free, l)
		}
		delete(s.lists, k)
	}
}

// reset clears the store for a new query, recycling all list storage.
// The recycled slices are ordered by capacity, so that which capacity
// the next query's buckets get — and with it when an append has to grow
// one — does not depend on the map's iteration order.
func (s *bucketStore) reset() {
	n := len(s.free)
	//parssspvet:allow nodeterminism -- storage recycling; the slices are sorted by capacity below
	for k, l := range s.lists {
		if cap(l) > 0 {
			s.free = append(s.free, l)
		}
		delete(s.lists, k)
	}
	slices.SortFunc(s.free[n:], func(a, b []uint32) int { return cap(a) - cap(b) })
}

// subQueueSlots is the number of sub-buckets subQueue holds in its
// window; keys further out wait in its overflow list.
const subQueueSlots = 256

// subQueue orders the locally activated vertices of one relaxRounds
// round by distance sub-bucket (distance / width), lowest first. It is a
// bucket queue over a window of subQueueSlots consecutive keys plus an
// overflow list for keys past the window, which is redistributed when
// the window runs empty — so memory stays bounded however far apart the
// distances of a round's activations are. Keys never go below the one
// being scanned (a scan only offers distances at or above the scanned
// vertex's), so the window's cursor only moves forward.
//
// The lists are intrusive and doubly linked through per-vertex arrays:
// a vertex that moves to a lower sub-bucket is unlinked from its old
// one, every entry is live, and the queue allocates nothing after it is
// built (out aside, which grows to the largest sub-bucket once). It is
// empty between rounds; its storage serves every round of every query.
type subQueue struct {
	key        []int64 // per local vertex: its sub-bucket, or -1 when not queued
	prev, succ []int32 // per local vertex: its list neighbours, -1 at the ends
	// head[i] starts the list of sub-bucket base+i for i < subQueueSlots;
	// head[subQueueSlots] is the overflow list.
	head [subQueueSlots + 1]int32
	base int64    // first key of the window
	cur  int      // no window slot below cur holds a vertex
	n    int      // vertices in the window
	out  []uint32 // members of the last extraction
}

func newSubQueue(nLocal int) subQueue {
	q := subQueue{
		key:  make([]int64, nLocal),
		prev: make([]int32, nLocal),
		succ: make([]int32, nLocal),
	}
	q.reset()
	return q
}

// slot returns the list that holds key k under the current window.
func (q *subQueue) slot(k int64) int {
	if i := k - q.base; i < subQueueSlots {
		return int(i)
	}
	return subQueueSlots
}

func (q *subQueue) link(li uint32, s int) {
	h := q.head[s]
	q.prev[li], q.succ[li] = -1, h
	if h >= 0 {
		q.prev[h] = int32(li)
	}
	q.head[s] = int32(li)
	if s < subQueueSlots {
		q.n++
	}
}

func (q *subQueue) unlink(li uint32, s int) {
	p, nx := q.prev[li], q.succ[li]
	if p >= 0 {
		q.succ[p] = nx
	} else {
		q.head[s] = nx
	}
	if nx >= 0 {
		q.prev[nx] = p
	}
	if s < subQueueSlots {
		q.n--
	}
}

// fill queues the vertices of list (an apply pass's activations) under
// their current distances, moving those already queued. Into an empty
// queue it anchors the window at the lowest of their sub-buckets.
func (q *subQueue) fill(list []uint32, dist []graph.Dist, width graph.Dist) {
	if len(list) == 0 {
		return
	}
	if q.n == 0 && q.head[subQueueSlots] < 0 {
		q.base, q.cur = dist[list[0]]/width, 0
		for _, li := range list[1:] {
			if k := dist[li] / width; k < q.base {
				q.base = k
			}
		}
	}
	for _, li := range list {
		k := dist[li] / width
		if old := q.key[li]; old == k {
			continue
		} else if old >= 0 {
			q.unlink(li, q.slot(old))
		}
		q.key[li] = k
		q.link(li, q.slot(k))
	}
}

// next removes and returns the vertices of the lowest non-empty
// sub-bucket, or nothing when the queue is empty. The result aliases
// queue-owned scratch, valid until the next call.
func (q *subQueue) next() []uint32 {
	if q.n == 0 && !q.refill() {
		return nil
	}
	for q.head[q.cur] < 0 {
		q.cur++
	}
	// The cursor stays: the members' scan may refill this sub-bucket.
	q.out = q.collect(q.out[:0], q.cur)
	return q.out
}

// refill moves the window to the lowest key of the overflow list and
// pulls in what now falls inside it; false when the list is empty.
func (q *subQueue) refill() bool {
	far := q.head[subQueueSlots]
	if far < 0 {
		return false
	}
	base := q.key[far]
	for li := far; li >= 0; li = q.succ[li] {
		if q.key[li] < base {
			base = q.key[li]
		}
	}
	q.base, q.cur = base, 0
	for li := far; li >= 0; {
		nx := q.succ[li]
		if s := q.slot(q.key[li]); s < subQueueSlots {
			q.unlink(uint32(li), subQueueSlots)
			q.link(uint32(li), s)
		}
		li = nx
	}
	return true
}

// collect empties list s into dst and returns the extended dst.
func (q *subQueue) collect(dst []uint32, s int) []uint32 {
	for li := q.head[s]; li >= 0; li = q.succ[li] {
		q.key[li] = -1
		dst = append(dst, uint32(li))
		if s < subQueueSlots {
			q.n--
		}
	}
	q.head[s] = -1
	return dst
}

// take empties the queue into dst and returns the extended dst.
func (q *subQueue) take(dst []uint32) []uint32 {
	for s := q.cur; s <= subQueueSlots; s++ {
		dst = q.collect(dst, s)
	}
	q.cur = 0
	return dst
}

// reset empties the queue, keeping its storage. A round always drains
// it; reset matters only after a query that failed mid-round.
func (q *subQueue) reset() {
	for i := range q.key {
		q.key[i] = -1
	}
	for i := range q.head {
		q.head[i] = -1
	}
	q.n, q.cur = 0, 0
}
