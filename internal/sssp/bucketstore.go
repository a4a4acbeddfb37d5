package sssp

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
// Only the capacities of the recycled slices depend on the (map-ordered)
// recycling order, never any computed result.
func (s *bucketStore) reset() {
	//parssspvet:allow nodeterminism -- storage recycling; order affects only slice capacities
	for k, l := range s.lists {
		if cap(l) > 0 {
			s.free = append(s.free, l)
		}
		delete(s.lists, k)
	}
}
