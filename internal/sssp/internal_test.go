package sssp

import (
	"testing"
	"testing/quick"

	"parsssp/internal/graph"
)

// Tests for the unexported building blocks: the bucket store and the wire
// record codecs.

func TestBucketStoreBasics(t *testing.T) {
	s := newBucketStore()
	bucketOf := []int64{0, 0, 3, infBucket}
	s.add(0, 0)
	s.add(0, 1)
	s.add(3, 2)
	one := func(uint32) int64 { return 1 }
	if got := s.sumValidAbove(-1, bucketOf, one); got != 3 {
		t.Errorf("sumValidAbove(-1) = %d, want 3", got)
	}
	if got := s.sumValidAbove(0, bucketOf, one); got != 1 {
		t.Errorf("sumValidAbove(0) = %d, want 1", got)
	}
	if got := s.nextNonEmpty(0, bucketOf); got != 3 {
		t.Errorf("nextNonEmpty(0) = %d, want 3", got)
	}
	if got := s.nextNonEmpty(3, bucketOf); got != int64(infBucket) {
		t.Errorf("nextNonEmpty(3) = %d, want infBucket", got)
	}
}

func TestBucketStoreStaleEntries(t *testing.T) {
	s := newBucketStore()
	bucketOf := []int64{1, 5}
	// Vertex 0 was inserted into bucket 5, then moved down to bucket 1:
	// the bucket-5 entry is stale.
	s.add(5, 0)
	s.add(1, 0)
	s.add(5, 1)
	if got := s.sumValidAbove(1, bucketOf, func(uint32) int64 { return 1 }); got != 1 {
		t.Errorf("sumValidAbove(1) = %d, want 1 (stale entry filtered)", got)
	}
	if got := len(s.list(5)); got != 1 {
		t.Errorf("bucket 5 kept %d entries after the scan, want 1 (compacted)", got)
	}
	if got := s.nextNonEmpty(0, bucketOf); got != 1 {
		t.Errorf("nextNonEmpty(0) = %d, want 1", got)
	}
	// After bucket 1 empties, only the valid bucket-5 entry remains.
	s.drop(1)
	if got := s.nextNonEmpty(1, bucketOf); got != 5 {
		t.Errorf("nextNonEmpty(1) = %d, want 5", got)
	}
	l := s.list(5)
	valid := 0
	for _, li := range l {
		if bucketOf[li] == 5 {
			valid++
		}
	}
	if valid != 1 {
		t.Errorf("bucket 5 kept %d valid entries, want 1", valid)
	}
}

func TestBucketStoreFullyStaleBucketSkipped(t *testing.T) {
	s := newBucketStore()
	bucketOf := []int64{2, 9}
	s.add(4, 0) // stale: vertex 0 is in bucket 2 now
	s.add(9, 1)
	if got := s.nextNonEmpty(2, bucketOf); got != 9 {
		t.Errorf("nextNonEmpty skipped to %d, want 9", got)
	}
	if _, exists := s.lists[4]; exists {
		t.Error("fully stale bucket 4 not deleted")
	}
}

func TestBucketStoreTake(t *testing.T) {
	s := newBucketStore()
	s.add(7, 3)
	l := s.take(7)
	if len(l) != 1 || l[0] != 3 {
		t.Errorf("take(7) = %v", l)
	}
	if s.list(7) != nil {
		t.Error("take did not remove the list")
	}
}

func TestRelaxRecordRoundTrip(t *testing.T) {
	var buf []byte
	buf = appendRelax(buf, 42, 7, 1234567890123)
	buf = appendRelax(buf, 0, 0, 0)
	buf = appendRelax(buf, ^graph.Vertex(0), NoParent, graph.Inf)
	if numRelaxRecords(buf) != 3 {
		t.Fatalf("numRelaxRecords = %d", numRelaxRecords(buf))
	}
	v, par, d := decodeRelax(buf, 0)
	if v != 42 || par != 7 || d != 1234567890123 {
		t.Errorf("record 0 = (%d, %d, %d)", v, par, d)
	}
	v, par, d = decodeRelax(buf, 2)
	if v != ^graph.Vertex(0) || par != NoParent || d != graph.Inf {
		t.Errorf("record 2 = (%d, %d, %d)", v, par, d)
	}
}

func TestRequestRecordRoundTrip(t *testing.T) {
	var buf []byte
	buf = appendRequest(buf, 7, 9, 255)
	u, v, w := decodeRequest(buf, 0)
	if u != 7 || v != 9 || w != 255 {
		t.Errorf("request = (%d, %d, %d)", u, v, w)
	}
}

func TestQuickRecordCodec(t *testing.T) {
	fRelax := func(v, par uint32, d int64) bool {
		buf := appendRelax(nil, v, par, d)
		gv, gp, gd := decodeRelax(buf, 0)
		return gv == v && gp == par && gd == d && len(buf) == relaxRecordSize
	}
	if err := quick.Check(fRelax, nil); err != nil {
		t.Error(err)
	}
	fReq := func(u, v, w uint32) bool {
		buf := appendRequest(nil, u, v, w)
		gu, gv, gw := decodeRequest(buf, 0)
		return gu == u && gv == v && gw == w && len(buf) == requestRecordSize
	}
	if err := quick.Check(fReq, nil); err != nil {
		t.Error(err)
	}
}

func TestModeString(t *testing.T) {
	if ModePush.String() != "push" || ModePull.String() != "pull" {
		t.Error("mode names wrong")
	}
}

func TestPresetShapes(t *testing.T) {
	del := DelOptions(25)
	if !del.EdgeClassification || del.Prune || del.Hybrid || del.IOS {
		t.Errorf("DelOptions misconfigured: %+v", del)
	}
	prune := PruneOptions(25)
	if !prune.Prune || !prune.IOS || prune.Hybrid {
		t.Errorf("PruneOptions misconfigured: %+v", prune)
	}
	opt := OptOptions(25)
	if !opt.Prune || !opt.Hybrid || opt.LoadBalance {
		t.Errorf("OptOptions misconfigured: %+v", opt)
	}
	lb := LBOptOptions(25)
	if !lb.LoadBalance {
		t.Errorf("LBOptOptions misconfigured: %+v", lb)
	}
	if DijkstraOptions().Delta != 1 {
		t.Error("DijkstraOptions Delta != 1")
	}
	if BellmanFordOptions().Delta != BellmanFordDelta {
		t.Error("BellmanFordOptions Delta != BellmanFordDelta")
	}
}
