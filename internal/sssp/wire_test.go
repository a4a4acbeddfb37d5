package sssp

import (
	"math/rand"
	"reflect"
	"testing"

	"parsssp/internal/graph"
	"parsssp/internal/rmat"
)

// randomRelaxBatch builds an unsorted batch whose destinations cluster
// (mostly tiny gaps with occasional large jumps), so the delta encoding
// sees both its best and worst cases.
func randomRelaxBatch(rng *rand.Rand, n int) []relaxRec {
	recs := make([]relaxRec, n)
	v := graph.Vertex(rng.Intn(100))
	for i := range recs {
		if rng.Intn(4) == 0 {
			v += graph.Vertex(rng.Intn(1 << 20))
		} else {
			v += graph.Vertex(rng.Intn(3))
		}
		recs[i] = relaxRec{
			v:      v,
			parent: graph.Vertex(rng.Uint32()),
			dist:   graph.Dist(rng.Int63n(int64(graph.Inf))),
		}
	}
	rng.Shuffle(n, func(i, j int) { recs[i], recs[j] = recs[j], recs[i] })
	return recs
}

func TestRelaxBatchRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var sorter relaxSorter
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(300)
		recs := randomRelaxBatch(rng, n)
		sortRelaxBatch(&sorter, recs)
		for i := 1; i < n; i++ {
			if recs[i-1].v > recs[i].v {
				t.Fatalf("trial %d: batch not sorted at %d", trial, i)
			}
		}
		buf := encodeRelaxBatch(nil, recs)
		if got := wireRecordCount(buf, relaxKind, WireV2); got != n {
			t.Fatalf("trial %d: wireRecordCount = %d, want %d", trial, got, n)
		}
		rd := newRelaxReader(buf, WireV2)
		for i := 0; i < n; i++ {
			v, par, d, ok := rd.next()
			if !ok {
				t.Fatalf("trial %d: reader exhausted at record %d of %d", trial, i, n)
			}
			if v != recs[i].v || par != recs[i].parent || d != recs[i].dist {
				t.Fatalf("trial %d: record %d = (%d,%d,%d), want (%d,%d,%d)",
					trial, i, v, par, d, recs[i].v, recs[i].parent, recs[i].dist)
			}
		}
		if _, _, _, ok := rd.next(); ok {
			t.Fatalf("trial %d: reader returned more than %d records", trial, n)
		}
	}
}

func TestRequestBatchRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 100; trial++ {
		n := rng.Intn(200)
		reqs := make([]requestRec, n)
		for i := range reqs {
			reqs[i] = requestRec{graph.Vertex(rng.Uint32()), graph.Vertex(rng.Uint32()), graph.Weight(rng.Uint32())}
		}
		v1buf := encodeRequests(nil, reqs, WireV1)
		v2buf := encodeRequests(nil, reqs, WireV2)
		// Both formats must yield the same records in the same (emission)
		// order: the responder's output order depends on it.
		for _, tc := range []struct {
			wf  WireFormat
			buf []byte
		}{{WireV1, v1buf}, {WireV2, v2buf}} {
			if got := wireRecordCount(tc.buf, requestKind, tc.wf); got != n {
				t.Fatalf("trial %d %v: wireRecordCount = %d, want %d", trial, tc.wf, got, n)
			}
			rd := newRequestReader(tc.buf, tc.wf)
			for i := 0; i < n; i++ {
				u, v, w, ok := rd.next()
				if !ok {
					t.Fatalf("trial %d %v: exhausted at %d of %d", trial, tc.wf, i, n)
				}
				if u != reqs[i].u || v != reqs[i].v || w != reqs[i].w {
					t.Fatalf("trial %d %v: record %d mismatch", trial, tc.wf, i)
				}
			}
			if _, _, _, ok := rd.next(); ok {
				t.Fatalf("trial %d %v: extra records", trial, tc.wf)
			}
		}
	}
}

// TestWireReadersTolerateCorruption fuzzes the decode path: random bytes
// and truncated valid batches must terminate without panicking, never
// yielding more records than claimed. This is the property the engine
// relies on when it trusts wireRecordCount for sizing decisions.
func TestWireReadersTolerateCorruption(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	drain := func(buf []byte, wf WireFormat) {
		rd := newRelaxReader(buf, wf)
		for {
			if _, _, _, ok := rd.next(); !ok {
				break
			}
		}
		qd := newRequestReader(buf, wf)
		for {
			if _, _, _, ok := qd.next(); !ok {
				break
			}
		}
		_ = wireRecordCount(buf, relaxKind, wf)
		_ = wireRecordCount(buf, requestKind, wf)
	}
	for trial := 0; trial < 500; trial++ {
		buf := make([]byte, rng.Intn(64))
		rng.Read(buf)
		drain(buf, WireV1)
		drain(buf, WireV2)
	}
	// Every truncation of a valid v2 batch must also decode cleanly.
	var sorter relaxSorter
	recs := randomRelaxBatch(rng, 50)
	sortRelaxBatch(&sorter, recs)
	valid := encodeRelaxBatch(nil, recs)
	for k := 0; k <= len(valid); k++ {
		drain(valid[:k], WireV2)
	}
}

// wireRunKey extracts the fields of a run that must be independent of
// the wire format (and of anything else nondeterministic like timings).
type wireRunKey struct {
	Relax           RelaxCounts
	Phases, Epochs  int64
	BFPhases        int64
	HybridSwitched  bool
	Reached         int64
	Decisions       []Mode
	Buckets         []BucketStats
	RecordsSent     int64
	RecordsReceived int64
	ExchangeCalls   int64
}

func runKey(r *Result) wireRunKey {
	return wireRunKey{
		Relax:           r.Stats.Relax,
		Phases:          r.Stats.Phases,
		Epochs:          r.Stats.Epochs,
		BFPhases:        r.Stats.BFPhases,
		HybridSwitched:  r.Stats.HybridSwitched,
		Reached:         r.Stats.Reached,
		Decisions:       r.Stats.Decisions,
		Buckets:         r.Stats.Buckets,
		RecordsSent:     r.Stats.Traffic.RecordsSent,
		RecordsReceived: r.Stats.Traffic.RecordsReceived,
		ExchangeCalls:   r.Stats.Traffic.ExchangeCalls,
	}
}

// TestWireFormatsEquivalent runs the same queries under v1 and v2 and
// demands identical results and identical record-level statistics: the
// codec may only change how records are spelled on the wire, never which
// records exist or what they do.
func TestWireFormatsEquivalent(t *testing.T) {
	g, err := rmat.Generate(rmat.Family1(10, 7))
	if err != nil {
		t.Fatal(err)
	}
	src := testRoot(g)
	cases := []struct {
		name string
		opts Options
	}{
		{"del", DelOptions(20)},
		{"opt", func() Options {
			o := OptOptions(25)
			o.Threads = 2
			return o
		}()},
		{"lbopt-parallel", func() Options {
			o := LBOptOptions(25)
			o.Threads = 3
			o.ParallelApply = true
			return o
		}()},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			o1, o2 := tc.opts, tc.opts
			o1.WireFormat = WireV1
			o2.WireFormat = WireV2
			r1 := mustRun(t, g, 4, src, o1)
			r2 := mustRun(t, g, 4, src, o2)
			if !reflect.DeepEqual(r1.Dist, r2.Dist) {
				t.Error("distances differ between wire formats")
			}
			if !reflect.DeepEqual(r1.Parent, r2.Parent) {
				t.Error("parents differ between wire formats")
			}
			k1, k2 := runKey(r1), runKey(r2)
			if !reflect.DeepEqual(k1, k2) {
				t.Errorf("record-level stats differ:\nv1: %+v\nv2: %+v", k1, k2)
			}
			if k1.RecordsSent == 0 {
				t.Error("no records sent; equivalence test is vacuous")
			}
			if v1, v2 := r1.Stats.Traffic.BytesSent, r2.Stats.Traffic.BytesSent; v2 >= v1 {
				t.Errorf("v2 BytesSent %d not below v1 %d", v2, v1)
			}
		})
	}
}

// TestWireV2CutsBytesScale13 is the acceptance measurement from the
// issue: on a scale-13 RMAT-1 graph over 4 ranks, v2 must cut BytesSent
// by at least 40%% at identical RecordsSent.
func TestWireV2CutsBytesScale13(t *testing.T) {
	if testing.Short() {
		t.Skip("scale-13 acceptance run skipped in -short mode")
	}
	g, err := rmat.Generate(rmat.Family1(13, 99))
	if err != nil {
		t.Fatal(err)
	}
	src := testRoot(g)
	o1 := OptOptions(25)
	o1.Threads = 2
	o2 := o1
	o1.WireFormat = WireV1
	o2.WireFormat = WireV2
	r1 := mustRun(t, g, 4, src, o1)
	r2 := mustRun(t, g, 4, src, o2)
	if r1.Stats.Traffic.RecordsSent != r2.Stats.Traffic.RecordsSent {
		t.Fatalf("RecordsSent differ: v1 %d, v2 %d",
			r1.Stats.Traffic.RecordsSent, r2.Stats.Traffic.RecordsSent)
	}
	b1, b2 := r1.Stats.Traffic.BytesSent, r2.Stats.Traffic.BytesSent
	if b1 == 0 {
		t.Fatal("v1 sent no bytes; acceptance test is vacuous")
	}
	cut := 1 - float64(b2)/float64(b1)
	t.Logf("scale-13: v1 %d bytes, v2 %d bytes, cut %.1f%% (%d records)",
		b1, b2, 100*cut, r1.Stats.Traffic.RecordsSent)
	if cut < 0.40 {
		t.Errorf("v2 cuts BytesSent by %.1f%%, want >= 40%%", 100*cut)
	}
}

// TestSameSeedRunsIdentical checks reproducibility: two runs of the same
// query with the same options produce byte-identical trees and identical
// counters, even with multiple threads and the parallel apply path. This
// pins the static emission schedule in runWorkers — dynamic scheduling
// would make the first-wins parent choice race-dependent.
func TestSameSeedRunsIdentical(t *testing.T) {
	g, err := rmat.Generate(rmat.Family1(10, 7))
	if err != nil {
		t.Fatal(err)
	}
	src := testRoot(g)
	old := parallelApplyThreshold
	parallelApplyThreshold = 1
	defer func() { parallelApplyThreshold = old }()
	for _, wf := range []WireFormat{WireV1, WireV2} {
		o := LBOptOptions(25)
		o.Threads = 3
		o.ParallelApply = true
		o.WireFormat = wf
		r1 := mustRun(t, g, 4, src, o)
		r2 := mustRun(t, g, 4, src, o)
		if !reflect.DeepEqual(r1.Dist, r2.Dist) {
			t.Errorf("%v: distances differ between identical runs", wf)
		}
		if !reflect.DeepEqual(r1.Parent, r2.Parent) {
			t.Errorf("%v: parents differ between identical runs", wf)
		}
		if k1, k2 := runKey(r1), runKey(r2); !reflect.DeepEqual(k1, k2) {
			t.Errorf("%v: counters differ between identical runs:\n%+v\n%+v", wf, k1, k2)
		}
		if b1, b2 := r1.Stats.Traffic.BytesSent, r2.Stats.Traffic.BytesSent; b1 != b2 {
			t.Errorf("%v: BytesSent differ between identical runs: %d vs %d", wf, b1, b2)
		}
	}
}
