package sssp

import (
	"math/rand"
	"reflect"
	"testing"

	"parsssp/internal/graph"
	"parsssp/internal/partition"
)

// Equivalence oracles for the patched apply path: a PlaneSet advancing
// by graph.Patched + newRankGraphPatched must be indistinguishable —
// plane state, query results, repair results — from one advancing by
// the legacy full rebuild (the s.rebuild knob). The rebuild path is the
// semantic oracle; these tests prove the patched path equal to it.

// newPlaneSetPair builds two plane sets over the same graph and options,
// one forced onto the legacy rebuild path.
func newPlaneSetPair(t *testing.T, g *graph.Graph, opts *Options, ranks int) (patched, rebuilt *PlaneSet) {
	t.Helper()
	pd, err := partition.New(partition.Block, g.NumVertices(), ranks)
	if err != nil {
		t.Fatalf("partition: %v", err)
	}
	hosted := make([]int, ranks)
	for r := range hosted {
		hosted[r] = r
	}
	patched, err = NewPlaneSet(g, pd, opts, hosted)
	if err != nil {
		t.Fatalf("NewPlaneSet: %v", err)
	}
	rebuilt, err = NewPlaneSet(g, pd, opts, hosted)
	if err != nil {
		t.Fatalf("NewPlaneSet: %v", err)
	}
	rebuilt.rebuild = true
	return patched, rebuilt
}

// requirePlanesEqual asserts two snapshots carry semantically identical
// state: the same graph adjacency and, per hosted rank, equal
// classification and histogram tables.
func requirePlanesEqual(t *testing.T, got, want *planeVersion, ranks int, label string) {
	t.Helper()
	if got.maxW != want.maxW {
		t.Fatalf("%s: maxW = %d, want %d", label, got.maxW, want.maxW)
	}
	if !reflect.DeepEqual(got.Graph().Edges(), want.Graph().Edges()) {
		t.Fatalf("%s: patched graph adjacency diverges from rebuilt", label)
	}
	for r := 0; r < ranks; r++ {
		gp, wp := got.Plane(r), want.Plane(r)
		if !reflect.DeepEqual(gp.shortEnd, wp.shortEnd) {
			for li := range gp.shortEnd {
				if gp.shortEnd[li] != wp.shortEnd[li] {
					t.Fatalf("%s: rank %d shortEnd[%d] = %d, want %d",
						label, r, li, gp.shortEnd[li], wp.shortEnd[li])
				}
			}
		}
		if !reflect.DeepEqual(gp.hist, wp.hist) {
			t.Fatalf("%s: rank %d histograms diverge", label, r)
		}
		if gp.maxW != wp.maxW || gp.dd != wp.dd || gp.nLocal != wp.nLocal || gp.longTotal != wp.longTotal {
			t.Fatalf("%s: rank %d plane scalars diverge", label, r)
		}
	}
}

// TestPatchedPlaneMatchesRebuilt drives identical random update streams
// through a patched plane set and a rebuild plane set and asserts the
// snapshots stay semantically identical at every version — including
// steps that change the maximum edge weight (which moves every histogram
// bin boundary) and steps past the compaction threshold.
func TestPatchedPlaneMatchesRebuilt(t *testing.T) {
	g := positivize(t, rmatTestGraph)
	const ranks = 3
	opts := OptOptions(25)
	opts.Estimator = EstimatorHistogram
	patched, rebuilt := newPlaneSetPair(t, g, &opts, ranks)

	rng := rand.New(rand.NewSource(7))
	for step := 0; step < 20; step++ {
		cur := patched.Acquire()
		batch := randomBatch(rng, cur.Graph(), 4, 4)
		patched.Release(cur)
		if step == 5 {
			// Raise the maximum weight: every histogram bin boundary
			// moves, forcing the patched constructor's full-rebuild arm.
			batch = append(batch, EdgeUpdate{Op: OpInsert, U: 3, V: 90, W: 4000 + graph.Weight(step)})
		}
		pp, err := patched.Apply(batch)
		if err != nil {
			t.Fatalf("step %d: patched Apply: %v", step, err)
		}
		rp, err := rebuilt.Apply(batch)
		if err != nil {
			t.Fatalf("step %d: rebuilt Apply: %v", step, err)
		}
		requirePlanesEqual(t, pp, rp, ranks, "step")
		patched.Release(pp)
		rebuilt.Release(rp)
	}
	// The stream above must have exercised both overlay reuse and
	// amortized compaction, or the oracle proved less than it claims.
	pv := patched.Acquire()
	rows, entries, shadow := pv.Graph().PatchStats()
	patched.Release(pv)
	t.Logf("final overlay: %d rows, %d entries, %d shadow", rows, entries, shadow)
}

// TestPatchedRepairMatchesRebuildRepair runs two full dynamic harnesses
// — engines, repairs, the lot — over the same stream, one on each apply
// path, and demands byte-identical distance and parent arrays after
// every repair. This is the end-to-end acceptance oracle: the patched
// path must be invisible to queries and repairs.
func TestPatchedRepairMatchesRebuildRepair(t *testing.T) {
	g := positivize(t, rmatTestGraph)
	src := testRoot(g)
	const ranks = 3
	opts := OptOptions(25)
	opts.Estimator = EstimatorHistogram

	hp := newDynHarness(t, g, ranks, opts)
	hr := newDynHarness(t, g, ranks, opts)
	hr.set.rebuild = true
	hp.query(t, src)
	hr.query(t, src)

	rng := rand.New(rand.NewSource(21))
	for step := 0; step < 8; step++ {
		cur := hp.set.Acquire()
		batch := randomBatch(rng, cur.Graph(), 5, 5)
		hp.set.Release(cur)
		hp.applyAndRepair(t, batch)
		hr.applyAndRepair(t, batch)
		for i := range hp.engines {
			pe, re := hp.engines[i], hr.engines[i]
			if !reflect.DeepEqual(pe.dist, re.dist) {
				t.Fatalf("step %d: rank %d repaired distances diverge between apply paths", step, i)
			}
			if !reflect.DeepEqual(pe.parent, re.parent) {
				t.Fatalf("step %d: rank %d repaired parents diverge between apply paths", step, i)
			}
		}
		// And both must still equal a from-scratch run.
		hp.check(t, src, "patched")
	}
}

// TestPlaneSetReleasePanics proves the refcount guard: releasing a
// version with no outstanding pins is a caller bug and must panic, not
// silently drive the count negative.
func TestPlaneSetReleasePanics(t *testing.T) {
	g := positivize(t, rmatTestGraph)
	pd, err := partition.New(partition.Block, g.NumVertices(), 1)
	if err != nil {
		t.Fatalf("partition: %v", err)
	}
	opts := OptOptions(25)
	set, err := NewPlaneSet(g, pd, &opts, []int{0})
	if err != nil {
		t.Fatalf("NewPlaneSet: %v", err)
	}
	pv := set.Acquire()
	set.Release(pv)
	defer func() {
		if recover() == nil {
			t.Fatal("double Release did not panic")
		}
	}()
	set.Release(pv)
}

// TestPlaneSetSinceAliasing proves the set's history shares no storage
// with its callers in either direction: mutating a batch after Apply,
// or mutating a batch returned by Since, must not corrupt later
// catch-ups.
func TestPlaneSetSinceAliasing(t *testing.T) {
	g := positivize(t, rmatTestGraph)
	pd, err := partition.New(partition.Block, g.NumVertices(), 1)
	if err != nil {
		t.Fatalf("partition: %v", err)
	}
	opts := OptOptions(25)
	set, err := NewPlaneSet(g, pd, &opts, []int{0})
	if err != nil {
		t.Fatalf("NewPlaneSet: %v", err)
	}
	batch := UpdateBatch{{Op: OpInsert, U: 1, V: 2, W: 3}}
	pv, err := set.Apply(batch)
	if err != nil {
		t.Fatalf("Apply: %v", err)
	}
	set.Release(pv)
	// Ingest aliasing: the caller reuses its batch slice.
	batch[0] = EdgeUpdate{Op: OpDelete, U: 9, V: 9}
	want := UpdateBatch{{Op: OpInsert, U: 1, V: 2, W: 3}}
	got, ok := set.Since(0)
	if !ok || len(got) != 1 || !reflect.DeepEqual(got[0], want) {
		t.Fatalf("history aliased the caller's batch: got %+v", got)
	}
	// Egress aliasing: a consumer scribbles on what Since handed out.
	got[0][0] = EdgeUpdate{Op: OpDelete, U: 7, V: 7}
	again, ok := set.Since(0)
	if !ok || len(again) != 1 || !reflect.DeepEqual(again[0], want) {
		t.Fatalf("Since returned history-aliased batches: got %+v", again)
	}
}
