package sssp

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"

	"parsssp/internal/gen"
	"parsssp/internal/graph"
	"parsssp/internal/rmat"
)

// fullScanPullLocal is the push/pull decision's rank-local pull cost as
// the engine computed it before the O(frontier) rewrite: the request
// count of every local vertex in a later bucket, unreached ones included.
// It is the oracle the running-sum + bucket-list computation in
// decideMode must match on every epoch.
func (r *queryState) fullScanPullLocal(k int64) int64 {
	var pullLocal int64
	kBase := k * r.dd
	for li := 0; li < r.nLocal; li++ {
		if r.bucketOf[li] <= k {
			continue
		}
		pullLocal += r.requestCount(uint32(li), kBase)
	}
	return pullLocal
}

// checkDecisions installs the oracle on every decision of the queries run
// by f and returns how many decisions it checked.
func checkDecisions(t *testing.T, f func()) int64 {
	t.Helper()
	var checked atomic.Int64
	pullLocalHook = func(r *queryState, k int64, fast int64) {
		checked.Add(1)
		if full := r.fullScanPullLocal(k); full != fast {
			t.Errorf("rank %d bucket %d: fast pullLocal %d, full scan %d", r.rank, k, fast, full)
		}
	}
	defer func() { pullLocalHook = nil }()
	f()
	return checked.Load()
}

// TestDecisionFastEqualsFullScan is the decision-equivalence oracle: on
// every epoch of every run the O(frontier) pull cost equals the full
// scan's, across graph families, estimators, thread counts (with the
// parallel apply path forced) and machine sizes.
func TestDecisionFastEqualsFullScan(t *testing.T) {
	old := parallelApplyThreshold
	parallelApplyThreshold = 1
	defer func() { parallelApplyThreshold = old }()

	for seed := uint64(1); seed <= 2; seed++ {
		rm, err := rmat.Generate(rmat.Family1(11, seed))
		if err != nil {
			t.Fatal(err)
		}
		grid, err := gen.Grid(48, 48, 1, 255, seed)
		if err != nil {
			t.Fatal(err)
		}
		for _, gc := range []struct {
			name string
			g    *graph.Graph
		}{{"rmat11", rm}, {"grid48", grid}} {
			src := testRoot(gc.g)
			for _, est := range []PullEstimator{EstimatorExact, EstimatorExpectation, EstimatorHistogram} {
				for _, threads := range []int{1, 2} {
					for _, ranks := range []int{1, 2, 4} {
						opts := OptOptions(25)
						opts.Estimator = est
						opts.Threads = threads
						opts.ParallelApply = threads > 1
						name := fmt.Sprintf("seed%d/%s/%v/t%d/r%d", seed, gc.name, est, threads, ranks)
						n := checkDecisions(t, func() {
							res := mustRun(t, gc.g, ranks, src, opts)
							if got := int64(len(res.Stats.Decisions)) * int64(ranks); got == 0 {
								t.Errorf("%s: no decisions made; the oracle is vacuous", name)
							}
						})
						if n == 0 {
							t.Errorf("%s: oracle never ran", name)
						}
					}
				}
			}
		}
	}
}

// TestDecisionFastSurvivesRepair drives one pooled slot through a query,
// a repair (which resets distances to Inf behind the running sum's back
// and moves the slot to a patched plane) and further queries: the sum is
// re-established by every reset, from the plane the slot then points at.
func TestDecisionFastSurvivesRepair(t *testing.T) {
	g := positivize(t, rmatTestGraph)
	rng := rand.New(rand.NewSource(5))
	for _, ranks := range []int{1, 2, 4} {
		pool, err := NewQueryPool(g, ranks, 1, OptOptions(25))
		if err != nil {
			t.Fatal(err)
		}
		roots, err := PickRoots(g, 3, 9)
		if err != nil {
			t.Fatal(err)
		}
		n := checkDecisions(t, func() {
			query := func(src graph.Vertex) {
				if _, err := pool.Query(src); err != nil {
					t.Fatalf("ranks %d: query from %d: %v", ranks, src, err)
				}
			}
			update := func() {
				if _, err := pool.ApplyUpdates(randomBatch(rng, g, 4, 4)); err != nil {
					t.Fatalf("ranks %d: ApplyUpdates: %v", ranks, err)
				}
			}
			query(roots[0])
			update()
			query(roots[0]) // same source: repaired in place, no decision
			query(roots[1]) // full run on the patched plane after the repair
			update()
			query(roots[2]) // other source: repoint + recompute
		})
		if n == 0 {
			t.Errorf("ranks %d: oracle never ran", ranks)
		}
		if err := pool.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
