package sssp

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"parsssp/internal/gen"
	"parsssp/internal/graph"
	"parsssp/internal/rmat"
)

// canonicalParents is the parent tree every schedule must elect on
// strictly positive weights: for each reached v other than the source,
// the least u with d(u) + w(u,v) = d(v).
func canonicalParents(g *graph.Graph, dist []graph.Dist, src graph.Vertex) []graph.Vertex {
	par := newParentArray(g.NumVertices())
	par[src] = src
	for v := 0; v < g.NumVertices(); v++ {
		if graph.Vertex(v) == src || dist[v] >= graph.Inf {
			continue
		}
		nbr, ws := g.Neighbors(graph.Vertex(v))
		for i, u := range nbr {
			if dist[u]+graph.Dist(ws[i]) == dist[v] && u < par[v] {
				par[v] = u
			}
		}
	}
	return par
}

// TestLocalFixpointOracle runs the rank-local fixpoint of relaxRounds
// through all of its users — short phases and the hybrid Bellman-Ford
// stage (OPT-25), the Radius fixpoint — on a low-cut grid, where ranks
// drain locally, and on R-MAT, where they mostly do not: distances equal
// Dijkstra's and parents are the canonical tree, across ranks 1/2/4/8 ×
// memtransport/tcptransport × wire v1/v2 × Threads 1/2 (the parallel
// apply path forced on for 2).
func TestLocalFixpointOracle(t *testing.T) {
	old := parallelApplyThreshold
	parallelApplyThreshold = 1
	defer func() { parallelApplyThreshold = old }()

	grid, err := gen.Grid(24, 24, 1, 255, 5)
	if err != nil {
		t.Fatal(err)
	}
	rm, err := rmat.Generate(rmat.Family1(9, 5))
	if err != nil {
		t.Fatal(err)
	}
	configs := []struct {
		name string
		opts Options
	}{{"opt", OptOptions(25)}, {"radius", RadiusSteppingOptions(0)}}
	for _, gc := range []struct {
		name string
		g    *graph.Graph
	}{{"grid", grid}, {"rmat", positivize(t, rm)}} {
		src := testRoot(gc.g)
		want, err := Dijkstra(gc.g, src)
		if err != nil {
			t.Fatal(err)
		}
		wantPar := canonicalParents(gc.g, want.Dist, src)
		for _, cfg := range configs {
			for _, ranks := range []int{1, 2, 4, 8} {
				for _, wf := range []WireFormat{WireV1, WireV2} {
					for _, threads := range []int{1, 2} {
						opts := cfg.opts
						opts.WireFormat = wf
						opts.Threads = threads
						opts.ParallelApply = threads > 1
						for _, fabric := range []string{"mem", "tcp"} {
							if fabric == "tcp" && testing.Short() && ranks > 2 {
								continue
							}
							name := fmt.Sprintf("%s/%s/r%d/%v/t%d/%s", gc.name, cfg.name, ranks, wf, threads, fabric)
							var res *Result
							if fabric == "mem" {
								res = mustRun(t, gc.g, ranks, src, opts)
							} else {
								res = runOverTCP(t, gc.g, ranks, src, opts)
							}
							if !reflect.DeepEqual(res.Dist, want.Dist) {
								t.Errorf("%s: distances differ from Dijkstra", name)
							}
							if !reflect.DeepEqual(res.Parent, wantPar) {
								t.Errorf("%s: parents differ from the canonical tree", name)
							}
							if gc.name == "grid" && res.Stats.LocalRounds == 0 {
								t.Errorf("%s: no local sub-round on a grid", name)
							}
						}
					}
				}
			}
		}
	}
}

// TestLocalFixpointCutsRounds holds the grid-lib shape (a 96×96 grid,
// OPT-25, two ranks) to the counts the rank-local fixpoint is for: over
// these roots the bulk-synchronous engine averaged 548 phases at 5.68
// relaxations per edge, in 159 epochs.
func TestLocalFixpointCutsRounds(t *testing.T) {
	g, err := gen.Grid(96, 96, 1, 255, 1)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMachine(g, 2, OptOptions(25))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	roots, err := PickRoots(g, 16, 7)
	if err != nil {
		t.Fatal(err)
	}
	var phases, local, epochs, relax int64
	for _, root := range roots {
		res, err := m.Query(root)
		if err != nil {
			t.Fatal(err)
		}
		phases += res.Stats.Phases
		local += res.Stats.LocalRounds
		epochs += res.Stats.Epochs
		relax += res.Stats.Relax.Total()
	}
	n := float64(len(roots))
	perEdge := float64(relax) / n / float64(g.NumEdges())
	t.Logf("per query: %.1f phases, %.1f local rounds, %.1f epochs, %.2f relax/edge",
		float64(phases)/n, float64(local)/n, float64(epochs)/n, perEdge)
	if float64(phases)/n > 340 || perEdge > 2.3 || float64(epochs)/n != 159 {
		t.Errorf("%.1f phases in %.1f epochs at %.2f relax/edge per query; want at most 340 phases in 159 epochs at 2.3",
			float64(phases)/n, float64(epochs)/n, perEdge)
	}
}

// TestSubQueueOrder drives subQueue against a model: extractions come
// out in non-decreasing key order, each queued vertex once at its last
// key, across window refills from the overflow list; take empties the
// queue and leaves every key at -1.
func TestSubQueueOrder(t *testing.T) {
	const n = 500
	type offer struct {
		v  uint32
		nd graph.Dist
	}
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		q := newSubQueue(n)
		dist := newDistArray(n)
		width := graph.Dist(1 + rng.Intn(20))
		spread := graph.Dist(1+rng.Intn(4*subQueueSlots)) * width
		// A random graph of out-degree 3 whose scans offer distances at
		// or above the scanned vertex's, up to three sub-buckets out.
		adj := make([][3]offer, n)
		for li := range adj {
			for j := range adj[li] {
				adj[li][j] = offer{uint32(rng.Intn(n)), graph.Dist(rng.Intn(int(3 * width)))}
			}
		}
		queued := map[uint32]bool{}
		var list []uint32
		for i := 0; i < 1+rng.Intn(100); i++ {
			li := uint32(rng.Intn(n))
			dist[li] = 1000 + graph.Dist(rng.Int63n(int64(spread)))
			list = append(list, li)
			queued[li] = true
		}
		q.fill(list, dist, width)
		last := int64(-1)
		for steps := 0; ; steps++ {
			if trial%5 == 4 && steps == 3 {
				for _, li := range q.take(nil) {
					if !queued[li] {
						t.Fatalf("trial %d: take returned %d twice or unqueued", trial, li)
					}
					delete(queued, li)
				}
				break
			}
			members := q.next()
			if len(members) == 0 {
				break
			}

			k := dist[members[0]] / width
			if k < last {
				t.Fatalf("trial %d: key %d after %d", trial, k, last)
			}
			last = k
			var offers []offer
			for _, li := range members {
				if dist[li]/width != k || !queued[li] {
					t.Fatalf("trial %d: vertex %d (key %d) extracted with key %d", trial, li, dist[li]/width, k)
				}
				delete(queued, li)
				for _, e := range adj[li] {
					offers = append(offers, offer{e.v, dist[li] + e.nd})
				}
			}
			// Applied after the whole sub-round, like the engine's: a
			// strict improvement activates its vertex, queued or not.
			var act []uint32
			for _, o := range offers {
				if o.nd >= dist[o.v] {
					continue
				}
				dist[o.v] = o.nd
				queued[o.v] = true
				act = append(act, o.v)
			}
			q.fill(act, dist, width)
		}
		if len(queued) != 0 {
			t.Fatalf("trial %d: %d vertices never extracted", trial, len(queued))
		}
		for li, k := range q.key {
			if k != -1 {
				t.Fatalf("trial %d: key[%d] = %d after draining", trial, li, k)
			}
		}
	}
}
