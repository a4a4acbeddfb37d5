package validate

import (
	"testing"

	"parsssp/internal/gen"
	"parsssp/internal/graph"
	"parsssp/internal/rmat"
	"parsssp/internal/sssp"
)

func runAndCheckTree(t *testing.T, g *graph.Graph, src graph.Vertex, opts sssp.Options, ranks int) {
	t.Helper()
	res, err := sssp.Run(g, ranks, src, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckTree(g, src, res.Dist, res.Parent); err != nil {
		t.Fatal(err)
	}
}

func TestCheckTreeAcceptsEngineOutput(t *testing.T) {
	g, err := rmat.Generate(rmat.Family1(10, 21))
	if err != nil {
		t.Fatal(err)
	}
	var src graph.Vertex
	for v := 0; v < g.NumVertices(); v++ {
		if g.Degree(graph.Vertex(v)) > 4 {
			src = graph.Vertex(v)
			break
		}
	}
	for _, opts := range []sssp.Options{
		sssp.DelOptions(25), sssp.PruneOptions(25),
		sssp.OptOptions(25), sssp.LBOptOptions(10),
		sssp.DijkstraOptions(), sssp.BellmanFordOptions(),
	} {
		opts.Threads = 2
		runAndCheckTree(t, g, src, opts, 3)
	}
}

func TestCheckTreeAcceptsSequential(t *testing.T) {
	g, err := gen.Random(200, 1200, 200, 33)
	if err != nil {
		t.Fatal(err)
	}
	for _, run := range []func() (*sssp.SeqResult, error){
		func() (*sssp.SeqResult, error) { return sssp.Dijkstra(g, 0) },
		func() (*sssp.SeqResult, error) { return sssp.BellmanFord(g, 0) },
		func() (*sssp.SeqResult, error) { return sssp.SeqDeltaStepping(g, 0, 25) },
	} {
		res, err := run()
		if err != nil {
			t.Fatal(err)
		}
		if err := CheckTree(g, 0, res.Dist, res.Parent); err != nil {
			t.Fatal(err)
		}
	}
}

func TestCheckTreeRejectsCorruption(t *testing.T) {
	g, err := gen.Random(100, 600, 100, 44)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := sssp.Dijkstra(g, 0)
	if err != nil {
		t.Fatal(err)
	}

	corrupt := func(name string, mutate func(d []graph.Dist, p []graph.Vertex)) {
		d := append([]graph.Dist(nil), ref.Dist...)
		p := append([]graph.Vertex(nil), ref.Parent...)
		mutate(d, p)
		if err := CheckTree(g, 0, d, p); err == nil {
			t.Errorf("%s: corruption accepted", name)
		}
	}

	corrupt("nonzero source dist", func(d []graph.Dist, p []graph.Vertex) { d[0] = 1 })
	corrupt("source parent", func(d []graph.Dist, p []graph.Vertex) { p[0] = 1 })
	corrupt("inflated distance", func(d []graph.Dist, p []graph.Vertex) {
		for v := 1; v < len(d); v++ {
			if d[v] < graph.Inf && d[v] > 0 {
				d[v]++
				return
			}
		}
	})
	corrupt("deflated distance", func(d []graph.Dist, p []graph.Vertex) {
		for v := 1; v < len(d); v++ {
			if d[v] < graph.Inf && d[v] > 1 {
				d[v]--
				return
			}
		}
	})
	corrupt("fake reachable", func(d []graph.Dist, p []graph.Vertex) {
		d = append(d[:0], d...)
		for v := range d {
			if d[v] == graph.Inf {
				d[v] = 5
				p[v] = 0
				return
			}
		}
		// Fully connected sample: corrupt a parent instead.
		p[1] = sssp.NoParent
	})
	corrupt("parent cycle", func(d []graph.Dist, p []graph.Vertex) {
		// Find two reached non-source vertices and point them at each
		// other (weights won't match either, but the cycle check matters
		// for zero-weight scenarios).
		var reached []graph.Vertex
		for v := 1; v < len(d); v++ {
			if d[v] < graph.Inf {
				reached = append(reached, graph.Vertex(v))
			}
		}
		if len(reached) >= 2 {
			p[reached[0]] = reached[1]
			p[reached[1]] = reached[0]
		}
	})
	corrupt("orphan parent", func(d []graph.Dist, p []graph.Vertex) {
		for v := 1; v < len(p); v++ {
			if d[v] < graph.Inf {
				p[v] = sssp.NoParent
				return
			}
		}
	})
}

func TestCheckTreeTruncatedInput(t *testing.T) {
	g, err := gen.Path([]graph.Weight{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckTree(g, 0, []graph.Dist{0}, []graph.Vertex{0}); err == nil {
		t.Error("truncated arrays accepted")
	}
}

// TestCheckTreeRejectsZeroWeightCycle: two equal-distance vertices
// joined by a zero-weight edge that name each other as parent pass the
// tree-edge check (each parent edge exists with weight 0 = the distance
// difference) and relaxation; the cycle check must catch them.
func TestCheckTreeRejectsZeroWeightCycle(t *testing.T) {
	g, err := graph.FromEdges(4, []graph.Edge{
		{U: 0, V: 1, W: 3}, {U: 1, V: 2, W: 0}, {U: 2, V: 3, W: 0}, {U: 3, V: 1, W: 0},
	}, graph.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	dist := []graph.Dist{0, 3, 3, 3}
	if err := CheckTree(g, 0, dist, []graph.Vertex{0, 0, 1, 2}); err != nil {
		t.Fatalf("valid zero-weight chain rejected: %v", err)
	}
	for _, parent := range [][]graph.Vertex{
		{0, 0, 3, 2}, // 2 ↔ 3
		{0, 3, 1, 2}, // 1 → 3 → 2 → 1
	} {
		if err := CheckTree(g, 0, dist, parent); err == nil {
			t.Errorf("zero-weight parent cycle %v accepted", parent)
		}
	}
}

func TestCheckTreeZeroWeightEdges(t *testing.T) {
	g, err := graph.FromEdges(4, []graph.Edge{
		{U: 0, V: 1, W: 0}, {U: 1, V: 2, W: 0}, {U: 2, V: 3, W: 5},
	}, graph.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	runAndCheckTree(t, g, 0, sssp.OptOptions(3), 2)
}
