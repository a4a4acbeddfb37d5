package validate

import (
	"fmt"
	"sort"

	"parsssp/internal/graph"
	"parsssp/internal/sssp"
)

// CheckTree validates an SSSP result (distances plus parent pointers)
// the way the Graph500 SSSP benchmark validates submissions — without
// re-running a reference solver. The checks are:
//
//  1. dist[src] == 0 and parent[src] == src.
//  2. A vertex is reached iff it has a parent; unreachable vertices have
//     dist == Inf and parent == NoParent.
//  3. Tree edges are real: for every reached v ≠ src, the graph contains
//     an edge (parent[v], v) with weight exactly
//     dist[v] − dist[parent[v]].
//  4. The parent pointers form a tree rooted at src (no cycles).
//  5. Every edge is fully relaxed: |dist[u] − dist[v]| ≤ w(u,v) for every
//     edge with both endpoints reached, and no edge connects a reached
//     vertex to an unreached one.
//
// Together these prove the distances are exactly the shortest distances:
// 3+4 give attainable upper bounds, 5 gives the lower bound.
func CheckTree(g *graph.Graph, src graph.Vertex, dist []graph.Dist, parent []graph.Vertex) error {
	n := g.NumVertices()
	if len(dist) != n || len(parent) != n {
		return fmt.Errorf("validate: got %d distances / %d parents for %d vertices",
			len(dist), len(parent), n)
	}
	if int(src) >= n {
		return fmt.Errorf("validate: source %d out of range", src)
	}
	// Check 1.
	if dist[src] != 0 {
		return fmt.Errorf("validate: dist[src] = %d, want 0", dist[src])
	}
	if parent[src] != src {
		return fmt.Errorf("validate: parent[src] = %d, want %d", parent[src], src)
	}
	// Check 2.
	for v := 0; v < n; v++ {
		reached := dist[v] < graph.Inf
		hasParent := parent[v] != sssp.NoParent
		if reached != hasParent {
			return fmt.Errorf("validate: vertex %d reached=%v but parent=%d", v, reached, parent[v])
		}
		if !reached && dist[v] != graph.Inf {
			return fmt.Errorf("validate: unreachable vertex %d has dist %d", v, dist[v])
		}
	}
	// Check 3: tree edges exist with the exact weight.
	for v := 0; v < n; v++ {
		if graph.Vertex(v) == src || dist[v] >= graph.Inf {
			continue
		}
		p := parent[v]
		if int(p) >= n {
			return fmt.Errorf("validate: parent[%d] = %d out of range", v, p)
		}
		if dist[p] >= graph.Inf {
			return fmt.Errorf("validate: parent %d of %d is unreachable", p, v)
		}
		want := dist[v] - dist[p]
		if want < 0 {
			return fmt.Errorf("validate: dist[%d]=%d below its parent %d's %d", v, dist[v], p, dist[p])
		}
		if !hasEdgeWeight(g, p, graph.Vertex(v), graph.Weight(want)) {
			return fmt.Errorf("validate: no edge (%d,%d) of weight %d for tree edge of %d",
				p, v, want, v)
		}
	}
	// Check 4: acyclic parent structure. By check 3 a parent is never
	// farther than its child, and strictly closer across a positive-weight
	// tree edge, so a cycle can only run through zero-weight tree edges
	// (equal distances). Walk parent chains only along those; a walk stops
	// at a vertex an earlier walk cleared, so each vertex is walked once.
	cleared := make([]bool, n)
	for v := 0; v < n; v++ {
		if dist[v] >= graph.Inf || cleared[v] {
			continue
		}
		cur := graph.Vertex(v)
		for steps := 0; cur != src && !cleared[cur] && dist[parent[cur]] == dist[cur]; steps++ {
			if steps > n {
				return fmt.Errorf("validate: parent chain of %d does not reach the source", v)
			}
			cur = parent[cur]
		}
		for w := graph.Vertex(v); w != cur; w = parent[w] {
			cleared[w] = true
		}
		cleared[cur] = true
	}
	// Check 5: every edge is relaxed.
	for v := 0; v < n; v++ {
		nbr, ws := g.Neighbors(graph.Vertex(v))
		for i, u := range nbr {
			ru, rv := dist[u] < graph.Inf, dist[v] < graph.Inf
			if ru != rv {
				return fmt.Errorf("validate: edge (%d,%d) connects reached and unreached", v, u)
			}
			if !ru {
				continue
			}
			d := dist[v] - dist[u]
			if d < 0 {
				d = -d
			}
			if d > graph.Dist(ws[i]) {
				return fmt.Errorf("validate: edge (%d,%d,w=%d) not relaxed: |%d-%d| > w",
					v, u, ws[i], dist[v], dist[u])
			}
		}
	}
	return nil
}

// hasEdgeWeight reports whether g contains an edge (u,v) with weight w.
// The adjacency is weight-sorted, so the candidates with weight w form a
// contiguous run.
func hasEdgeWeight(g *graph.Graph, u, v graph.Vertex, w graph.Weight) bool {
	nbr, ws := g.Neighbors(u)
	i := sort.Search(len(ws), func(i int) bool { return ws[i] >= w })
	for ; i < len(ws) && ws[i] == w; i++ {
		if nbr[i] == v {
			return true
		}
	}
	return false
}
