package sssp

import (
	"fmt"

	"parsssp/internal/graph"
	"parsssp/internal/partition"
)

// rankGraph is the graph plane of one rank: everything about a
// (graph, distribution, options) triple that does not change from query
// to query — CSR views, the short/long edge classification (shortEnd),
// the IOS phase boundaries implied by Δ (dd), the heavy-vertex chunking
// thresholds (via opts), the partition/ownership tables (pd) and the
// per-vertex weight histograms of the request estimator. It is built
// once and then shared read-only by every query plane (queryState) over
// it — the weights/activations split of an inference stack, applied to
// graph queries.
//
// Immutability is the load-bearing property: concurrent queries on a
// pool read the same rankGraph from many goroutines with no
// synchronization. Nothing outside newRankGraph may write its fields;
// the planepurity analyzer (internal/lint) enforces this, including
// writes through the promoted fields of an embedding queryState.
type rankGraph struct {
	g    *graph.Graph
	pd   partition.Dist
	opts *Options
	rank int
	size int

	nLocal int
	dd     graph.Dist // bucket width Δ
	maxW   graph.Weight

	shortEnd  []int32 // per local vertex: first long-edge index in its adjacency
	longTotal int64   // Σ over local vertices of their long-edge count (degree − shortEnd)
	hist      []int32 // per-vertex cumulative weight histograms (EstimatorHistogram)

	step   stepper      // the stepping discipline over this plane; see policy.go
	radius []graph.Dist // per local vertex: Radius Stepping r(v) (PolicyRadius only)
}

// newRankGraph builds the immutable graph plane of one rank. opts must
// outlive the plane and must not be mutated while any query runs over
// it; maxW must be the graph's maximum edge weight.
func newRankGraph(g *graph.Graph, pd partition.Dist, rank int,
	opts *Options, maxW graph.Weight) (*rankGraph, error) {
	if pd.NumVertices() != g.NumVertices() {
		return nil, fmt.Errorf("sssp: distribution covers %d vertices, graph has %d",
			pd.NumVertices(), g.NumVertices())
	}
	if rank < 0 || rank >= pd.NumRanks() {
		return nil, fmt.Errorf("sssp: rank %d out of range [0,%d)", rank, pd.NumRanks())
	}
	p := &rankGraph{
		g:    g,
		pd:   pd,
		opts: opts,
		rank: rank,
		size: pd.NumRanks(),
		dd:   graph.Dist(opts.Delta),
		maxW: maxW,
	}
	p.nLocal = pd.Count(rank)
	p.buildStepper()
	p.shortEnd = make([]int32, p.nLocal)
	for li := 0; li < p.nLocal; li++ {
		v := pd.Global(rank, li)
		if opts.EdgeClassification {
			p.shortEnd[li] = int32(p.step.shortEdgeEnd(g, v))
		} else {
			p.shortEnd[li] = int32(g.Degree(v))
		}
		p.longTotal += p.longDeg(uint32(li))
	}
	p.buildRadii(nil, nil)
	if opts.Prune && opts.Estimator == EstimatorHistogram {
		p.buildHistograms()
	}
	return p, nil
}

// buildStepper resolves the plane's stepping policy against the graph:
// scalar parameters only (Δ, the ρ/radius quantums and the ρ batch cap);
// the Radius policy's per-vertex table is buildRadii's. Every parameter
// is a deterministic function of the full graph and the options, so all
// ranks resolve the identical stepper — a rank-varying policy parameter
// would diverge the collective schedule.
func (p *rankGraph) buildStepper() {
	switch p.opts.Policy {
	case PolicyRadius:
		k := p.opts.radiusK()
		p.step = &radiusStepper{k: k, q: radiusQuantum(p.g, k)}
	case PolicyRho:
		p.step = &rhoStepper{
			q:   rhoQuantum(p.g),
			cap: (p.opts.rho() + p.size - 1) / p.size,
		}
	default:
		p.step = &deltaStepper{delta: p.opts.Delta, dd: p.dd}
	}
}

// buildRadii fills the Radius policy's per-vertex r(v) table (a no-op
// under the other policies). With a previous plane's table and a touched
// local-index list, only the touched rows are recomputed — the
// patched-plane path; r(v) depends solely on v's own adjacency, so
// untouched rows carry over (or the whole table is aliased when this
// rank owns no touched vertex).
func (p *rankGraph) buildRadii(prev []graph.Dist, touchedLocal []int) {
	if p.opts.Policy != PolicyRadius {
		return
	}
	k := p.opts.radiusK()
	switch {
	case prev == nil:
		p.radius = make([]graph.Dist, p.nLocal)
		for li := 0; li < p.nLocal; li++ {
			p.radius[li] = vertexRadius(p.g, p.pd.Global(p.rank, li), k)
		}
	case len(touchedLocal) == 0:
		p.radius = prev
	default:
		p.radius = append([]graph.Dist(nil), prev...)
		for _, li := range touchedLocal {
			p.radius[li] = vertexRadius(p.g, p.pd.Global(p.rank, li), k)
		}
	}
}

// newRankGraphPatched derives the plane for graph g from prev, the same
// rank's plane one version earlier, refreshing only the touched
// vertices' rows: shortEnd classification entries and histogram rows of
// untouched vertices depend solely on their (unchanged) adjacency, so
// they are copied — or, when this rank owns no touched vertex, aliased
// outright (planes are immutable after construction, so sharing is
// safe). The one global input is maxW: a changed maximum edge weight
// moves every histogram bin boundary, so that (rare) case rebuilds the
// histograms in full. g must differ from prev.g only at the touched
// vertices' rows, each listed once; maxW must be g's maximum edge
// weight. Cost is O(touched + nLocal copy) per rank instead of
// newRankGraph's O(nLocal · log deg) row reclassification.
//
// Like newRankGraph, this is a sanctioned rankGraph constructor: the
// planepurity analyzer allows its field writes and forbids everyone
// else's.
func newRankGraphPatched(prev *rankGraph, g *graph.Graph, touched []graph.Vertex,
	maxW graph.Weight) (*rankGraph, error) {
	if prev.pd.NumVertices() != g.NumVertices() {
		return nil, fmt.Errorf("sssp: distribution covers %d vertices, patched graph has %d",
			prev.pd.NumVertices(), g.NumVertices())
	}
	p := &rankGraph{
		g:      g,
		pd:     prev.pd,
		opts:   prev.opts,
		rank:   prev.rank,
		size:   prev.size,
		nLocal: prev.nLocal,
		dd:     prev.dd,
		maxW:   maxW,
	}
	// The stepper's scalar parameters (quantums, batch cap) are sampled
	// from the full graph, so a patch can move them; resampling is O(1)
	// in the graph size. The Radius table refreshes touched rows only.
	p.buildStepper()
	var local []int // local indices of touched vertices this rank owns
	for _, v := range touched {
		if prev.pd.Owner(v) == prev.rank {
			local = append(local, prev.pd.LocalIndex(v))
		}
	}
	p.buildRadii(prev.radius, local)
	p.longTotal = prev.longTotal
	if len(local) == 0 {
		p.shortEnd = prev.shortEnd
	} else {
		p.shortEnd = append([]int32(nil), prev.shortEnd...)
		for _, li := range local {
			v := prev.pd.Global(p.rank, li)
			p.longTotal -= prev.longDeg(uint32(li))
			if p.opts.EdgeClassification {
				p.shortEnd[li] = int32(p.step.shortEdgeEnd(g, v))
			} else {
				p.shortEnd[li] = int32(g.Degree(v))
			}
			p.longTotal += p.longDeg(uint32(li))
		}
	}
	switch {
	case prev.hist == nil:
		// estimator off: nothing to carry
	case maxW != prev.maxW:
		p.buildHistograms()
	case len(local) == 0:
		p.hist = prev.hist
	default:
		p.hist = append([]int32(nil), prev.hist...)
		for _, li := range local {
			p.histRow(li)
		}
	}
	return p, nil
}

// local returns the local index of global vertex v, which must be owned
// by this rank.
func (p *rankGraph) local(v graph.Vertex) int { return p.pd.LocalIndex(v) }

// global returns the global id of local index li.
func (p *rankGraph) global(li uint32) graph.Vertex {
	return p.pd.Global(p.rank, int(li))
}

// longDeg returns the number of long edges of local vertex li.
func (p *rankGraph) longDeg(li uint32) int64 {
	return int64(p.g.Degree(p.global(li))) - int64(p.shortEnd[li])
}

// bucketEnd returns the largest distance the policy files under key k.
func (p *rankGraph) bucketEnd(k int64) graph.Dist { return p.step.settleBound(k) }
