package sssp

import (
	"errors"
	"fmt"
	"sync"

	"parsssp/internal/comm"
	"parsssp/internal/comm/memtransport"
	"parsssp/internal/graph"
	"parsssp/internal/partition"
)

// Result is the outcome of a distributed run.
type Result struct {
	// Dist[v] is the shortest distance from the source to vertex v, or
	// graph.Inf if unreachable.
	Dist []graph.Dist
	// Parent[v] is v's predecessor in the shortest-path tree (the source
	// is its own parent; unreachable vertices have NoParent), forming a
	// Graph500-style SSSP tree.
	Parent []graph.Vertex
	// Stats aggregates the run's counters over all ranks.
	Stats Stats
}

// RankResult is the per-rank outcome of RunRank, used by multi-process
// deployments that assemble results themselves.
type RankResult struct {
	// Rank is the rank that produced this result.
	Rank int
	// LocalDist[li] is the distance of the vertex with local index li.
	LocalDist []graph.Dist
	// LocalParent[li] is the tree predecessor of the vertex with local
	// index li.
	LocalParent []graph.Vertex
	// Stats are this rank's counters.
	Stats Stats
}

// RunRank executes the distributed algorithm for one rank over the given
// transport. Every rank of the machine must call RunRank with the same
// graph, distribution, source and options. maxWeight must be the graph's
// maximum edge weight (callers that already know it avoid a scan by
// passing it; pass 0 to have it computed).
//
// A rank that fails mid-query aborts its transport (comm.Abort) before
// returning, so peers blocked in a collective this rank will never reach
// fail with an error wrapping comm.ErrAborted instead of waiting
// forever. See DESIGN.md "Failure semantics".
func RunRank(g *graph.Graph, pd partition.Dist, src graph.Vertex,
	opts Options, t comm.Transport, maxWeight graph.Weight) (*RankResult, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	if maxWeight == 0 {
		maxWeight = g.MaxWeight()
	}
	eng, err := newRankEngine(g, pd, src, &opts, t, maxWeight)
	if err != nil {
		return nil, err
	}
	defer eng.stopWorkers()
	if err := eng.run(); err != nil {
		comm.Abort(eng.t, err)
		return nil, err
	}
	return &RankResult{
		Rank:        eng.rank,
		LocalDist:   eng.dist,
		LocalParent: eng.parent,
		Stats:       eng.stats,
	}, nil
}

// RunWithTransports executes a distributed run over caller-provided
// transports (one per rank, all part of the same machine) and assembles
// the global result. It is the building block for in-process machines;
// see Run for the common case.
func RunWithTransports(g *graph.Graph, pd partition.Dist, src graph.Vertex,
	opts Options, transports []comm.Transport) (*Result, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	if len(transports) != pd.NumRanks() {
		return nil, fmt.Errorf("sssp: %d transports for %d ranks", len(transports), pd.NumRanks())
	}
	maxW := g.MaxWeight()

	ranks := make([]*RankResult, len(transports))
	errs := make([]error, len(transports))
	var wg sync.WaitGroup
	for i, t := range transports {
		wg.Add(1)
		go func(i int, t comm.Transport) {
			defer wg.Done()
			ranks[i], errs[i] = RunRank(g, pd, src, opts, t, maxW)
		}(i, t)
	}
	wg.Wait()
	if err := firstCause(errs); err != nil {
		return nil, err
	}
	return assemble(g, pd, ranks)
}

// firstCause picks the error to report from a set of per-rank errors:
// the first root cause if there is one, else the first error. When one
// rank fails, its peers fail too — with errors wrapping comm.ErrAborted
// (the failing rank tore the transport down under them). Those are
// propagation, not cause; reporting one would bury the actual fault.
func firstCause(errs []error) error {
	var first error
	for _, err := range errs {
		if err == nil {
			continue
		}
		if !errors.Is(err, comm.ErrAborted) {
			return err
		}
		if first == nil {
			first = err
		}
	}
	return first
}

// Run executes a distributed run on an in-process machine with the given
// number of ranks.
func Run(g *graph.Graph, numRanks int, src graph.Vertex, opts Options) (*Result, error) {
	return RunDistributed(g, partition.MustNew(partition.Block, g.NumVertices(), numRanks), src, opts)
}

// RunDistributed is Run with an explicit vertex distribution.
func RunDistributed(g *graph.Graph, pd partition.Dist, src graph.Vertex, opts Options) (*Result, error) {
	group, err := memtransport.New(pd.NumRanks())
	if err != nil {
		return nil, err
	}
	return RunWithTransports(g, pd, src, opts, group.Endpoints())
}

// assemble merges per-rank results into a global Result.
func assemble(g *graph.Graph, pd partition.Dist, ranks []*RankResult) (*Result, error) {
	res := &Result{
		Dist:   make([]graph.Dist, g.NumVertices()),
		Parent: make([]graph.Vertex, g.NumVertices()),
	}
	for _, rr := range ranks {
		for li, d := range rr.LocalDist {
			v := pd.Global(rr.Rank, li)
			res.Dist[v] = d
			res.Parent[v] = rr.LocalParent[li]
		}
	}
	res.Stats = mergeStats(ranks)
	mergePhaseLogs(&res.Stats, ranks)
	return res, nil
}

// mergeStats combines per-rank statistics: counters are summed,
// per-epoch censuses are summed elementwise, control-flow quantities
// (phases, epochs, decisions) are identical across ranks and taken from
// rank 0, and times take the per-rank maximum.
func mergeStats(ranks []*RankResult) Stats {
	var out Stats
	first := true
	for _, rr := range ranks {
		s := &rr.Stats
		if first {
			out.Phases = s.Phases
			out.Epochs = s.Epochs
			out.BFPhases = s.BFPhases
			out.HybridSwitched = s.HybridSwitched
			out.Decisions = append([]Mode(nil), s.Decisions...)
			out.Buckets = make([]BucketStats, len(s.Buckets))
			for i, b := range s.Buckets {
				out.Buckets[i] = BucketStats{
					Index:       b.Index,
					Mode:        b.Mode,
					ShortPhases: b.ShortPhases,
					Settled:     b.Settled,
					PushCost:    b.PushCost,
					PullCost:    b.PullCost,
				}
			}
			first = false
		}
		out.Relax.Add(s.Relax)
		out.Reached += s.Reached
		if s.BktTime > out.BktTime {
			out.BktTime = s.BktTime
		}
		if s.OtherTime > out.OtherTime {
			out.OtherTime = s.OtherTime
		}
		if s.Total > out.Total {
			out.Total = s.Total
		}
		if t := s.Relax.Total(); t > out.MaxRankRelax {
			out.MaxRankRelax = t
		}
		if s.LocalRounds > out.LocalRounds {
			out.LocalRounds = s.LocalRounds
		}
		if s.AsyncRounds > out.AsyncRounds {
			out.AsyncRounds = s.AsyncRounds
		}
		if s.AsyncProbes > out.AsyncProbes {
			out.AsyncProbes = s.AsyncProbes
		}
		out.RankRelax = append(out.RankRelax, s.Relax.Total())
		for i, b := range s.Buckets {
			if i >= len(out.Buckets) {
				break
			}
			out.Buckets[i].ShortRelax += b.ShortRelax
			out.Buckets[i].LongRelax += b.LongRelax
			out.Buckets[i].Requests = b.Requests // allreduced: same everywhere
			out.Buckets[i].SelfEdges += b.SelfEdges
			out.Buckets[i].BackwardEdges += b.BackwardEdges
			out.Buckets[i].ForwardEdges += b.ForwardEdges
		}
		out.mergeTraffic(s.Traffic)
	}
	return out
}
