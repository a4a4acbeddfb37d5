package sssp

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"parsssp/internal/comm"
	"parsssp/internal/comm/memtransport"
	"parsssp/internal/graph"
	"parsssp/internal/partition"
)

// Machine is a reusable in-process SSSP machine: the transports and all
// per-rank engine state (distance arrays, buckets, message buffers,
// histograms) are allocated once and reused across queries. This is the
// deployment pattern of a long-lived service answering repeated SSSP
// queries over one graph — the Graph500 benchmark loop, the analytics
// package's multi-query measures, and the Δ auto-tuner all fit it.
//
// A Machine is bound to one distribution and option set, and to the
// versioned succession of one graph: ApplyUpdates advances the graph a
// batch of edge mutations at a time, repairing the last query's tree
// incrementally instead of recomputing it. Query and ApplyUpdates are
// not safe for concurrent use (they share the engine state); issue them
// sequentially or build one Machine per concurrent stream.
type Machine struct {
	g       *graph.Graph // version-0 graph; the current one is pv.Graph()
	pd      partition.Dist
	opts    Options
	set     *PlaneSet
	pv      *planeVersion // pinned version the engines point at
	engines []*queryState

	treeSrc   graph.Vertex // source of the engines' finished tree
	treeValid bool         // the engines hold a correct tree for treeSrc at pv
}

// NewMachine builds a machine with numRanks in-process ranks (block
// distribution) ready to answer queries with the given options.
func NewMachine(g *graph.Graph, numRanks int, opts Options) (*Machine, error) {
	pd, err := partition.New(partition.Block, g.NumVertices(), numRanks)
	if err != nil {
		return nil, err
	}
	group, err := memtransport.New(numRanks)
	if err != nil {
		return nil, err
	}
	return NewMachineWithTransports(g, pd, opts, group.Endpoints())
}

// NewMachineWithTransports builds a machine over caller-provided
// transports (one per rank of pd, all part of the same machine). It
// exists so tests and instrumented deployments can interpose transport
// wrappers — comm.Latent, comm.Faulty — under a reusable machine.
func NewMachineWithTransports(g *graph.Graph, pd partition.Dist, opts Options,
	transports []comm.Transport) (*Machine, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	if len(transports) != pd.NumRanks() {
		return nil, fmt.Errorf("sssp: %d transports for %d ranks", len(transports), pd.NumRanks())
	}
	m := &Machine{g: g, pd: pd, opts: opts}
	ranks := make([]int, pd.NumRanks())
	for r := range ranks {
		ranks[r] = r
	}
	set, err := NewPlaneSet(g, pd, &m.opts, ranks)
	if err != nil {
		return nil, err
	}
	m.set = set
	m.pv = set.Acquire()
	for r, t := range transports {
		if t.Rank() != r {
			return nil, fmt.Errorf("sssp: transport %d reports rank %d", r, t.Rank())
		}
		eng, err := newQueryState(m.pv.Plane(r), t)
		if err != nil {
			return nil, err
		}
		m.engines = append(m.engines, eng)
	}
	return m, nil
}

// Query runs one SSSP query from src, reusing all machine state.
//
// A rank that fails aborts the shared transport so its peers fail with it
// rather than hang at a collective (see DESIGN.md "Failure semantics");
// the reported error is the root cause, not the peers' secondary
// comm.ErrAborted failures. A failed query leaves the transports poisoned
// — subsequent Queries fail fast — but the Machine remains safe to Close.
func (m *Machine) Query(src graph.Vertex) (*Result, error) {
	if int(src) >= m.g.NumVertices() {
		return nil, fmt.Errorf("sssp: source %d out of range", src)
	}
	errs := make([]error, len(m.engines))
	var wg sync.WaitGroup
	for i, eng := range m.engines {
		wg.Add(1)
		go func(i int, eng *queryState) {
			defer wg.Done()
			eng.reset(src)
			if err := eng.run(); err != nil {
				comm.Abort(eng.t, err)
				errs[i] = err
			}
		}(i, eng)
	}
	wg.Wait()
	if err := firstCause(errs); err != nil {
		m.treeValid = false
		return nil, err
	}
	m.treeSrc, m.treeValid = src, true
	return m.assembleEngines()
}

// assembleEngines collects the engines' finished local trees into a
// Result. assemble copies the local arrays into fresh global slices, so
// the Result outlives the next reset or repair.
func (m *Machine) assembleEngines() (*Result, error) {
	ranks := make([]*RankResult, len(m.engines))
	for i, eng := range m.engines {
		ranks[i] = &RankResult{
			Rank:        eng.rank,
			LocalDist:   eng.dist,
			LocalParent: eng.parent,
			Stats:       eng.stats,
		}
	}
	return assemble(m.g, m.pd, ranks)
}

// ApplyUpdates advances the machine's graph one version by applying
// batch copy-on-write, then repairs the last successful query's
// distance/parent tree in place against the new graph (dynamic.go)
// instead of recomputing it. The returned Result is the updated tree
// for that query's source — distances and parents exactly as a fresh
// Query on the post-update graph would report them (its Stats are the
// original run's, not a recompute's). Before any successful query there
// is no tree to repair: the engines just repoint at the new plane and
// the Result is nil.
//
// A failed repair poisons the transports like a failed query and
// invalidates the tree; the Machine remains safe to Close. A failed
// Apply (an invalid batch) changes nothing.
func (m *Machine) ApplyUpdates(batch UpdateBatch) (*Result, *RepairStats, error) {
	//parssspvet:allow poolsafety -- the pin transfers to m.pv two lines down (after the old pin is released); Close releases it
	pv, err := m.set.Apply(batch)
	if err != nil {
		return nil, nil, err
	}
	m.set.Release(m.pv)
	m.pv = pv
	if !m.treeValid {
		for _, eng := range m.engines {
			eng.rankGraph = pv.Plane(eng.rank)
		}
		return nil, nil, nil
	}
	stats := make([]RepairStats, len(m.engines))
	errs := make([]error, len(m.engines))
	var wg sync.WaitGroup
	for i, eng := range m.engines {
		wg.Add(1)
		go func(i int, eng *queryState) {
			defer wg.Done()
			rs, err := eng.repair(pv.Plane(eng.rank), batch)
			if err != nil {
				comm.Abort(eng.t, err)
				errs[i] = err
			}
			stats[i] = rs
		}(i, eng)
	}
	wg.Wait()
	if err := firstCause(errs); err != nil {
		m.treeValid = false
		return nil, nil, err
	}
	res, err := m.assembleEngines()
	if err != nil {
		return nil, nil, err
	}
	// The collective round counters are identical on every rank;
	// Invalidated is already the machine-wide Allreduce total.
	return res, &stats[0], nil
}

// Version returns the number of update batches applied to the machine.
func (m *Machine) Version() uint64 { return m.set.Version() }

// NumRanks returns the machine size.
func (m *Machine) NumRanks() int { return len(m.engines) }

// Close releases the machine's pooled worker goroutines and transports.
// Queries must not be in flight or issued afterwards. Close exists for
// long-running processes that churn machines; dropping a Machine without
// closing it only leaks its parked worker goroutines until process exit.
// Every transport is closed even when some fail; all close errors are
// reported, joined.
func (m *Machine) Close() error {
	var err error
	for _, eng := range m.engines {
		eng.stopWorkers()
		err = errors.Join(err, eng.t.Close())
	}
	return err
}

// reset returns a rank engine to its initial state for a new query,
// preserving allocations (buffers, histograms, shortEnd, bucket-store
// map storage, and the Stats slices, whose contents were copied out by
// assemble).
func (r *queryState) reset(src graph.Vertex) {
	r.src = src
	for i := range r.dist {
		r.dist[i] = graph.Inf
		r.parent[i] = NoParent
		r.bucketOf[i] = infBucket
		r.mark[i] = -1
	}
	for i := range r.pending {
		r.pending[i] = false
	}
	for i := range r.settled {
		r.settled[i] = false
	}
	for i := range r.longPending {
		r.longPending[i] = false
	}
	for i := range r.asyncStage {
		r.asyncStage[i] = r.asyncStage[i][:0]
		r.asyncStageAt[i] = time.Time{}
	}
	r.store.reset()
	r.longStore.reset()
	r.lq.reset()
	r.curK = 0
	r.hybridMode = false
	r.active = r.active[:0]
	r.nextActive = r.nextActive[:0]
	r.stamp = 0
	r.unreachedLong = r.longTotal
	r.settledTotal = 0
	r.epochSeq = 0
	r.stats = Stats{
		Buckets:   r.stats.Buckets[:0],
		Decisions: r.stats.Decisions[:0],
		PhaseLog:  r.stats.PhaseLog[:0],
	}
	r.bktTime = 0
	r.otherTime = 0
	for i := range r.tcnt {
		r.tcnt[i] = RelaxCounts{}
	}
	r.t.Stats = comm.TrafficStats{}
}
