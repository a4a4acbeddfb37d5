package sssp

import (
	"fmt"
	"time"

	"parsssp/internal/comm"
	"parsssp/internal/graph"
	"parsssp/internal/partition"
)

// queryState is the query plane of one rank: all per-query mutable state
// of a distributed run, over an immutable shared rankGraph. One
// queryState executes on each rank (a goroutine over memtransport, or a
// process over tcptransport); they advance in lockstep through the
// bulk-synchronous collectives of their transports. Distinct queryStates
// over the same rankGraph are independent — a query pool keeps one per
// slot and runs them concurrently.
type queryState struct {
	*rankGraph // shared, read-only; see plane.go

	t   *comm.Counting
	src graph.Vertex

	dist     []graph.Dist   // tentative distances of local vertices
	parent   []graph.Vertex // tree predecessor of local vertices (NoParent = none)
	bucketOf []int64        // current bucket of local vertices (infBucket = unreached)
	store    bucketStore

	curK       int64
	hybridMode bool

	active     []uint32 // local indices active this phase
	nextActive []uint32
	mark       []int64 // stamp array deduplicating nextActive
	stamp      int64
	lq         subQueue // a round's locally activated vertices (drainLocal)
	carry      []uint32 // what drainLocal left queued, carried to the next round

	// Per-thread emission staging and counters; index [thread]. Scans
	// append typed records per destination rank; exchangeRecords encodes
	// the lists bound for other ranks and the apply paths read this
	// rank's own list in place (the rank-local fast path).
	stage      []threadStage
	tcnt       []RelaxCounts
	out        [][]byte           // per-dest encoded frames (header + records)
	in         [][]byte           // per-source record payloads of the last exchange, headers stripped
	hdrSum     [headerWords]int64 // last exchange's header words summed over all ranks
	hdrMax     [headerWords]int64 // ... and their per-rank maxima
	relaxRecs  []relaxRec         // thread-major merge scratch of the encoder (Threads > 1)
	reqRecs    []requestRec       // ... and its request twin
	sorter     relaxSorter
	members    []uint32 // bucket-member scratch of collectMembers
	requesters []uint32 // requester scratch of the pull phase
	items      []workItem
	applyStage []applyStaging // per-thread output of an apply pass
	reduceVal  [2]int64       // input scratch of small allreduces
	gatherVal  []int64        // input scratch of the per-rank-slot allreduce (decideMode)

	// unreachedLong is Σ long-degree over local vertices still at
	// distance Inf: the part of the pull-cost estimate that would
	// otherwise need a scan of every local vertex each epoch. reset sets
	// it to the plane's total and every first reach of a vertex (source
	// seeding, the apply pass) subtracts that vertex's share; it is
	// meaningful from reset to the end of run, which is the only time
	// decideMode reads it.
	unreachedLong int64
	pushSum       int64 // Σ / max over ranks of the epoch's long-edge push
	pushMax       int64 // volume, published on the settle exchange's header

	// Persistent worker pool. Phase scans dispatch to these long-lived
	// goroutines instead of spawning per phase: the per-phase goroutine
	// and closure spawns were the dominant steady-state allocation of the
	// phase loop. workFn/workItems are the current dispatch, published to
	// the workers by the workStart sends and read back at the workDone
	// receives. The worker bodies (shortFn, ...) are built once, lazily,
	// and read their per-phase parameters (phBEnd, phKBase) from the
	// engine instead of capturing them.
	workFn    func(tid int, it workItem)
	workItems []workItem
	workStart []chan struct{}
	workDone  chan struct{}

	phBEnd  graph.Dist // bucket end of the current short/outer-short phase
	phKBase graph.Dist // kΔ of the current pull phase
	phBound graph.Dist // settle threshold M of the current Radius epoch

	shortFn, outerFn, longFn, pullFn, bfFn, asyncShortFn, asyncLongFn,
	radiusFn, rhoFn func(tid int, it workItem)

	// Radius Stepping state (PolicyRadius; see radius.go). Allocated
	// lazily by the first radius run on this state.
	settled []bool // vertex is finalized (dist is its shortest distance)

	// Asynchronous execution scratch (ExecMode async; see async.go).
	// Allocated lazily by the first async run on this state.
	pending       []bool       // vertex is queued for an async short-edge round
	longPending   []bool       // vertex has a deferred async long-edge relax
	longStore     bucketStore  // deferred long-edge queue, keyed like store
	asyncStage    [][]relaxRec // per-dest staged records awaiting a watermark
	asyncStageAt  []time.Time  // stage time of each dest's oldest staged record
	asyncFlushBuf []byte       // wire-encoding scratch of async flushes

	settledTotal int64
	epochSeq     int // epoch ordinal (for DecisionSequence)

	stats     Stats
	bktTime   time.Duration
	otherTime time.Duration
}

type workItem struct {
	li     uint32
	lo, hi int32
}

// threadStage is one scan thread's staged output: typed records per
// destination rank, the scanning rank's own slot included.
type threadStage struct {
	relax [][]relaxRec
	req   [][]requestRec
}

// newQueryState allocates the mutable query plane of one rank over the
// shared graph plane. The transport must belong to the same machine
// shape as the plane (same rank, same size); a query pool calls this
// once per slot, with one independent transport (a memtransport
// sub-group endpoint or a tcptransport channel) per slot.
func newQueryState(plane *rankGraph, t comm.Transport) (*queryState, error) {
	if t.Size() != plane.size {
		return nil, fmt.Errorf("sssp: plane has %d ranks, transport %d", plane.size, t.Size())
	}
	if t.Rank() != plane.rank {
		return nil, fmt.Errorf("sssp: plane is rank %d, transport reports rank %d",
			plane.rank, t.Rank())
	}
	r := &queryState{
		rankGraph: plane,
		t:         comm.NewCounting(t),
	}
	r.dist = newDistArray(r.nLocal)
	r.parent = newParentArray(r.nLocal)
	r.bucketOf = make([]int64, r.nLocal)
	for i := range r.bucketOf {
		r.bucketOf[i] = infBucket
	}
	r.mark = make([]int64, r.nLocal)
	for i := range r.mark {
		r.mark[i] = -1
	}
	r.lq = newSubQueue(r.nLocal)
	r.store = newBucketStore()
	T := r.opts.threads()
	r.stage = make([]threadStage, T)
	for i := range r.stage {
		r.stage[i] = threadStage{
			relax: make([][]relaxRec, r.size),
			req:   make([][]requestRec, r.size),
		}
	}
	r.tcnt = make([]RelaxCounts, T)
	r.applyStage = make([]applyStaging, T)
	r.out = make([][]byte, r.size)
	r.in = make([][]byte, r.size)
	r.gatherVal = make([]int64, r.size)
	r.unreachedLong = r.longTotal
	return r, nil
}

// newRankEngine builds a plane+state pair in one step: the shape used by
// single-query runs (RunRank) and tests, where sharing the plane buys
// nothing.
func newRankEngine(g *graph.Graph, pd partition.Dist, src graph.Vertex,
	opts *Options, t comm.Transport, maxW graph.Weight) (*queryState, error) {
	if pd.NumRanks() != t.Size() {
		return nil, fmt.Errorf("sssp: distribution has %d ranks, transport %d",
			pd.NumRanks(), t.Size())
	}
	if int(src) >= g.NumVertices() {
		return nil, fmt.Errorf("sssp: source %d out of range", src)
	}
	plane, err := newRankGraph(g, pd, t.Rank(), opts, maxW)
	if err != nil {
		return nil, err
	}
	qs, err := newQueryState(plane, t)
	if err != nil {
		return nil, err
	}
	qs.src = src
	return qs, nil
}

// tracing reports whether this rank emits execution-trace lines: only
// rank 0 does, so the writer needs no synchronization.
func (r *queryState) tracing() bool { return r.rank == 0 && r.opts.Trace != nil }

// tracef writes an execution-trace line on the tracing rank.
func (r *queryState) tracef(format string, args ...interface{}) {
	if !r.tracing() {
		return
	}
	fmt.Fprintf(r.opts.Trace, format+"\n", args...)
}

// ---- timed collectives ----------------------------------------------------

func (r *queryState) allreduce(vals []int64, op comm.ReduceOp, bucketOverhead bool) ([]int64, error) {
	start := now()
	res, err := r.t.AllreduceInt64(vals, op)
	r.charge(start, bucketOverhead)
	return res, err
}

// exchangeRecords runs the superstep's all-to-all over the staged records
// of the given kind and maintains the record-level traffic counters (the
// transport wrapper cannot see record boundaries, so the engine counts).
//
// Every frame to another rank starts with this rank's header words h0,
// h1; the received headers are validated, stripped and reduced into
// hdrSum/hdrMax (this rank's own words included), so a site that needs a
// machine-wide sum or maximum of a per-rank count gets it from the
// exchange it runs anyway. What the words mean is the call site's
// business; sites with nothing to say pass zeros. The returned payloads
// are indexed by source rank and hold records only; the slot of this
// rank is empty — its own records never leave the staging lists, and
// the consumers (applyRelaxIn, respondRequests) read them there, at this
// rank's position in the source order.
func (r *queryState) exchangeRecords(kind recKind, h0, h1 int64) ([][]byte, error) {
	start := now()
	defer r.charge(start, false)
	return r.exchange(kind, h0, h1)
}

// exchange is exchangeRecords without the clock: relaxRounds times a
// whole round from its boundary stamps instead.
func (r *queryState) exchange(kind recKind, h0, h1 int64) ([][]byte, error) {
	r.encodeOut(kind, h0, h1)
	in, err := r.t.Exchange(r.out)
	if err != nil {
		return nil, err
	}
	r.hdrSum = [headerWords]int64{h0, h1}
	r.hdrMax = r.hdrSum
	// Header words are vertex or adjacency-entry counts of one rank.
	limit := uint64(2*r.g.NumEdges()) + uint64(r.pd.NumVertices())
	wf := r.opts.WireFormat
	for src, buf := range in {
		if src == r.rank {
			continue // nothing was sent: r.in[rank] stays empty
		}
		h, n, ok := readHeader(buf, limit)
		if !ok {
			return nil, r.corruptErr(src, "header", errMalformedPayload)
		}
		for i, w := range h {
			r.hdrSum[i] += w
			if w > r.hdrMax[i] {
				r.hdrMax[i] = w
			}
		}
		r.in[src] = buf[n:]
		r.t.Stats.RecordsReceived += int64(wireRecordCount(r.in[src], kind, wf))
	}
	return r.in, nil
}

// encodeOut builds the frame for every other rank in r.out: the round
// header, then that destination's staged records merged thread-major
// (the order a single thread would have emitted them in, which the
// first-wins parent choice on zero-weight ties depends on) and encoded
// in the configured wire format — relax batches stably sorted by
// destination vertex under v2 for the delta encoding, requests in
// emission order. Counts the records sent to other ranks.
func (r *queryState) encodeOut(kind recKind, h0, h1 int64) {
	wf := r.opts.WireFormat
	for dest := 0; dest < r.size; dest++ {
		if dest == r.rank {
			continue // applied from the staging lists; r.out[rank] stays empty
		}
		buf := appendHeader(r.out[dest][:0], h0, h1)
		if kind == relaxKind {
			recs := r.stage[0].relax[dest]
			if len(r.stage) > 1 {
				recs = r.relaxRecs[:0]
				for tid := range r.stage {
					recs = append(recs, r.stage[tid].relax[dest]...)
				}
				r.relaxRecs = recs
			}
			if len(recs) > 0 { // an empty payload is an empty batch in either format
				if wf == WireV2 {
					sortRelaxBatch(&r.sorter, recs) // in place: the staging is consumed here
				}
				buf = encodeRelax(buf, recs, wf)
				r.t.Stats.RecordsSent += int64(len(recs))
			}
		} else {
			reqs := r.stage[0].req[dest]
			if len(r.stage) > 1 {
				reqs = r.reqRecs[:0]
				for tid := range r.stage {
					reqs = append(reqs, r.stage[tid].req[dest]...)
				}
				r.reqRecs = reqs
			}
			if len(reqs) > 0 {
				buf = encodeRequests(buf, reqs, wf)
				r.t.Stats.RecordsSent += int64(len(reqs))
			}
		}
		r.out[dest] = buf
	}
}

func (r *queryState) charge(start time.Time, bucketOverhead bool) {
	r.lap(start, bucketOverhead)
}

// lap charges the time since start like charge and returns the reading
// it took, so that the next section can start from it without a clock
// read of its own.
func (r *queryState) lap(start time.Time, bucketOverhead bool) time.Time {
	t := now()
	if bucketOverhead {
		r.bktTime += t.Sub(start)
	} else {
		r.otherTime += t.Sub(start)
	}
	return t
}

// ---- parallel scans --------------------------------------------------------

// buildItems converts a vertex list into work items, chunking the edge
// lists of heavy vertices when thread-level load balancing is enabled
// (the paper's intra-node strategy: the owner thread does not relax all
// edges of a heavy vertex by itself).
func (r *queryState) buildItems(verts []uint32) []workItem {
	items := r.items[:0]
	if r.opts.LoadBalance && r.opts.threads() > 1 {
		pi := int32(r.opts.heavyThreshold())
		for _, li := range verts {
			deg := int32(r.g.Degree(r.global(li)))
			if deg > pi {
				for lo := int32(0); lo < deg; lo += pi {
					hi := lo + pi
					if hi > deg {
						hi = deg
					}
					items = append(items, workItem{li, lo, hi})
				}
			} else {
				items = append(items, workItem{li, 0, deg})
			}
		}
	} else {
		for _, li := range verts {
			deg := int32(r.g.Degree(r.global(li)))
			items = append(items, workItem{li, 0, deg})
		}
	}
	r.items = items
	return items
}

// runWorkers executes fn over items with the rank's thread pool, after
// emptying every thread's staging lists. fn must only touch thread-local
// state (stage[tid], tcnt[tid]).
//
// Batches are assigned statically and cyclically: batch b belongs to
// thread b mod T. The item→thread mapping is therefore a pure function
// of the item list, which makes the per-thread emission buffers — and
// with them the entire wire stream and the first-wins parent election —
// reproducible run to run. Cyclic interleaving keeps the load spread
// when cost varies smoothly along the item list; genuinely heavy
// vertices are split across batches by buildItems when LoadBalance is
// on.
func (r *queryState) runWorkers(items []workItem, fn func(tid int, it workItem)) {
	start := now()
	defer r.charge(start, false)
	r.clearStage()
	r.dispatch(items, fn)
}

// dispatch is runWorkers without the clock and without emptying the
// staging lists: relaxRounds accumulates the records bound for other
// ranks over a round's local sub-rounds.
func (r *queryState) dispatch(items []workItem, fn func(tid int, it workItem)) {
	T := r.opts.threads()
	if T == 1 || len(items) == 0 {
		for _, it := range items {
			fn(0, it)
		}
		return
	}
	if r.workStart == nil {
		r.workStart = make([]chan struct{}, T)
		r.workDone = make(chan struct{}, T)
		for tid := 0; tid < T; tid++ {
			r.workStart[tid] = make(chan struct{}, 1)
			go r.poolWorker(tid, T)
		}
	}
	r.workFn, r.workItems = fn, items
	for tid := 0; tid < T; tid++ {
		r.workStart[tid] <- struct{}{}
	}
	for tid := 0; tid < T; tid++ {
		<-r.workDone
	}
	r.workFn, r.workItems = nil, nil
}

// poolWorker is the body of one pooled worker goroutine. Each workStart
// send publishes workFn/workItems (the channel handshake orders those
// writes before the reads here, and the workDone sends order the scan's
// results before the dispatcher continues). Workers exit when stopWorkers
// closes their start channel.
func (r *queryState) poolWorker(tid, T int) {
	const batch = 16
	for range r.workStart[tid] {
		items, fn := r.workItems, r.workFn
		for base := tid * batch; base < len(items); base += T * batch {
			end := base + batch
			if end > len(items) {
				end = len(items)
			}
			for j := base; j < end; j++ {
				fn(tid, items[j])
			}
		}
		r.workDone <- struct{}{}
	}
}

// stopWorkers shuts down the pooled worker goroutines (if any were ever
// started). The engine must be idle: no runWorkers dispatch in flight.
// Safe to call more than once; runWorkers would lazily restart the pool
// if the engine were used again.
func (r *queryState) stopWorkers() {
	for _, ch := range r.workStart {
		close(ch)
	}
	r.workStart = nil
	r.workDone = nil
}

// clearStage empties every thread's staging lists.
func (r *queryState) clearStage() {
	for tid := range r.stage {
		st := &r.stage[tid]
		for dest := range st.relax {
			st.relax[dest] = st.relax[dest][:0]
			st.req[dest] = st.req[dest][:0]
		}
	}
}

// clearOwn empties every thread's relax list for this rank, once a
// local sub-round has applied it.
func (r *queryState) clearOwn() {
	for tid := range r.stage {
		r.stage[tid].relax[r.rank] = r.stage[tid].relax[r.rank][:0]
	}
}

// stagedRelax returns the number of relax records staged for dest, or
// for every rank when dest < 0.
func (r *queryState) stagedRelax(dest int) int {
	n := 0
	for tid := range r.stage {
		if dest >= 0 {
			n += len(r.stage[tid].relax[dest])
			continue
		}
		for _, recs := range r.stage[tid].relax {
			n += len(recs)
		}
	}
	return n
}

// relaxTotals sums the per-thread relaxation counters.
func (r *queryState) relaxTotals() RelaxCounts {
	var sum RelaxCounts
	for i := range r.tcnt {
		sum.Add(r.tcnt[i])
	}
	return sum
}

// ---- main loop ---------------------------------------------------------

// run executes the full query on this rank and leaves per-rank results in
// r.dist / r.stats.
func (r *queryState) run() error {
	if r.opts.ExecMode == ExecAsync {
		return r.runAsync()
	}
	switch r.opts.Policy {
	case PolicyRadius:
		return r.runRadius()
	case PolicyRho:
		return r.runRho()
	}
	totalStart := now()
	if r.pd.Owner(r.src) == r.rank {
		li := uint32(r.local(r.src))
		r.dist[li] = 0
		r.parent[li] = r.src
		r.bucketOf[li] = 0
		r.store.add(0, li)
		r.unreachedLong -= r.longDeg(li)
	}
	// The source sits at distance 0, so the first non-empty bucket is 0
	// on every machine: no collective needed to agree on it.
	k := int64(0)
	n := int64(r.g.NumVertices())

	if r.tracing() { // guarded: boxing the arguments allocates per query
		r.tracef("sssp: start source=%d ranks=%d delta=%d", r.src, r.size, r.opts.Delta)
	}
	for k < infBucket {
		if r.opts.MaxEpochs > 0 && int(r.stats.Epochs) >= r.opts.MaxEpochs {
			return fmt.Errorf("sssp: exceeded MaxEpochs=%d at bucket %d", r.opts.MaxEpochs, k)
		}
		r.curK = k
		if err := r.processEpoch(k); err != nil {
			return err
		}
		r.stats.Epochs++
		r.epochSeq++
		if r.tracing() { // guarded: boxing the arguments allocates per epoch
			bs := &r.stats.Buckets[len(r.stats.Buckets)-1]
			r.tracef("epoch bucket=%d mode=%s shortPhases=%d settled=%d",
				bs.Index, bs.Mode, bs.ShortPhases, bs.Settled)
		}

		if r.opts.Hybrid && float64(r.settledTotal) >= r.opts.tau()*float64(n) {
			r.stats.HybridSwitched = true
			if r.tracing() {
				r.tracef("hybrid switch after bucket %d: settled %d/%d", k, r.settledTotal, n)
			}
			if err := r.runBellmanFord(k); err != nil {
				return err
			}
			break
		}

		bktStart := now()
		r.store.drop(k)
		localNext := r.store.nextNonEmpty(k, r.bucketOf)
		r.charge(bktStart, true)
		r.reduceVal[0] = localNext
		nv, err := r.allreduce(r.reduceVal[:1], comm.Min, true)
		if err != nil {
			return err
		}
		k = nv[0]
	}

	r.finishStats(totalStart)
	if r.tracing() {
		r.tracef("done epochs=%d phases=%d bfPhases=%d reached=%d relax=%d",
			r.stats.Epochs, r.stats.Phases, r.stats.BFPhases, r.stats.Reached,
			r.stats.Relax.Total())
	}
	return nil
}

// finishStats assembles this rank's Stats.
func (r *queryState) finishStats(totalStart time.Time) {
	r.stats.Relax = r.relaxTotals()
	r.stats.BktTime = r.bktTime
	r.stats.OtherTime = r.otherTime
	r.stats.Total = since(totalStart)
	for _, d := range r.dist {
		if d < graph.Inf {
			r.stats.Reached++
		}
	}
	r.stats.MaxRankRelax = r.stats.Relax.Total()
	r.stats.Traffic = r.t.Stats
}

// collectMembers returns the valid members of bucket k (charged to bucket
// overhead, per the paper's BktTime definition). The result aliases a
// rank-owned scratch slice, invalidated by the next collectMembers call;
// callers that keep it across epochs must copy.
func (r *queryState) collectMembers(k int64) []uint32 {
	start := now()
	defer r.charge(start, true)
	members := r.members[:0]
	for _, li := range r.store.list(k) {
		if r.bucketOf[li] == k {
			members = append(members, li)
		}
	}
	r.members = members
	return members
}

// processEpoch settles bucket k: short-edge rounds to a fixpoint, the
// settle exchange, then the long-edge phase.
func (r *queryState) processEpoch(k int64) error {
	bs := BucketStats{Index: k, Mode: ModePush}
	// Copy out of the shared scratch: r.active survives into the round
	// loop's swap chain, and collectMembers is called again below.
	r.active = append(r.active[:0], r.collectMembers(k)...)

	before := r.relaxTotals()
	r.phBEnd = r.bucketEnd(k)
	rounds, err := r.relaxRounds(roundSpec{
		scan: r.shortScan(), activate: true, log: true, kind: PhaseShort, key: k})
	if err != nil {
		return err
	}
	r.stats.Phases += rounds
	bs.ShortPhases = int(rounds)
	afterShort := r.relaxTotals()
	bs.ShortRelax = afterShort.Total() - before.Total()

	// The fixpoint made bucket k's membership final: nothing relaxed from
	// here on can land in it (outer-short and long offers all exceed the
	// bucket's end).
	members := r.collectMembers(k)
	if err := r.settleBucket(k, members); err != nil {
		return err
	}
	if r.opts.EdgeClassification && !r.step.unbounded() {
		if err := r.longPhase(k, members, &bs); err != nil {
			return err
		}
	}
	afterLong := r.relaxTotals()
	bs.LongRelax = afterLong.Total() - afterShort.Total()
	bs.Settled = r.settledTotal
	r.stats.Buckets = append(r.stats.Buckets, bs)
	return nil
}

// roundSpec parameterizes relaxRounds for its three users: the
// short-edge rounds of an epoch (and of a Radius threshold), the
// post-switch Bellman-Ford stage, and the incremental repair's re-relax
// rounds.
type roundSpec struct {
	scan     func(tid int, it workItem) // frontier scan staging relax records
	activate bool                       // applyRelaxIn's activate
	log      bool                       // rounds are timeline phases of kind/key
	kind     PhaseKind
	key      int64
	// onRound, if set, sees every list of local vertices before it is
	// scanned — a round's active set and each local sub-round's members
	// (the repair tracks what moved).
	onRound func(active []uint32)
}

// relaxRounds runs rounds over r.active until the machine is quiescent
// and returns the number of rounds that had a globally non-empty active
// set. Each round is a rank-local fixpoint followed by one exchange:
//
//  1. scan r.active (what the last exchange activated, and what the
//     last round's drain left queued);
//  2. apply the records this rank staged for itself and re-scan the
//     local vertices they activate, lowest distance sub-bucket first
//     (drainLocal), until nothing local activates;
//  3. exchange the records staged for other ranks — accumulated over
//     the whole round — and apply what arrives, which activates the
//     next round's set.
//
// Termination rides the exchange: each rank's header carries its active
// count and its emitted count — the records it sent to other ranks plus
// the vertices its drain left queued — so after the exchange every rank
// knows both machine-wide sums. No active vertex anywhere means the
// previous round already was the fixpoint and this one moved nothing:
// stop, uncounted. Nothing emitted means nothing can be activated: every
// rank is at its local fixpoint, so stop after this (counted) round
// without paying for an empty one.
//
// Distances are the fixpoint's, whatever the order. Parents are too on
// positive weights: every vertex is scanned at its final distance
// exactly once (it is re-activated only by strict improvements), so the
// offers that tie a final distance — the candidates of applyRelaxIn's
// min-id election — are the same set under any schedule, and a stale
// offer never ties (it exceeds the final one).
//
// A round reads the clock three times whatever its number of local
// sub-rounds: at its start, after the exchange and after the apply; the
// time between is charged from those stamps.
func (r *queryState) relaxRounds(sp roundSpec) (int64, error) {
	var rounds, sentBefore int64
	entry := r.relaxTotals()
	for {
		start := now()
		before := r.relaxTotals()
		nActive := len(r.active)
		if sp.onRound != nil {
			sp.onRound(r.active)
		}
		r.clearStage()
		r.dispatch(r.buildItems(r.active), sp.scan)
		scanned := r.relaxTotals()
		subRounds, subActive, err := r.drainLocal(sp, entry, sentBefore)
		if err != nil {
			return rounds, err
		}
		sent := int64(r.stagedRelax(-1)) // the rank's own lists are drained
		sentBefore += sent
		r.carry = r.lq.take(r.carry[:0]) // a drain cut short leaves these
		in, err := r.exchange(relaxKind, int64(nActive), sent+int64(len(r.carry)))
		mid := r.lap(start, false)
		if err != nil {
			return rounds, err
		}
		active, emitted := r.hdrSum[0], r.hdrSum[1]
		// What the headers announce must cover what arrived: a damaged
		// header that still parses must not end the loop early.
		got := int64(totalWireRecords(in, relaxKind, r.opts.WireFormat))
		if got > emitted || (active == 0 && emitted != 0) {
			return rounds, fmt.Errorf("sssp: rank %d: corrupt round headers: %d active, %d records announced, %d arrived",
				r.rank, active, emitted, got)
		}
		err = r.applyRecords(in, sp.activate, nil)
		for _, li := range r.carry {
			if r.mark[li] != r.stamp {
				r.mark[li] = r.stamp
				r.nextActive = append(r.nextActive, li)
			}
		}
		end := r.lap(mid, false)
		if err != nil {
			return rounds, err
		}
		if active == 0 {
			return rounds, nil
		}
		rounds++
		r.stats.LocalRounds += subRounds
		if sp.log && r.opts.RecordPhases {
			after := r.relaxTotals()
			r.stats.PhaseLog = append(r.stats.PhaseLog, PhaseRecord{
				Bucket: sp.key, Kind: sp.kind, Active: int64(nActive),
				Relax: scanned.Total() - before.Total(), Sent: sent, Duration: end.Sub(start),
			}, PhaseRecord{
				Bucket: sp.key, Kind: PhaseLocal, Active: subActive,
				Relax: after.Total() - scanned.Total(),
			})
		}
		r.active, r.nextActive = r.nextActive, r.active[:0]
		if emitted == 0 {
			return rounds, nil
		}
	}
}

// drainCut is the share of its relaxations, as a power of two, that a
// fixpoint may send to other ranks and still be drained locally:
// 1/2^drainCut.
const drainCut = 4

// drainLocal is step 2 of a relaxRounds round: it applies the records
// this rank staged for itself, queues the local vertices they activate
// by distance sub-bucket (subQueue), and scans the lowest sub-bucket as
// one Jacobi sub-round over the thread pool, until no local vertex is
// active. Records for other ranks stay staged. It returns the number of
// sub-rounds and the vertices they scanned.
//
// The drain pays where few of a rank's relaxations cross ranks (a
// low-cut partition, such as a grid's blocks): the peers lose nothing
// by waiting for it. Where many do (R-MAT's random cut), a drain makes
// the peers idle while this rank works through what they could have
// started on, and the ranks end up taking turns. So the drain stops
// once more than 1/2^drainCut of the relaxations the fixpoint has
// staged since entry (over all its rounds, sentBefore being the records
// earlier rounds sent) were bound for other ranks, and leaves the queue
// to the next round, which is then an ordinary bulk-synchronous one.
// Only counts decide, so every run makes the same choice.
func (r *queryState) drainLocal(sp roundSpec, entry RelaxCounts, sentBefore int64) (subRounds, scanned int64, err error) {
	q := &r.lq
	width := r.subWidth()
	for {
		if err := r.applyRecords(nil, sp.activate, nil); err != nil {
			return subRounds, scanned, err
		}
		r.clearOwn()
		q.fill(r.nextActive, r.dist, width)
		r.nextActive = r.nextActive[:0]
		if sent := sentBefore + int64(r.stagedRelax(-1)); sent<<drainCut > r.relaxTotals().Total()-entry.Total() {
			return subRounds, scanned, nil
		}
		members := q.next()
		if len(members) == 0 {
			return subRounds, scanned, nil
		}
		if sp.onRound != nil {
			sp.onRound(members)
		}
		r.dispatch(r.buildItems(members), sp.scan)
		subRounds++
		scanned += int64(len(members))
	}
}

// subWidth is the distance width of a local sub-bucket: a sixteenth of
// the heaviest edge, so that one scan's activations span about sixteen
// sub-buckets and a vertex is rarely scanned before its distance is
// final.
func (r *queryState) subWidth() graph.Dist {
	if w := graph.Dist(r.maxW) / 16; w > 1 {
		return w
	}
	return 1
}

// shortScan lazily builds the short-phase scan: the (inner) short edges
// of the active vertices. Built once per engine; it reads the phase bound
// from r.phBEnd so the same closure serves every round without a
// per-round allocation.
func (r *queryState) shortScan() func(tid int, it workItem) {
	if r.shortFn == nil {
		ios := r.opts.IOS
		r.shortFn = func(tid int, it workItem) {
			v := r.global(it.li)
			du := r.dist[it.li]
			nbr, ws := r.g.Neighbors(v)
			end := it.hi
			if se := r.shortEnd[it.li]; end > se {
				end = se
			}
			cnt := &r.tcnt[tid]
			st := &r.stage[tid]
			for i := it.lo; i < end; i++ {
				nd := du + graph.Dist(ws[i])
				if ios && nd > r.phBEnd {
					cnt.Skipped++
					continue
				}
				cnt.ShortPush++
				dst := r.pd.Owner(nbr[i])
				st.relax[dst] = append(st.relax[dst], relaxRec{nbr[i], tagParent(v, ws[i]), nd})
			}
		}
	}
	return r.shortFn
}
