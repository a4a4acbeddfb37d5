package sssp

import (
	"fmt"
	"math"

	"parsssp/internal/comm"
	"parsssp/internal/graph"
)

// This file implements what follows an epoch's short-edge fixpoint: the
// settle exchange, the long-edge phase in its push and pull forms (the
// paper's pruning heuristic), the per-bucket push/pull decision, and the
// post-switch Bellman-Ford rounds of the hybridization strategy.

// settleBucket runs the one exchange every epoch performs right after
// its short-edge fixpoint. Its header publishes this rank's share of the
// two quantities the fixpoint made final — the long-edge push volume of
// bucket k (the decision heuristic wants its sum and its per-rank
// maximum) and the number of vertices the bucket settles — so neither
// needs a collective of its own. Under IOS the same exchange carries the
// outer-short relaxations of the members: always pushed, regardless of
// the long-edge mechanism; see DESIGN.md ("Pull phase and outer-short
// edges"). Without IOS the short phases already relaxed every short
// edge and the frames are headers only.
//
// Stage order matters for the decision heuristic: the outer-short push
// runs before it because it assigns finite tentative distances to many
// previously-unreached vertices, which shrinks their useful-request sets;
// counting pull requests before it would overestimate the pull cost by
// roughly 2× on benchmark graphs.
func (r *queryState) settleBucket(k int64, members []uint32) error {
	start := now()
	before := r.relaxTotals()
	var pushLocal int64
	if r.opts.Prune {
		for _, li := range members {
			pushLocal += r.longDeg(li)
		}
	}
	var pushers []uint32
	if r.opts.IOS {
		pushers = members
	}
	r.runWorkers(r.buildItems(pushers), r.outerScan())
	in, err := r.exchangeRecords(relaxKind, pushLocal, int64(len(members)))
	if err != nil {
		return err
	}
	r.pushSum, r.pushMax = r.hdrSum[0], r.hdrMax[0]
	r.settledTotal += r.hdrSum[1]
	if err := r.applyRelaxIn(in, false, nil); err != nil {
		return err
	}
	if r.opts.IOS {
		r.logPhase(k, PhaseOuterShort, len(members), before, start)
	}
	return nil
}

// outerScan lazily builds the outer-short scan: the short edges of a
// settled member that the short phases' IOS filter held back.
func (r *queryState) outerScan() func(tid int, it workItem) {
	if r.outerFn == nil {
		r.outerFn = func(tid int, it workItem) {
			v := r.global(it.li)
			du := r.dist[it.li]
			nbr, ws := r.g.Neighbors(v)
			cnt := &r.tcnt[tid]
			st := &r.stage[tid]
			end := it.hi
			if se := r.shortEnd[it.li]; end > se {
				end = se // long edges are handled by the long-edge mechanism
			}
			for i := it.lo; i < end; i++ {
				nd := du + graph.Dist(ws[i])
				if nd <= r.phBEnd {
					continue // inner short: already relaxed in short phases
				}
				cnt.OuterShortPush++
				dst := r.pd.Owner(nbr[i])
				st.relax[dst] = append(st.relax[dst], relaxRec{nbr[i], tagParent(v, ws[i]), nd})
			}
		}
	}
	return r.outerFn
}

// longPhase relaxes the long edges of the settled bucket-k vertices, by
// push or by pull.
func (r *queryState) longPhase(k int64, members []uint32, bs *BucketStats) error {
	r.stats.Phases++
	mode := ModePush
	if r.opts.Prune {
		m, err := r.decideMode(k, bs)
		if err != nil {
			return err
		}
		mode = m
	}
	bs.Mode = mode
	r.stats.Decisions = append(r.stats.Decisions, mode)

	start := now()
	before := r.relaxTotals()
	if mode == ModePush {
		if err := r.pushScanLong(members, bs); err != nil {
			return err
		}
		r.logPhase(k, PhaseLongPush, len(members), before, start)
		return nil
	}
	if err := r.pullScan(k); err != nil {
		return err
	}
	r.logPhase(k, PhaseLongPull, len(members), before, start)
	return nil
}

// pushScanLong pushes only the long edges, attributing the received
// records to the self/backward/forward census when enabled.
func (r *queryState) pushScanLong(members []uint32, bs *BucketStats) error {
	if r.longFn == nil {
		r.longFn = func(tid int, it workItem) {
			v := r.global(it.li)
			du := r.dist[it.li]
			nbr, ws := r.g.Neighbors(v)
			cnt := &r.tcnt[tid]
			st := &r.stage[tid]
			se := r.shortEnd[it.li]
			lo := it.lo
			if lo < se {
				lo = se
			}
			for i := lo; i < it.hi; i++ {
				cnt.LongPush++
				nd := du + graph.Dist(ws[i])
				dst := r.pd.Owner(nbr[i])
				st.relax[dst] = append(st.relax[dst], relaxRec{nbr[i], tagParent(v, ws[i]), nd})
			}
		}
	}
	items := r.buildItems(members)
	r.runWorkers(items, r.longFn)
	in, err := r.exchangeRecords(relaxKind, 0, 0)
	if err != nil {
		return err
	}
	var census *BucketStats
	if r.opts.Census {
		census = bs
	}
	return r.applyRelaxIn(in, false, census)
}

// pullScan runs the pull model: every local vertex in a later bucket
// requests, over each long edge whose weight passes the usefulness test
// w <= d(v) − kΔ, the tentative distance of the far endpoint; owners of
// current-bucket vertices respond with relaxations. (Equality is useful
// only to parent election, see the loop body.)
func (r *queryState) pullScan(k int64) error {
	// Requesters are all local unsettled vertices. Collect them (this is
	// work the pull model pays for; charged to relaxation time). The
	// scratch is rank-owned and reused across pull epochs; buildItems
	// copies what it needs.
	start := now()
	requesters := r.requesters[:0]
	for li := 0; li < r.nLocal; li++ {
		if r.bucketOf[li] > k {
			requesters = append(requesters, uint32(li))
		}
	}
	r.requesters = requesters
	r.charge(start, false)

	r.phKBase = k * r.dd
	if r.pullFn == nil {
		r.pullFn = func(tid int, it workItem) {
			v := r.global(it.li)
			dv := r.dist[it.li]
			bound := dv - r.phKBase // request iff w <= bound
			nbr, ws := r.g.Neighbors(v)
			cnt := &r.tcnt[tid]
			st := &r.stage[tid]
			se := r.shortEnd[it.li]
			lo := it.lo
			if lo < se {
				lo = se
			}
			for i := lo; i < it.hi; i++ {
				// A boundary-weight edge (w = d(v) − kΔ) cannot improve d(v),
				// but a bucket-k responder at exactly kΔ answers it with a
				// tie — and ties elect parents canonically, so the offer must
				// travel. Hence <=, not <.
				if graph.Dist(ws[i]) > bound {
					cnt.Skipped += int64(it.hi - i)
					break // weight-sorted: the rest fail the test too
				}
				cnt.PullRequests++
				dst := r.pd.Owner(nbr[i])
				st.req[dst] = append(st.req[dst], requestRec{nbr[i], v, ws[i]})
			}
		}
	}
	items := r.buildItems(requesters)
	r.runWorkers(items, r.pullFn)
	reqIn, err := r.exchangeRecords(requestKind, 0, 0)
	if err != nil {
		return err
	}
	if err := r.respondRequests(reqIn, k); err != nil {
		return err
	}
	respIn, err := r.exchangeRecords(relaxKind, 0, 0)
	if err != nil {
		return err
	}
	return r.applyRelaxIn(respIn, false, nil)
}

// respondRequests answers a request superstep: for each request
// (u, v, w) whose u may respond, stage relax(v, d(u)+w) for v's owner.
// With bucket >= 0 only current-bucket vertices respond (the pull
// phase, which counts its responses); with bucket < 0 every reached
// vertex does (the repair's seed and re-election requests). A serial
// walk in source-rank order — this rank's own requests are read from
// the scan's staging lists at its position in that order — emitting
// through thread 0's relax lists, which the request scan left empty.
//
// Damaged requests fail the query like damaged relaxations do (see
// applyRelaxIn): u must be locally owned, and v must be a real vertex or
// Owner(v) would fault.
func (r *queryState) respondRequests(reqIn [][]byte, bucket int64) error {
	start := now()
	defer r.charge(start, false)
	wf := r.opts.WireFormat
	for src, buf := range reqIn {
		if src == r.rank {
			for tid := range r.stage {
				for _, q := range r.stage[tid].req[src] {
					if err := r.respond(src, q, bucket); err != nil {
						return err
					}
				}
			}
			continue
		}
		rd := newRequestReader(buf, wf)
		for {
			u, v, w, ok := rd.next()
			if !ok {
				break
			}
			if err := r.respond(src, requestRec{u, v, w}, bucket); err != nil {
				return err
			}
		}
		if err := rd.err(); err != nil {
			return r.corruptErr(src, "request", err)
		}
	}
	return nil
}

// respond answers one request from rank src; see respondRequests.
func (r *queryState) respond(src int, q requestRec, bucket int64) error {
	li := r.local(q.u)
	if uint(li) >= uint(r.nLocal) {
		return r.corruptErr(src, "request",
			fmt.Errorf("vertex %d is not owned by this rank", q.u))
	}
	if q.v >= graph.Vertex(r.pd.NumVertices()) {
		return r.corruptErr(src, "request",
			fmt.Errorf("requester %d is not a vertex", q.v))
	}
	if bucket >= 0 {
		if r.bucketOf[li] != bucket {
			return nil
		}
		r.tcnt[0].PullResponses++
	} else if r.dist[li] >= graph.Inf {
		return nil
	}
	dst := r.pd.Owner(q.v)
	st := &r.stage[0]
	st.relax[dst] = append(st.relax[dst],
		relaxRec{q.v, tagParent(q.u, q.w), r.dist[li] + graph.Dist(q.w)})
	return nil
}

// pullLocalHook, when set (tests only), observes every decision's
// rank-local pull cost as decideMode computed it.
var pullLocalHook func(r *queryState, k int64, pullLocal int64)

// decideMode evaluates the push/pull decision heuristic for bucket k.
//
// Push cost is the number of long edges incident on the current bucket
// (each becomes one relaxation message). Pull cost is twice the request
// count (each useful request triggers at most one response; the paper
// uses the request count as the response upper bound). Following the
// paper's fine-tuned heuristic, each cost blends the machine-wide volume
// with the worst-rank load: cost = (1−λ)·volume + λ·P·maxPerRank.
//
// The push side arrived on the settle exchange's header. The pull side
// is this rank's request count over every vertex not yet settled,
// computed without visiting them all: an unreached vertex would request
// over every long edge, and Σ long-degree over the unreached is kept
// running (unreachedLong); the reached-but-unsettled rest is exactly the
// valid entries of the bucket lists above k. One Allreduce over a
// slot-per-rank vector hands every rank all the per-rank counts, which
// it reduces to the sum and the maximum itself.
func (r *queryState) decideMode(k int64, bs *BucketStats) (Mode, error) {
	start := now()
	kBase := k * r.dd
	pullLocal := r.unreachedLong + r.store.sumValidAbove(k, r.bucketOf,
		func(li uint32) int64 { return r.requestCount(li, kBase) })
	if pullLocalHook != nil {
		pullLocalHook(r, k, pullLocal)
	}
	r.charge(start, false)

	for i := range r.gatherVal {
		r.gatherVal[i] = 0
	}
	r.gatherVal[r.rank] = pullLocal
	pulls, err := r.allreduce(r.gatherVal, comm.Sum, false)
	if err != nil {
		return ModePush, err
	}
	var pullSum, pullMax int64
	for _, v := range pulls {
		pullSum += v
		if v > pullMax {
			pullMax = v
		}
	}
	lambda := r.opts.ImbalanceWeight
	p := float64(r.size)
	costPush := (1-lambda)*float64(r.pushSum) + lambda*p*float64(r.pushMax)
	// Responses are bounded by both the request count and the number of
	// long edges incident on the current bucket (only those can answer),
	// so min(requests, pushVolume) tightens the paper's requests-only
	// bound.
	responses := pullSum
	if r.pushSum < responses {
		responses = r.pushSum
	}
	costPull := (1-lambda)*float64(pullSum+responses) + lambda*p*2*float64(pullMax)
	bs.PushCost = int64(costPush)
	bs.PullCost = int64(costPull)
	bs.Requests = pullSum

	mode := ModePush
	if costPull < costPush {
		mode = ModePull
	}
	// Overrides, strongest first: census forces push (categories are
	// observed at the receiver of push records), then the §IV.G
	// evaluation hooks.
	switch {
	case r.opts.Census:
		mode = ModePush
	case r.opts.ForceMode != nil:
		mode = *r.opts.ForceMode
	case r.epochSeq < len(r.opts.DecisionSequence):
		mode = r.opts.DecisionSequence[r.epochSeq]
	}
	return mode, nil
}

// requestCount returns the number of pull requests vertex li would send
// for the bucket with base distance kBase: long edges with weight
// w < d(v) − kΔ. Exact by default (binary search over the weight-sorted
// adjacency); Options.Estimator selects the paper's expectation formula
// or the histogram approximation instead.
func (r *queryState) requestCount(li uint32, kBase graph.Dist) int64 {
	v := r.global(li)
	deg := int64(r.g.Degree(v))
	longDeg := deg - int64(r.shortEnd[li])
	if longDeg <= 0 {
		return 0
	}
	dv := r.dist[li]
	if dv >= graph.Inf {
		return longDeg
	}
	bound := dv - kBase
	switch r.opts.Estimator {
	case EstimatorExpectation:
		// deg_long(v) × (d(v) − (k+1)Δ) / d(v), clamped to [0, longDeg].
		num := float64(dv - (kBase + r.dd))
		if num <= 0 {
			return 0
		}
		est := float64(longDeg) * num / float64(dv)
		if est > float64(longDeg) {
			est = float64(longDeg)
		}
		return int64(est)
	case EstimatorHistogram:
		return r.histCount(li, bound)
	}
	if bound <= graph.Dist(r.opts.Delta) {
		return 0
	}
	hi := bound
	if hi > graph.Dist(r.maxW)+1 {
		hi = graph.Dist(r.maxW) + 1
	}
	if hi > math.MaxUint32 {
		hi = math.MaxUint32
	}
	return int64(r.g.CountWeightRange(v, r.opts.Delta, graph.Weight(hi)))
}

// bellmanFordFn lazily builds the full-adjacency relaxation scan shared
// by the post-switch Bellman-Ford stage and the incremental repair's
// re-relax rounds (dynamic.go).
func (r *queryState) bellmanFordFn() func(tid int, it workItem) {
	if r.bfFn == nil {
		r.bfFn = func(tid int, it workItem) {
			v := r.global(it.li)
			du := r.dist[it.li]
			nbr, ws := r.g.Neighbors(v)
			cnt := &r.tcnt[tid]
			st := &r.stage[tid]
			for i := it.lo; i < it.hi; i++ {
				cnt.BellmanFord++
				nd := du + graph.Dist(ws[i])
				dst := r.pd.Owner(nbr[i])
				st.relax[dst] = append(st.relax[dst], relaxRec{nbr[i], tagParent(v, ws[i]), nd})
			}
		}
	}
	return r.bfFn
}

// runBellmanFord executes the post-switch Bellman-Ford stage: all
// remaining buckets are merged and processed with full-adjacency
// relaxation rounds until no distance changes anywhere.
func (r *queryState) runBellmanFord(k int64) error {
	r.hybridMode = true
	start := now()
	frontier := r.active[:0]
	for li := 0; li < r.nLocal; li++ {
		if r.bucketOf[li] > k && r.dist[li] < graph.Inf {
			frontier = append(frontier, uint32(li))
		}
	}
	r.active = frontier
	r.charge(start, true)

	rounds, err := r.relaxRounds(roundSpec{
		scan: r.bellmanFordFn(), log: true, kind: PhaseBellmanFord, key: -1})
	r.stats.Phases += rounds
	r.stats.BFPhases += rounds
	return err
}
