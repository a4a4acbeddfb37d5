package sssp

import (
	"fmt"

	"parsssp/internal/comm"
	"parsssp/internal/graph"
)

// This file is the BSP driver of the Radius Stepping policy (Blelloch et
// al., arXiv 1602.03881). Each epoch agrees on a distance threshold
//
//	M = min over unsettled reached v of d(v) + r(v)
//
// by Allreduce-Min, relaxes the full adjacency of every unsettled vertex
// with d(v) ≤ M to a fixpoint (relaxRounds, exactly the short-phase
// discipline of the Δ engine), and then settles everything at or below
// M.
//
// Soundness of the settle condition: any vertex with final distance ≤ M
// lies on a shortest path whose prefix distances are all ≤ M
// (non-negative weights make prefixes non-decreasing), so the fixpoint
// over the sub-threshold frontier drives every such vertex to its final
// distance before the settle scan — for ANY threshold sequence. The
// radii only pick thresholds large enough to amortize the collectives:
// by construction at least one unsettled vertex v has its whole one-hop
// ball r(v) under M, so epochs settle neighborhoods, not single
// vertices. Termination: r(v) ≥ 1 and every unsettled vertex has
// d(v) > M after the settle scan, so M strictly increases.
//
// Canonical parents match the other policies: every vertex relaxes its
// full adjacency at its final distance in its settling epoch (a late
// improvement re-activates it), so the min-id equal-distance election of
// applyRelaxIn sees every final-distance offer. No store, no bucketOf —
// frontier selection is a threshold scan against the settled flags.

// runRadius executes the full query on this rank under PolicyRadius.
func (r *queryState) runRadius() error {
	totalStart := now()
	if r.settled == nil {
		r.settled = make([]bool, r.nLocal)
	}
	if r.pd.Owner(r.src) == r.rank {
		li := uint32(r.local(r.src))
		r.dist[li] = 0
		r.parent[li] = r.src
	}
	r.tracef("sssp: start source=%d ranks=%d policy=%s", r.src, r.size, r.opts.PolicyString())

	for {
		// Next threshold: the global minimum of d(v)+r(v) over unsettled
		// reached vertices. Inf on every rank means nothing is pending.
		bktStart := now()
		localM := int64(graph.Inf)
		for li := 0; li < r.nLocal; li++ {
			if !r.settled[li] && r.dist[li] < graph.Inf {
				if m := int64(r.dist[li] + r.radius[li]); m < localM {
					localM = m
				}
			}
		}
		r.charge(bktStart, true)
		r.reduceVal[0] = localM
		mv, err := r.allreduce(r.reduceVal[:1], comm.Min, true)
		if err != nil {
			return err
		}
		M := graph.Dist(mv[0])
		if M >= graph.Inf {
			break
		}
		if r.opts.MaxEpochs > 0 && int(r.stats.Epochs) >= r.opts.MaxEpochs {
			return fmt.Errorf("sssp: exceeded MaxEpochs=%d at radius threshold %d", r.opts.MaxEpochs, M)
		}
		if err := r.radiusEpoch(M); err != nil {
			return err
		}
		r.stats.Epochs++
		r.epochSeq++
	}

	r.finishStats(totalStart)
	r.tracef("done epochs=%d phases=%d reached=%d relax=%d",
		r.stats.Epochs, r.stats.Phases, r.stats.Reached,
		r.stats.Relax.Total())
	return nil
}

// radiusEpoch drives one threshold M: fixpoint relaxation of the
// sub-threshold frontier, then the settle scan.
func (r *queryState) radiusEpoch(M graph.Dist) error {
	r.phBound = M
	r.curK = int64(M)
	bs := BucketStats{Index: int64(M), Mode: ModePush}

	bktStart := now()
	act := r.active[:0]
	for li := 0; li < r.nLocal; li++ {
		if !r.settled[li] && r.dist[li] <= M {
			act = append(act, uint32(li))
		}
	}
	r.active = act
	r.charge(bktStart, true)

	before := r.relaxTotals()
	rounds, err := r.relaxRounds(roundSpec{
		scan: r.radiusRelaxFn(), activate: true, log: true, kind: PhaseRadius, key: int64(M)})
	if err != nil {
		return err
	}
	r.stats.Phases += rounds
	bs.ShortPhases = int(rounds)
	bs.ShortRelax = r.relaxTotals().Total() - before.Total()

	// Settle scan: everything at or below the threshold is final.
	bktStart = now()
	var settledLocal int64
	for li := 0; li < r.nLocal; li++ {
		if !r.settled[li] && r.dist[li] <= M {
			r.settled[li] = true
			settledLocal++
		}
	}
	r.charge(bktStart, true)
	r.reduceVal[0] = settledLocal
	sv, err := r.allreduce(r.reduceVal[:1], comm.Sum, true)
	if err != nil {
		return err
	}
	r.settledTotal += sv[0]
	bs.Settled = r.settledTotal
	r.stats.Buckets = append(r.stats.Buckets, bs)
	r.tracef("epoch threshold=%d phases=%d settled=%d", M, bs.ShortPhases, r.settledTotal)
	return nil
}

// radiusRelaxFn lazily builds the Radius frontier scan: the full
// adjacency of every active vertex, no short/long split.
func (r *queryState) radiusRelaxFn() func(tid int, it workItem) {
	if r.radiusFn == nil {
		r.radiusFn = func(tid int, it workItem) {
			v := r.global(it.li)
			du := r.dist[it.li]
			nbr, ws := r.g.Neighbors(v)
			cnt := &r.tcnt[tid]
			st := &r.stage[tid]
			for i := it.lo; i < it.hi; i++ {
				cnt.RadiusPush++
				nd := du + graph.Dist(ws[i])
				dst := r.pd.Owner(nbr[i])
				st.relax[dst] = append(st.relax[dst], relaxRec{nbr[i], tagParent(v, ws[i]), nd})
			}
		}
	}
	return r.radiusFn
}
