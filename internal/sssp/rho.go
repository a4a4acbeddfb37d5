package sssp

import (
	"fmt"

	"parsssp/internal/comm"
	"parsssp/internal/graph"
)

// This file is the BSP driver of the ρ-stepping policy (Dong et al.,
// arXiv 2105.06145): a lazy-batched priority queue over the existing
// lazy-deletion bucketStore. Vertices are filed under a quantized
// distance key (stepper.key — the quantum is a per-graph weight
// statistic resolved on the plane); each epoch agrees on the globally
// smallest pending key by Allreduce-Min, extracts up to ⌈ρ/P⌉ of that
// bucket's pending members per rank, relaxes their full adjacency in ONE
// phase (no inner fixpoint, no settling), and exchanges. The pending
// discipline is the asynchronous mode's re-entrant one: an improved
// vertex re-files and re-arms its pending flag, so unlike Δ-stepping a
// vertex can be extracted many times — the batch cap is what keeps each
// extraction close to the priority order, and the priority order is what
// keeps the number of re-extractions small. Termination is queue
// exhaustion: all ranks report no valid pending entry.
//
// Settle-condition soundness is trivial — nothing is ever settled before
// the queue drains, and a drained queue means no improvement is in
// flight anywhere (BSP exchanges are fully applied each epoch), i.e. the
// label-correcting fixpoint has been reached. Canonical parents follow
// as for the async mode: every strict improvement re-queues the vertex,
// so every reached vertex relaxes its full adjacency at its final
// distance at least once.

// runRho executes the full query on this rank under PolicyRho.
func (r *queryState) runRho() error {
	totalStart := now()
	if r.pending == nil {
		r.pending = make([]bool, r.nLocal)
	}
	if r.pd.Owner(r.src) == r.rank {
		li := uint32(r.local(r.src))
		r.dist[li] = 0
		r.parent[li] = r.src
		r.bucketOf[li] = 0
		r.pending[li] = true
		r.store.add(0, li)
	}
	r.tracef("sssp: start source=%d ranks=%d policy=%s", r.src, r.size, r.opts.PolicyString())

	for {
		bktStart := now()
		localK := r.store.nextPending(r.bucketOf, r.pending)
		r.charge(bktStart, true)
		r.reduceVal[0] = localK
		kv, err := r.allreduce(r.reduceVal[:1], comm.Min, true)
		if err != nil {
			return err
		}
		k := kv[0]
		if k == int64(infBucket) {
			break
		}
		if r.opts.MaxEpochs > 0 && int(r.stats.Epochs) >= r.opts.MaxEpochs {
			return fmt.Errorf("sssp: exceeded MaxEpochs=%d at rho key %d", r.opts.MaxEpochs, k)
		}
		r.curK = k
		if err := r.rhoEpoch(k); err != nil {
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

// rhoEpoch extracts one capped batch from key bucket k and runs its
// single relax-exchange-apply round. Ranks whose smallest pending key
// exceeds k contribute an empty batch and just participate in the
// exchange — the collective schedule is identical on every rank.
func (r *queryState) rhoEpoch(k int64) error {
	bs := BucketStats{Index: k, Mode: ModePush, ShortPhases: 1}
	before := r.relaxTotals()
	phaseStart := now()
	members := r.collectRhoBatch(k, r.step.batchCap())
	r.stats.Phases++
	items := r.buildItems(members)
	r.runWorkers(items, r.rhoRelaxFn())
	in, err := r.exchangeRecords(relaxKind, 0, 0)
	if err != nil {
		return err
	}
	if err := r.applyRelaxIn(in, false, nil); err != nil {
		return err
	}
	r.logPhase(k, PhaseRho, len(members), before, phaseStart)
	bs.ShortRelax = r.relaxTotals().Total() - before.Total()
	bs.Settled = r.settledTotal
	r.stats.Buckets = append(r.stats.Buckets, bs)
	r.tracef("epoch key=%d members=%d", k, len(members))
	return nil
}

// collectRhoBatch extracts up to cap (0 = all) valid pending members of
// key bucket k, clearing their pending flags; members beyond the cap
// keep their flags and their (compacted) list entries for the next
// epoch. Stale entries — moved to another key, or already extracted —
// are dropped during the compaction.
func (r *queryState) collectRhoBatch(k int64, cap int) []uint32 {
	start := now()
	defer r.charge(start, true)
	members := r.members[:0]
	l := r.store.list(k)
	keep := l[:0]
	for _, li := range l {
		if r.bucketOf[li] != k || !r.pending[li] {
			continue
		}
		if cap > 0 && len(members) >= cap {
			keep = append(keep, li)
			continue
		}
		r.pending[li] = false
		members = append(members, li)
	}
	r.store.setList(k, keep)
	r.members = members
	return members
}

// rhoRelaxFn lazily builds the ρ batch scan: the full adjacency of every
// extracted vertex.
func (r *queryState) rhoRelaxFn() func(tid int, it workItem) {
	if r.rhoFn == nil {
		r.rhoFn = func(tid int, it workItem) {
			v := r.global(it.li)
			du := r.dist[it.li]
			nbr, ws := r.g.Neighbors(v)
			cnt := &r.tcnt[tid]
			st := &r.stage[tid]
			for i := it.lo; i < it.hi; i++ {
				cnt.RhoPush++
				nd := du + graph.Dist(ws[i])
				dst := r.pd.Owner(nbr[i])
				st.relax[dst] = append(st.relax[dst], relaxRec{nbr[i], tagParent(v, ws[i]), nd})
			}
		}
	}
	return r.rhoFn
}
