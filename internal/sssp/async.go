package sssp

import (
	"fmt"
	"time"

	"parsssp/internal/comm"
	"parsssp/internal/graph"
)

// This file implements the asynchronous execution mode (Options.ExecMode
// = ExecAsync): barrier-free label-correcting relaxation with distributed
// termination detection.
//
// Execution model. Each rank repeatedly (1) drains every relax batch its
// peers have pushed to it (comm.BatchSender point-to-point frames — no
// collective, no barrier), (2) runs one relax round over the lowest
// bucket holding pending work, applying self-owned results inline and
// staging remote ones per destination, and (3) forwards a destination's
// staged records as soon as a size watermark (Options.AsyncFlushBytes)
// fills or the oldest staged record exceeds the time watermark
// (Options.AsyncFlushInterval). The buckets survive as a priority
// heuristic only — nothing settles a bucket, vertices re-enter lower (or
// the same) buckets as better distances arrive, and the re-entry
// discipline is the pending flag documented in bucketstore.go.
//
// Short/long deferral. Relaxing a vertex's whole adjacency on every
// improvement is correct but wasteful: a long edge (w ≥ Δ) relaxed from
// a still-tentative distance launches a cascade into higher buckets that
// a single later improvement of the source invalidates wholesale, and
// measurement shows that unthrottled speculation costs ~7× BSP's total
// relaxations. The remedy is the asynchronous analogue of the paper's
// IOS observation (long edges want settled sources): short edges (w < Δ)
// relax eagerly — they carry the intra-bucket wavefront and must be
// fast — while each improvement's long-edge work is parked in a second
// bucket-keyed queue (longStore) and released only when no pending
// short-edge work remains at or below its bucket. By then the source has
// usually reached its final distance, so the downstream buckets hear a
// distance that will stick. A vertex improved again after its long
// release simply re-queues both halves; correctness never depends on the
// deferral heuristic, only the work bound does.
//
// Termination detection. A counting scheme settled over the existing
// collective Allreduce (the "token" of a credit-recovery/Safra detector
// degenerates to two machine-wide sums because the collective gives a
// consistent cut for free): a rank enters a probe only when locally idle
// — no pending short or long work, every staged batch flushed, receive
// queue drained. The probe sums the per-rank RecordsSent and
// RecordsReceived counters (comm.TrafficStats, maintained by this engine
// at flush and apply time). Equal sums terminate. Soundness: a rank
// inside the collective cannot send or apply anything, so the summed
// counters describe a consistent cut; any in-flight record is counted by
// its sender and not yet by its receiver, making the sums unequal, so
// premature termination is impossible. Liveness: a failed probe releases
// every rank to drain and work again, and once all work is done and
// delivered the next probe's sums are equal. An idle rank blocked in a
// probe is safe — busy peers keep working and join the probe when they
// go idle.
//
// Equivalence with BSP. Distances: label correcting converges to the
// unique shortest distances whatever the arrival order. Parents: every
// strict improvement of a vertex (re-)queues both its short and its long
// relax, so every reached vertex offers every edge at its final distance
// at least once before the machine can go globally idle; the canonical
// election of applyRelaxIn (strict improvement takes the sender,
// positive-weight equal-distance offers take the min-id sender) then
// makes the final parent of v the id-minimum u with d(u)+w(u,v) = d(v) —
// a pure function of the final distances, identical to BSP's. (An
// equal-distance offer from a non-final sender cannot exist: d(u)_now +
// w = d(v)_final with d(u)_now non-final would put d(u)_final + w below
// v's final distance.) Zero-weight ties remain schedule-dependent in
// both modes, exactly as for the incremental repair; see applyRelaxIn
// and DESIGN.md "Asynchronous execution & termination detection".

// runAsync executes the full query on this rank in asynchronous mode.
func (r *queryState) runAsync() error {
	if !comm.SupportsBatch(r.t) {
		return fmt.Errorf("sssp: rank %d: ExecMode async needs a transport with point-to-point batches (comm.BatchSender)", r.rank)
	}
	totalStart := now()
	if r.pending == nil {
		r.pending = make([]bool, r.nLocal)
	}
	if r.longPending == nil {
		r.longPending = make([]bool, r.nLocal)
		r.longStore = newBucketStore()
	}
	if r.asyncStage == nil {
		r.asyncStage = make([][]relaxRec, r.size)
		r.asyncStageAt = make([]time.Time, r.size)
	}
	if r.pd.Owner(r.src) == r.rank {
		li := uint32(r.local(r.src))
		r.dist[li] = 0
		r.parent[li] = r.src
		r.bucketOf[li] = 0
		r.pending[li] = true
		r.store.add(0, li)
		r.longPending[li] = true
		r.longStore.add(0, li)
	}
	r.tracef("sssp: async start source=%d ranks=%d policy=%s", r.src, r.size, r.opts.PolicyString())

	idleWait := r.opts.asyncFlushInterval()
	for {
		if _, err := r.drainAsync(0); err != nil {
			return err
		}
		bktStart := now()
		ks := r.store.nextPending(r.bucketOf, r.pending)
		kl := r.longStore.nextPending(r.bucketOf, r.longPending)
		r.charge(bktStart, true)
		if ks < infBucket || kl < infBucket {
			if r.opts.MaxEpochs > 0 && int(r.stats.AsyncRounds) >= r.opts.MaxEpochs {
				return fmt.Errorf("sssp: exceeded MaxEpochs=%d async rounds at buckets %d/%d", r.opts.MaxEpochs, ks, kl)
			}
			// Shorts first at ties: bucket k's long edges are released only
			// once no short-edge work remains at or below k (see file
			// comment).
			k, long := ks, false
			if kl < ks {
				k, long = kl, true
			}
			if err := r.asyncRound(k, long); err != nil {
				return err
			}
			if err := r.flushDueAsync(); err != nil {
				return err
			}
			continue
		}
		// Locally idle: everything staged goes out, then give arrivals one
		// bounded wait before paying for a probe collective.
		if err := r.flushAllAsync(); err != nil {
			return err
		}
		got, err := r.drainAsync(idleWait)
		if err != nil {
			return err
		}
		if got {
			continue
		}
		done, err := r.terminationProbe()
		if err != nil {
			return err
		}
		if done {
			break
		}
	}

	r.finishStats(totalStart)
	r.tracef("async done rounds=%d probes=%d reached=%d relax=%d",
		r.stats.AsyncRounds, r.stats.AsyncProbes, r.stats.Reached,
		r.stats.Relax.Total())
	return nil
}

// asyncRound relaxes one edge class (short when long is false, deferred
// long otherwise) of bucket k's pending members, applies the self-owned
// results inline and stages the rest.
func (r *queryState) asyncRound(k int64, long bool) error {
	start := now()
	before := r.relaxTotals()
	var members []uint32
	var fn func(tid int, it workItem)
	if long {
		members = r.collectAsyncMembers(k, &r.longStore, r.longPending)
		fn = r.asyncLongRelaxFn()
	} else {
		members = r.collectAsyncMembers(k, &r.store, r.pending)
		fn = r.asyncShortRelaxFn()
	}
	items := r.buildItems(members)
	r.runWorkers(items, fn)
	for tid := range r.stage {
		for dest, recs := range r.stage[tid].relax {
			if len(recs) == 0 {
				continue
			}
			if dest == r.rank {
				r.applyAsyncLocal(recs)
				continue
			}
			if err := r.stageAsync(dest, recs); err != nil {
				return err
			}
		}
	}
	r.stats.AsyncRounds++
	r.logPhase(k, PhaseAsync, len(members), before, start)
	return nil
}

// collectAsyncMembers returns bucket k's valid pending members from the
// given queue, clearing their pending flags (first occurrence wins,
// which is what makes duplicate list entries harmless — see
// bucketstore.go) and dropping the bucket's list; re-improved vertices
// re-add themselves.
func (r *queryState) collectAsyncMembers(k int64, store *bucketStore, pending []bool) []uint32 {
	start := now()
	defer r.charge(start, true)
	members := r.members[:0]
	for _, li := range store.list(k) {
		if r.bucketOf[li] == k && pending[li] {
			pending[li] = false
			members = append(members, li)
		}
	}
	r.members = members
	store.drop(k)
	return members
}

// asyncShortRelaxFn lazily builds the eager half of the async scan:
// short edges only (w below the policy's deferral threshold — Δ for
// Δ-stepping, the respective quantum for ρ/radius), the intra-bucket
// wavefront.
func (r *queryState) asyncShortRelaxFn() func(tid int, it workItem) {
	if r.asyncShortFn == nil {
		r.asyncShortFn = func(tid int, it workItem) {
			v := r.global(it.li)
			du := r.dist[it.li]
			dd := r.step.deferWeight()
			nbr, ws := r.g.Neighbors(v)
			cnt := &r.tcnt[tid]
			st := &r.stage[tid]
			for i := it.lo; i < it.hi; i++ {
				if ws[i] >= dd {
					continue
				}
				cnt.AsyncPush++
				nd := du + graph.Dist(ws[i])
				dst := r.pd.Owner(nbr[i])
				st.relax[dst] = append(st.relax[dst], relaxRec{nbr[i], tagParent(v, ws[i]), nd})
			}
		}
	}
	return r.asyncShortFn
}

// asyncLongRelaxFn lazily builds the deferred half of the async scan:
// long edges only (w at or above the policy's deferral threshold),
// released once the source's bucket has no pending short work below it.
func (r *queryState) asyncLongRelaxFn() func(tid int, it workItem) {
	if r.asyncLongFn == nil {
		r.asyncLongFn = func(tid int, it workItem) {
			v := r.global(it.li)
			du := r.dist[it.li]
			dd := r.step.deferWeight()
			nbr, ws := r.g.Neighbors(v)
			cnt := &r.tcnt[tid]
			st := &r.stage[tid]
			for i := it.lo; i < it.hi; i++ {
				if ws[i] < dd {
					continue
				}
				cnt.AsyncPush++
				nd := du + graph.Dist(ws[i])
				dst := r.pd.Owner(nbr[i])
				st.relax[dst] = append(st.relax[dst], relaxRec{nbr[i], tagParent(v, ws[i]), nd})
			}
		}
	}
	return r.asyncLongFn
}

// applyAsyncRelax applies one received batch of relax records.
func (r *queryState) applyAsyncRelax(src int, buf []byte) error {
	start := now()
	defer r.charge(start, false)
	rd := newRelaxReader(buf, r.opts.WireFormat)
	for {
		v, tpar, nd, ok := rd.next()
		if !ok {
			break
		}
		if !r.asyncRelax(v, tpar, nd) {
			return r.unownedErr(src, v)
		}
	}
	if err := rd.err(); err != nil {
		return r.corruptErr(src, "relax", err)
	}
	return nil
}

// applyAsyncLocal applies the records a scan staged for this rank
// itself, straight from the staging list.
func (r *queryState) applyAsyncLocal(recs []relaxRec) {
	start := now()
	defer r.charge(start, false)
	for _, rec := range recs {
		r.asyncRelax(rec.v, rec.parent, rec.dist)
	}
}

// asyncRelax applies one record and reports whether this rank owns its
// target. The distance/parent rule is applyRelaxIn's canonical one; the
// bucket bookkeeping differs: membership is re-entrant, guarded by the
// pending flags instead of the settle-once invariant, and every strict
// improvement queues both the eager short and the deferred long relax.
func (r *queryState) asyncRelax(v, tpar graph.Vertex, nd graph.Dist) bool {
	par, zw := untagParent(tpar)
	li := r.local(v)
	if uint(li) >= uint(r.nLocal) {
		return false
	}
	if nd >= r.dist[li] {
		if nd == r.dist[li] && nd < graph.Inf && !zw && par < r.parent[li] && v != r.src {
			r.parent[li] = par
		}
		return true
	}
	r.dist[li] = nd
	r.parent[li] = par
	nb := r.step.key(nd)
	moved := nb != r.bucketOf[li]
	r.bucketOf[li] = nb
	if !r.pending[li] {
		r.pending[li] = true
		r.store.add(nb, uint32(li))
	} else if moved {
		// Already queued, but in a now-stale list: the entry there fails
		// the bucketOf filter, so re-add under the new bucket.
		r.store.add(nb, uint32(li))
	}
	if !r.longPending[li] {
		r.longPending[li] = true
		r.longStore.add(nb, uint32(li))
	} else if moved {
		r.longStore.add(nb, uint32(li))
	}
	return true
}

// drainAsync applies every batch already queued for this rank. A nonzero
// wait bounds a blocking receive for the first batch; the rest are
// polled. Returns whether anything was applied.
func (r *queryState) drainAsync(wait time.Duration) (bool, error) {
	got := false
	wf := r.opts.WireFormat
	for {
		start := now()
		src, payload, ok, err := r.t.RecvBatch(wait)
		r.charge(start, false)
		if err != nil {
			return got, err
		}
		if !ok {
			return got, nil
		}
		got = true
		wait = 0
		r.t.Stats.RecordsReceived += int64(wireRecordCount(payload, relaxKind, wf))
		if err := r.applyAsyncRelax(src, payload); err != nil {
			return got, err
		}
	}
}

// stageAsync appends staged records for dest, flushing at the size
// watermark (counted in fixed-width record bytes, whatever the wire
// format).
func (r *queryState) stageAsync(dest int, recs []relaxRec) error {
	if len(r.asyncStage[dest]) == 0 {
		r.asyncStageAt[dest] = now()
	}
	r.asyncStage[dest] = append(r.asyncStage[dest], recs...)
	if len(r.asyncStage[dest])*relaxRecordSize >= r.opts.asyncFlushBytes() {
		return r.flushAsync(dest)
	}
	return nil
}

// flushDueAsync flushes every destination whose oldest staged record has
// exceeded the time watermark, bounding how long a small tail of records
// can linger unsent while this rank stays busy.
func (r *queryState) flushDueAsync() error {
	iv := r.opts.asyncFlushInterval()
	for dest := 0; dest < r.size; dest++ {
		if len(r.asyncStage[dest]) > 0 && since(r.asyncStageAt[dest]) >= iv {
			if err := r.flushAsync(dest); err != nil {
				return err
			}
		}
	}
	return nil
}

// flushAllAsync flushes every destination with staged records; a rank
// must not enter a termination probe holding staged records (they are
// not yet counted as sent, and nothing else would deliver them).
func (r *queryState) flushAllAsync() error {
	for dest := 0; dest < r.size; dest++ {
		if err := r.flushAsync(dest); err != nil {
			return err
		}
	}
	return nil
}

// flushAsync encodes and sends dest's staged records as one
// point-to-point batch, counting them sent. The transport copies the
// payload, so the staging (and encode scratch) is reusable immediately.
func (r *queryState) flushAsync(dest int) error {
	stage := r.asyncStage[dest]
	if len(stage) == 0 {
		return nil
	}
	if r.opts.WireFormat == WireV2 {
		sortRelaxBatch(&r.sorter, stage) // in place: the staging is consumed here
	}
	r.asyncFlushBuf = encodeRelax(r.asyncFlushBuf[:0], stage, r.opts.WireFormat)
	start := now()
	err := r.t.SendBatch(dest, r.asyncFlushBuf)
	r.charge(start, false)
	if err != nil {
		return err
	}
	r.t.Stats.RecordsSent += int64(len(stage))
	r.asyncStage[dest] = stage[:0]
	r.asyncStageAt[dest] = time.Time{}
	return nil
}

// terminationProbe runs one counting probe over the collective: the
// machine terminates when the global record sends and receives balance.
// Only locally idle ranks call this; a busy peer simply joins the
// collective later, which is safe (see the file comment).
func (r *queryState) terminationProbe() (bool, error) {
	r.reduceVal[0] = r.t.Stats.RecordsSent
	r.reduceVal[1] = r.t.Stats.RecordsReceived
	sums, err := r.allreduce(r.reduceVal[:2], comm.Sum, true)
	if err != nil {
		return false, err
	}
	r.stats.AsyncProbes++
	return sums[0] == sums[1], nil
}
