package sssp

import (
	"fmt"
	"sync"

	"parsssp/internal/graph"
)

// This file is the relax-apply pass of the bulk-synchronous engine: one
// record body shared by the serial path, the ownership-partitioned
// parallel path, wire input and the rank-local fast path.

// parallelApplyThreshold is the record count below which the serial
// apply path beats spawning workers. A variable so tests can force the
// parallel path on small inputs.
var parallelApplyThreshold = 2048

// bucketAdd is a staged bucket-store insertion.
type bucketAdd struct {
	bucket int64
	li     uint32
}

// applyStaging is one thread's private output of an apply pass; the
// shared structures (bucket store, nextActive, unreachedLong) receive it
// in a short serial merge.
type applyStaging struct {
	adds    []bucketAdd
	active  []uint32
	reached int64 // Σ long-degree of vertices whose distance left Inf
	err     error // damaged input seen by this thread
}

// applyPass is one thread's view of an apply pass: thread t of T applies
// exactly the records whose target satisfies li mod T == t, so dist,
// parent, bucketOf, mark and pending writes are disjoint across threads
// (T = 1 applies everything).
type applyPass struct {
	r        *queryState
	st       *applyStaging
	t, T     int
	activate bool
	census   *BucketStats
}

// applyRelaxIn applies every relax record of a superstep: the received
// payloads in source-rank order, with this rank's own staged records
// (thread-major, never encoded) taking its place in that order.
// activate controls whether improved vertices landing in the current
// bucket join the next phase's active set (short phases) — long-phase
// results can never land in the current bucket and pass false. census, if
// non-nil, receives the self/backward/forward categorization of each
// record relative to bucket k.
//
// Parent election is canonical: a strict distance improvement takes the
// sender as parent, and a positive-weight record matching the current
// distance takes the sender if its id is smaller than the incumbent's.
// For graphs with strictly positive weights the final parent of v is
// therefore min{u : d(u)+w(u,v) = d(v), u offered} — a pure function of
// the final distances and the offered candidate set, independent of the
// schedule that delivered the offers. That is what lets an incremental
// repair (dynamic.go), which re-relaxes only the affected subgraph in a
// completely different phase order, reproduce a from-scratch run's
// parent tree byte for byte. Zero-weight offers are excluded from the
// equal-distance election (the wire tags them — see tagParent): inside a
// cluster of equal-distance vertices joined by zero-weight edges, a
// pointwise min-id election can elect parents that form a cycle. They
// still win on strict improvement, first-wins, so zero-weight-tie
// parents stay schedule-dependent — a valid tree always, byte-equal to
// a recompute only when no zero-weight tie is involved.
//
// The tree stays acyclic in all cases: an equality reassignment needs
// positive weight, so it points strictly downhill in distance, and a
// cycle would need every hop distance-flat — all zero-weight strict
// assignments, whose settle-time ordering already forbids a cycle. See
// DESIGN.md "Wire format v2" and "Dynamic updates & plane versioning".
//
// With ParallelApply enabled (and no census, which needs exact serial
// counting), application runs on T threads using the paper's intra-node
// ownership model: local vertex li belongs to thread li mod T, every
// thread scans all records but applies only its own vertices, so
// per-vertex state is written without locks — the role the L2 atomics
// played on Blue Gene/Q.
//
// Damaged input is an error, not a panic and not data loss: a record
// addressing a vertex this rank does not own, or a buffer the readers
// flag as malformed, fails the query (the sender cannot have produced
// it, so the frame was damaged in flight). Distances already applied
// from the buffer's valid prefix are left in place — the query is failed
// wholesale, nothing reads them.
func (r *queryState) applyRelaxIn(in [][]byte, activate bool, census *BucketStats) error {
	start := now()
	defer r.charge(start, false)
	return r.applyRecords(in, activate, census)
}

// applyRecords is applyRelaxIn without the clock. A nil in applies this
// rank's own staged records alone (a local sub-round of relaxRounds).
func (r *queryState) applyRecords(in [][]byte, activate bool, census *BucketStats) error {
	r.stamp++
	T := 1
	if n := r.opts.threads(); r.opts.ParallelApply && census == nil && n > 1 &&
		totalWireRecords(in, relaxKind, r.opts.WireFormat)+r.stagedRelax(r.rank) >= parallelApplyThreshold {
		T = n
	}
	stage := r.applyStage[:T]
	for t := range stage {
		stage[t].adds = stage[t].adds[:0]
		stage[t].active = stage[t].active[:0]
		stage[t].reached = 0
		stage[t].err = nil
	}
	if T == 1 {
		p := applyPass{r: r, st: &stage[0], T: 1, activate: activate, census: census}
		p.run(in)
	} else {
		r.applyParallel(in, stage, activate)
	}
	for t := range stage {
		if stage[t].err != nil {
			// Every thread scans the same buffers, so each sees the same
			// damage; the first thread's report suffices.
			return stage[t].err
		}
	}
	for t := range stage {
		for _, a := range stage[t].adds {
			r.store.add(a.bucket, a.li)
		}
		r.nextActive = append(r.nextActive, stage[t].active...)
		r.unreachedLong -= stage[t].reached
	}
	return nil
}

// applyParallel runs one applyPass per staging slot concurrently. Kept
// apart from applyRecords so that the goroutine closure's captures do not
// move the serial path's locals to the heap.
func (r *queryState) applyParallel(in [][]byte, stage []applyStaging, activate bool) {
	var wg sync.WaitGroup
	for t := range stage {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			p := applyPass{r: r, st: &stage[t], t: t, T: len(stage), activate: activate}
			p.run(in)
		}(t)
	}
	wg.Wait()
}

// run applies the superstep's records in source-rank order (only this
// rank's own when in is nil) and leaves the first damage it meets in
// st.err.
func (p *applyPass) run(in [][]byte) {
	r := p.r
	if in == nil {
		p.own()
		return
	}
	wf := r.opts.WireFormat
	for src, buf := range in {
		if src == r.rank {
			if !p.own() {
				return
			}
			continue
		}
		rd := newRelaxReader(buf, wf)
		for {
			v, tpar, nd, ok := rd.next()
			if !ok {
				break
			}
			if !p.relax(v, tpar, nd) {
				p.st.err = r.unownedErr(src, v)
				return
			}
		}
		if err := rd.err(); err != nil {
			p.st.err = r.corruptErr(src, "relax", err)
			return
		}
	}
}

// own applies this rank's own staged records, thread-major, and reports
// whether all of them addressed vertices this rank owns.
func (p *applyPass) own() bool {
	r := p.r
	for tid := range r.stage {
		for _, rec := range r.stage[tid].relax[r.rank] {
			if !p.relax(rec.v, rec.parent, rec.dist) {
				p.st.err = r.unownedErr(r.rank, rec.v)
				return false
			}
		}
	}
	return true
}

// relax applies one record and reports whether its target is a vertex
// this rank owns; the ownership check doubles as the bounds check that
// keeps a corrupt vertex id from faulting the pass.
func (p *applyPass) relax(v, tpar graph.Vertex, nd graph.Dist) bool {
	r, st := p.r, p.st
	li := r.local(v)
	if uint(li) >= uint(r.nLocal) {
		return false
	}
	if p.T > 1 && li%p.T != p.t {
		return true
	}
	par, zw := untagParent(tpar)
	k := r.curK
	if p.census != nil {
		switch b := r.bucketOf[li]; {
		case b == k:
			p.census.SelfEdges++
		case b < k:
			p.census.BackwardEdges++
		default:
			p.census.ForwardEdges++
		}
	}
	old := r.dist[li]
	if nd >= old {
		// Positive-weight equal-distance offers still compete for the
		// parent slot (canonical min-id election); they never move the
		// vertex.
		if nd == old && nd < graph.Inf && !zw && par < r.parent[li] && v != r.src {
			r.parent[li] = par
		}
		return true
	}
	if old >= graph.Inf {
		st.reached += r.longDeg(uint32(li))
	}
	r.dist[li] = nd
	r.parent[li] = par
	if r.hybridMode {
		if r.mark[li] != r.stamp {
			r.mark[li] = r.stamp
			st.active = append(st.active, uint32(li))
		}
		return true
	}
	// Policy bookkeeping: how an improved vertex re-enters the frontier.
	// Δ-stepping re-files by bucket and activates current-bucket
	// landings; Radius activates anything under the epoch threshold (no
	// store); ρ re-files by quantized key under the async mode's
	// re-entrant pending discipline.
	switch r.opts.Policy {
	case PolicyRadius:
		if p.activate && nd <= r.phBound && r.mark[li] != r.stamp {
			r.mark[li] = r.stamp
			st.active = append(st.active, uint32(li))
		}
	case PolicyRho:
		nb := r.step.key(nd)
		moved := nb != r.bucketOf[li]
		r.bucketOf[li] = nb
		if !r.pending[li] {
			r.pending[li] = true
			st.adds = append(st.adds, bucketAdd{nb, uint32(li)})
		} else if moved {
			st.adds = append(st.adds, bucketAdd{nb, uint32(li)})
		}
	default:
		nb := nd / r.dd
		if nb != r.bucketOf[li] {
			r.bucketOf[li] = nb
			st.adds = append(st.adds, bucketAdd{nb, uint32(li)})
		}
		if p.activate && nb == k && r.mark[li] != r.stamp {
			r.mark[li] = r.stamp
			st.active = append(st.active, uint32(li))
		}
	}
	return true
}

// unownedErr is the query-failing error for a relax record addressed to
// a vertex this rank does not own.
func (r *queryState) unownedErr(src int, v graph.Vertex) error {
	return r.corruptErr(src, "relax", fmt.Errorf("vertex %d is not owned by this rank", v))
}

// corruptErr builds the query-failing error for a damaged exchange
// payload from rank src.
func (r *queryState) corruptErr(src int, kind string, cause error) error {
	return fmt.Errorf("sssp: rank %d: corrupt %s payload from rank %d: %w", r.rank, kind, src, cause)
}
