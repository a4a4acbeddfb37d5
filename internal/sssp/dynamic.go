package sssp

import (
	"encoding/binary"
	"fmt"
	"sort"

	"parsssp/internal/comm"
	"parsssp/internal/graph"
)

// Dynamic updates: edge-update batches and the incremental tree repair
// that follows one, in the affected-subgraph style of Khanda et al.
// (TPDS 2022) mapped onto this engine's distributed relax/exchange
// machinery. A batch deletes and inserts edges; version.go turns it into
// a fresh immutable graph plane; repair() below fixes a finished query's
// distance/parent tree in place against the new plane instead of
// recomputing it from scratch:
//
//  1. Invalidate. Deleted tree edges orphan their child's subtree. Each
//     rank seeds the locally-orphaned children, then the affected front
//     floods down the parent tree: every round broadcasts the newly
//     invalidated vertex ids (all ranks may own children of any vertex),
//     and an Allreduce of the per-round count detects quiescence.
//     Invalidated vertices reset to +inf / NoParent. Distances of
//     untouched vertices survive as exact upper bounds: their parent
//     chain contains no deleted edge, so their old tree path still
//     exists in the new graph.
//  2. Seed. Invalidated vertices request offers over their full new
//     adjacency (the pull-request record, minus the bucket filter);
//     owners of finite endpoints respond with relaxations. Inserted
//     edges additionally offer both directions between finite endpoints
//     (at the weight the new graph actually kept, which min-weight dedup
//     may have collapsed).
//  3. Re-relax. Plain Bellman-Ford rounds (the hybrid-switch apply path:
//     no buckets, mark/stamp active-set dedup) push improvements until
//     the round headers show no activity anywhere (relaxRounds). Only the
//     affected region ever activates.
//  4. Re-elect. Parents are canonical — min-id over the final equal-cost
//     candidates (see applyRelaxIn) — but a vertex whose distance moved
//     has only heard from candidates that also moved. One final
//     request/respond round over the full adjacency of every touched
//     vertex delivers the quiet candidates' offers; at Bellman-Ford
//     convergence d(v) <= d(u)+w on every edge, so these offers tie at
//     best and the round cannot start new relaxation (the loop still
//     re-checks, defensively).
//
// The result must be byte-identical to a from-scratch run on the
// post-update graph — dynamic_test.go enforces it against seeded random
// update streams — with the one caveat rank.go documents: ties across
// zero-weight edges elect schedule-dependent parents, so exact
// parent-tree equality is guaranteed for strictly positive weights
// (distances are always exact).

// UpdateOp says what an EdgeUpdate does.
type UpdateOp uint8

const (
	// OpDelete removes the edge between U and V, whatever its weight.
	// Deleting an absent edge is a no-op.
	OpDelete UpdateOp = 0
	// OpInsert adds an edge U-V with weight W. Inserting over an
	// existing edge keeps the minimum of the two weights (the builder's
	// parallel-edge rule); a weight change is delete + insert in one
	// batch.
	OpInsert UpdateOp = 1
)

// EdgeUpdate is one edge mutation.
type EdgeUpdate struct {
	Op   UpdateOp
	U, V graph.Vertex
	W    graph.Weight
}

// UpdateBatch is an ordered list of edge mutations applied atomically:
// one batch, one new graph version.
type UpdateBatch []EdgeUpdate

// Validate checks a batch against a vertex count: known ops, in-range
// endpoints, no self-loops (the builder would silently drop them, which
// an update stream almost certainly did not mean).
func (b UpdateBatch) Validate(n int) error {
	for i, u := range b {
		if u.Op != OpDelete && u.Op != OpInsert {
			return fmt.Errorf("sssp: update %d: unknown op %d", i, u.Op)
		}
		if int(u.U) >= n || int(u.V) >= n {
			return fmt.Errorf("sssp: update %d: edge (%d,%d) out of range for n=%d", i, u.U, u.V, n)
		}
		if u.U == u.V {
			return fmt.Errorf("sssp: update %d: self-loop on vertex %d", i, u.U)
		}
	}
	return nil
}

// touched returns the sorted, deduplicated endpoints the batch names —
// the only vertices whose adjacency rows (and therefore plane
// classification and histogram rows) can change when it applies. The
// versioned-plane layer threads it into the patched plane constructor.
func (b UpdateBatch) touched() []graph.Vertex {
	out := make([]graph.Vertex, 0, 2*len(b))
	for _, u := range b {
		out = append(out, u.U, u.V)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	uniq := out[:0]
	for i, v := range out {
		if i == 0 || v != out[i-1] {
			uniq = append(uniq, v)
		}
	}
	return uniq
}

// split partitions a batch into the delete and insert edge lists
// graph.WithUpdates and graph.Patched consume.
func (b UpdateBatch) split() (deletes, inserts []graph.Edge) {
	for _, u := range b {
		e := graph.Edge{U: u.U, V: u.V, W: u.W}
		if u.Op == OpDelete {
			deletes = append(deletes, e)
		} else {
			inserts = append(inserts, e)
		}
	}
	return deletes, inserts
}

// ---- update-batch wire record ----------------------------------------------
//
// Layout: uvarint record count, then per record an op byte, u and v as
// uvarints, and — for inserts only — w as a uvarint. The decoder treats
// anything the encoder cannot have produced (truncated varint, dishonest
// count, trailing junk, unknown op, out-of-range or self-loop endpoints)
// as errMalformedPayload: a damaged batch fails whole, it never applies
// a prefix and never panics.

// appendUpdateBatch appends the wire encoding of b to buf.
func appendUpdateBatch(buf []byte, b UpdateBatch) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(b)))
	for _, u := range b {
		buf = append(buf, byte(u.Op))
		buf = binary.AppendUvarint(buf, uint64(u.U))
		buf = binary.AppendUvarint(buf, uint64(u.V))
		if u.Op == OpInsert {
			buf = binary.AppendUvarint(buf, uint64(u.W))
		}
	}
	return buf
}

// decodeUpdateBatch decodes a batch against a graph of n vertices.
func decodeUpdateBatch(buf []byte, n int) (UpdateBatch, error) {
	cnt, off := readUvarint(buf, 0)
	if off == 0 {
		return nil, fmt.Errorf("%w: update batch header", errMalformedPayload)
	}
	// A delete record needs >= 3 bytes (op, u, v), so a count beyond a
	// third of the remaining bytes cannot be honest.
	if cnt > uint64(len(buf)-off)/3 {
		return nil, fmt.Errorf("%w: update count %d exceeds payload", errMalformedPayload, cnt)
	}
	b := make(UpdateBatch, 0, cnt)
	for i := uint64(0); i < cnt; i++ {
		if off >= len(buf) {
			return nil, fmt.Errorf("%w: truncated update record", errMalformedPayload)
		}
		op := UpdateOp(buf[off])
		off++
		u64, o := readUvarint(buf, off)
		if o == 0 {
			return nil, fmt.Errorf("%w: truncated update record", errMalformedPayload)
		}
		v64, o2 := readUvarint(buf, o)
		if o2 == 0 {
			return nil, fmt.Errorf("%w: truncated update record", errMalformedPayload)
		}
		off = o2
		rec := EdgeUpdate{Op: op, U: graph.Vertex(u64), V: graph.Vertex(v64)}
		if u64 > uint64(^graph.Vertex(0)) || v64 > uint64(^graph.Vertex(0)) {
			return nil, fmt.Errorf("%w: update endpoint overflows", errMalformedPayload)
		}
		if op == OpInsert {
			w64, o3 := readUvarint(buf, off)
			if o3 == 0 {
				return nil, fmt.Errorf("%w: truncated update record", errMalformedPayload)
			}
			if w64 > uint64(^graph.Weight(0)) {
				return nil, fmt.Errorf("%w: update weight overflows", errMalformedPayload)
			}
			rec.W = graph.Weight(w64)
			off = o3
		}
		b = append(b, rec)
	}
	if off != len(buf) {
		return nil, fmt.Errorf("%w: trailing junk after update batch", errMalformedPayload)
	}
	if err := b.Validate(n); err != nil {
		return nil, fmt.Errorf("%w: %v", errMalformedPayload, err)
	}
	return b, nil
}

// EncodeUpdateBatch returns the wire encoding of b: the update-batch
// record cmd/ssspd broadcasts to its peer ranks.
func EncodeUpdateBatch(b UpdateBatch) []byte { return appendUpdateBatch(nil, b) }

// DecodeUpdateBatch decodes a wire-encoded update batch against a graph
// of n vertices. A damaged batch — truncated, dishonest count, trailing
// junk, unknown op, out-of-range or self-loop endpoints — fails whole;
// nothing is ever applied from it.
func DecodeUpdateBatch(buf []byte, n int) (UpdateBatch, error) { return decodeUpdateBatch(buf, n) }

// ---- invalidation-flood id record ------------------------------------------
//
// One flood round broadcasts the round's newly-invalidated vertex ids:
// a uvarint count, then the ids sorted ascending, delta-encoded as
// uvarints. Hardened like every other record: a reader flags input the
// encoder cannot produce and the repair fails the batch.

// encodeIDBatch appends the encoding of ids (must be sorted ascending)
// to buf.
func encodeIDBatch(buf []byte, ids []graph.Vertex) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(ids)))
	prev := graph.Vertex(0)
	for _, id := range ids {
		buf = binary.AppendUvarint(buf, uint64(id-prev))
		prev = id
	}
	return buf
}

// idReader iterates an encoded id batch.
type idReader struct {
	buf  []byte
	off  int
	n    int
	prev graph.Vertex
	bad  bool
}

// newIDReader positions a reader at the first id of buf.
func newIDReader(buf []byte) idReader {
	if len(buf) == 0 {
		return idReader{}
	}
	n, sz := binary.Uvarint(buf)
	if sz <= 0 || n > uint64(len(buf)-sz) {
		return idReader{bad: true}
	}
	if n == 0 && sz != len(buf) {
		return idReader{bad: true}
	}
	return idReader{buf: buf, off: sz, n: int(n)}
}

// err reports whether the reader met input our encoder cannot produce.
// Meaningful once next has returned ok=false.
func (rd *idReader) err() error {
	if rd.bad {
		return errMalformedPayload
	}
	return nil
}

// next returns the next id, or ok=false when exhausted.
func (rd *idReader) next() (graph.Vertex, bool) {
	if rd.n <= 0 {
		return 0, false
	}
	rd.n--
	dv, o := readUvarint(rd.buf, rd.off)
	if o == 0 {
		rd.n, rd.bad = 0, true
		return 0, false
	}
	rd.off = o
	if rd.n == 0 && rd.off != len(rd.buf) {
		rd.bad = true
	}
	rd.prev += graph.Vertex(dv)
	return rd.prev, true
}

// ---- incremental repair ----------------------------------------------------

// RepairStats summarizes one incremental repair.
type RepairStats struct {
	// Invalidated counts vertices reset to +inf machine-wide.
	Invalidated int64
	// FloodRounds is the number of invalidation broadcast rounds.
	FloodRounds int64
	// RelaxRounds is the number of Bellman-Ford push rounds.
	RelaxRounds int64
	// CanonRounds is the number of parent re-election rounds (1 unless
	// the defensive re-check ever fires).
	CanonRounds int64
}

// repair fixes this rank's finished distance/parent tree in place after
// the graph advanced to newPlane by applying batch. Every rank of the
// slot must call repair in lockstep with the same batch and plane
// version (the collective discipline of a query). The engine's tree must
// be valid for the pre-update plane; on success it is exactly what
// reset+run on the new plane would produce. On error the tree is
// unusable and the engine needs a full recompute (and its transport is
// typically poisoned, like a failed query).
//
// The batch must already be validated against the graph; callers get
// that for free when the batch arrived on the wire (decodeUpdateBatch)
// or through PlaneSet.Apply.
func (r *queryState) repair(newPlane *rankGraph, batch UpdateBatch) (RepairStats, error) {
	var rs RepairStats
	if newPlane.rank != r.rank || newPlane.size != r.size || newPlane.nLocal != r.nLocal {
		return rs, fmt.Errorf("sssp: repair plane shape mismatch (rank %d/%d, %d local vertices)",
			newPlane.rank, newPlane.size, newPlane.nLocal)
	}
	// Repoint the engine at the new plane. Every relax closure reads the
	// graph through the receiver, so adjacency, edge classification and
	// histograms switch atomically with this assignment; the per-vertex
	// arrays keep their meaning because the vertex set and partition are
	// fixed across versions.
	r.rankGraph = newPlane

	// Phase 1: invalidate. Seed with the local children orphaned by
	// deleted tree edges, then flood down the parent subtrees.
	children := make(map[graph.Vertex][]uint32)
	for li := 0; li < r.nLocal; li++ {
		p := r.parent[li]
		if p == NoParent || r.global(uint32(li)) == r.src {
			continue
		}
		children[p] = append(children[p], uint32(li))
	}
	touched := make([]bool, r.nLocal)
	var invalidated, newly []uint32 // accumulated / this round's local indices
	invalidate := func(li uint32) {
		if r.dist[li] >= graph.Inf || r.global(li) == r.src {
			return
		}
		r.dist[li] = graph.Inf
		r.parent[li] = NoParent
		r.bucketOf[li] = infBucket
		touched[li] = true
		newly = append(newly, li)
	}
	orphan := func(p, c graph.Vertex) {
		if r.pd.Owner(c) != r.rank {
			return
		}
		li := uint32(r.local(c))
		if r.parent[li] == p {
			invalidate(li)
		}
	}
	for _, u := range batch {
		if u.Op == OpDelete {
			orphan(u.U, u.V)
			orphan(u.V, u.U)
		}
	}
	var ids []graph.Vertex
	floodOut := make([][]byte, r.size)
	nVerts := graph.Vertex(r.pd.NumVertices())
	for {
		r.reduceVal[0] = int64(len(newly))
		av, err := r.allreduce(r.reduceVal[:1], comm.Sum, false)
		if err != nil {
			return rs, err
		}
		if av[0] == 0 {
			break
		}
		rs.Invalidated += av[0]
		rs.FloodRounds++
		ids = ids[:0]
		for _, li := range newly {
			ids = append(ids, r.global(li))
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		invalidated = append(invalidated, newly...)
		newly = newly[len(newly):]
		// Children of a vertex can live on any rank: broadcast the round's
		// ids to everyone (the same encoded buffer serves every
		// destination — the transports only read it).
		enc := encodeIDBatch(nil, ids)
		for d := range floodOut {
			floodOut[d] = enc
		}
		in, err := r.t.Exchange(floodOut)
		if err != nil {
			return rs, err
		}
		for src, buf := range in {
			rd := newIDReader(buf)
			for {
				id, ok := rd.next()
				if !ok {
					break
				}
				if id >= nVerts {
					return rs, r.corruptErr(src, "invalidation",
						fmt.Errorf("id %d is not a vertex", id))
				}
				for _, cli := range children[id] {
					invalidate(cli)
				}
			}
			if err := rd.err(); err != nil {
				return rs, r.corruptErr(src, "invalidation", err)
			}
		}
	}

	// Phase 2: seed. Invalidated vertices request offers over their full
	// new adjacency; inserted edges offer both ways between finite
	// endpoints. Records stage through thread 0's lists, so clear all of
	// them first (runWorkers, which normally does, is not involved).
	r.hybridMode = true
	r.active = r.active[:0]
	r.nextActive = r.nextActive[:0]
	r.clearStage()
	for _, li := range invalidated {
		r.stageAdjacencyRequests(li)
	}
	reqIn, err := r.exchangeRecords(requestKind, 0, 0)
	if err != nil {
		return rs, err
	}
	if err := r.respondRequests(reqIn, -1); err != nil {
		return rs, err
	}
	for _, u := range batch {
		if u.Op != OpInsert {
			continue
		}
		r.offerInsert(u.U, u.V)
		r.offerInsert(u.V, u.U)
	}
	in, err := r.exchangeRecords(relaxKind, 0, 0)
	if err != nil {
		return rs, err
	}
	if err := r.applyRelaxIn(in, false, nil); err != nil {
		return rs, err
	}
	r.active, r.nextActive = r.nextActive, r.active[:0]

	// Phases 3+4: Bellman-Ford rounds until global quiescence, then one
	// parent re-election round over everything that moved; repeat if the
	// election somehow found an improvement (it cannot — see the file
	// comment — but the loop re-checks rather than assumes).
	rounds := roundSpec{scan: r.bellmanFordFn(), onRound: func(active []uint32) {
		for _, li := range active {
			touched[li] = true
		}
	}}
	for canonDone := false; ; canonDone = true {
		n, err := r.relaxRounds(rounds)
		if err != nil {
			return rs, err
		}
		rs.RelaxRounds += n
		if canonDone && n == 0 {
			break
		}
		rs.CanonRounds++
		if err := r.reelectParents(touched); err != nil {
			return rs, err
		}
		r.active, r.nextActive = r.nextActive, r.active[:0]
	}
	return rs, nil
}

// stageAdjacencyRequests stages, through thread 0's lists, one request
// per edge of local vertex li: every neighbour is asked for an offer.
func (r *queryState) stageAdjacencyRequests(li uint32) {
	v := r.global(li)
	nbr, ws := r.g.Neighbors(v)
	st := &r.stage[0]
	for i, u := range nbr {
		dst := r.pd.Owner(u)
		st.req[dst] = append(st.req[dst], requestRec{u, v, ws[i]})
	}
}

// offerInsert stages the relaxation offer of inserted edge a-b from a's
// side, at the weight the new graph actually kept (min-weight dedup may
// have collapsed the insert with a surviving parallel edge, or the
// builder may have dropped it entirely).
func (r *queryState) offerInsert(a, b graph.Vertex) {
	if r.pd.Owner(a) != r.rank {
		return
	}
	li := r.local(a)
	if r.dist[li] >= graph.Inf {
		return // an invalidated endpoint already requested over this edge
	}
	w, ok := r.g.EdgeWeight(a, b)
	if !ok {
		return
	}
	nd := r.dist[li] + graph.Dist(w)
	dst := r.pd.Owner(b)
	st := &r.stage[0]
	st.relax[dst] = append(st.relax[dst], relaxRec{b, tagParent(a, w), nd})
}

// reelectParents runs the final canonical-election round: every touched
// local vertex requests offers over its full adjacency, and the
// responses re-run the equal-distance parent election in applyRelaxIn.
func (r *queryState) reelectParents(touched []bool) error {
	r.clearStage()
	for li, t := range touched {
		if t {
			r.stageAdjacencyRequests(uint32(li))
		}
	}
	reqIn, err := r.exchangeRecords(requestKind, 0, 0)
	if err != nil {
		return err
	}
	if err := r.respondRequests(reqIn, -1); err != nil {
		return err
	}
	in, err := r.exchangeRecords(relaxKind, 0, 0)
	if err != nil {
		return err
	}
	return r.applyRelaxIn(in, false, nil)
}
