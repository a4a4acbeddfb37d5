package sssp

import (
	"encoding/binary"
	"errors"
	"fmt"

	"parsssp/internal/graph"
)

// Wire records. Record kind is implied by the superstep (relax supersteps
// carry only relax records, request supersteps only requests).
//
//	relax:   v, parent, dist — "set d(v) = min(d(v), dist), recording
//	         parent as the tree predecessor if the relaxation wins"
//	request: u, v, w — "if u is in the current bucket, send
//	         relax(v, d(u)+w, parent=u) to v's owner"
//
// Parents make the result a full Graph500-style SSSP tree at the cost of
// one parent id per relaxation message.
//
// Two encodings exist, selected by Options.WireFormat:
//
//   - v1 is fixed-width (16-byte relax, 12-byte request records) in
//     emission order. It is the historical format; paper-metric runs that
//     want byte counts proportional to record counts use it.
//   - v2 is a batch codec: a uvarint record count, then varint-packed
//     records. Relax batches are stably sorted by destination vertex so
//     ids delta-encode (usually 1–2 bytes); parent and dist are plain
//     uvarints. Request batches stay in emission order (sorting them
//     would permute the pull responses derived from them) with u, v, w
//     as plain uvarints. A typical relax record shrinks from 16 to ~5–7
//     bytes. Decoding is sequential via relaxReader / requestReader.
//
// Both decode through the same readers, so the apply paths are
// format-oblivious. See DESIGN.md "Wire format v2" for the layouts and
// the argument that sorting relax batches cannot change results.
//
// Scans stage their output as typed records (relaxRec, requestRec), one
// list per destination rank. Only lists bound for another rank are ever
// encoded: a record whose owner is the scanning rank is applied straight
// from its staging list and never meets either codec.
//
// Every encoded frame starts with a two-word round header (see
// appendHeader) that lets the engine learn machine-wide sums from the
// exchange it was going to run anyway instead of from an extra
// Allreduce; DESIGN.md "Collective schedule" says what each exchange
// site puts in the two words.

// WireFormat selects the exchange record encoding.
type WireFormat int

const (
	// WireV2 is the compact batch codec (sorted, delta+varint). The
	// default.
	WireV2 WireFormat = iota
	// WireV1 is the fixed-width record format: 16 bytes per relax
	// record, 12 per request, in emission order.
	WireV1
)

// String returns the format name.
func (wf WireFormat) String() string {
	switch wf {
	case WireV2:
		return "v2"
	case WireV1:
		return "v1"
	default:
		return fmt.Sprintf("WireFormat(%d)", int(wf))
	}
}

// recKind tells the codec which record schema a superstep carries.
type recKind int

const (
	relaxKind recKind = iota
	requestKind
)

const (
	relaxRecordSize   = 16
	requestRecordSize = 12
)

// ---- v1 fixed-width records ------------------------------------------------

// appendRelax appends a v1 relax record to buf.
func appendRelax(buf []byte, v, parent graph.Vertex, d graph.Dist) []byte {
	var rec [relaxRecordSize]byte
	binary.LittleEndian.PutUint32(rec[0:4], v)
	binary.LittleEndian.PutUint32(rec[4:8], parent)
	binary.LittleEndian.PutUint64(rec[8:16], uint64(d))
	return append(buf, rec[:]...)
}

// decodeRelax reads the i-th v1 relax record of buf.
func decodeRelax(buf []byte, i int) (v, parent graph.Vertex, d graph.Dist) {
	off := i * relaxRecordSize
	v = binary.LittleEndian.Uint32(buf[off : off+4])
	parent = binary.LittleEndian.Uint32(buf[off+4 : off+8])
	d = graph.Dist(binary.LittleEndian.Uint64(buf[off+8 : off+16]))
	return v, parent, d
}

// numRelaxRecords returns the v1 relax record count of a buffer.
func numRelaxRecords(buf []byte) int { return len(buf) / relaxRecordSize }

// ---- parent-field tagging ---------------------------------------------------

// The parent field of a relax record carries, besides the tree
// predecessor's id, one flag in its lowest bit: whether the offering
// edge has zero weight. Parent election needs the distinction (see
// applyRelaxIn): offers over zero-weight edges must not compete in the
// canonical equal-distance election, because inside a cluster of
// equal-distance vertices joined by zero-weight edges a pointwise min-id
// election can pick parents that form a cycle. Both wire formats carry
// the field opaquely, so only the emit and apply sites know about the
// tag. Shifting the id left one bit caps vertex ids at 2^31-1, far above
// what the int-indexed CSR can host anyway.

// tagParent packs a parent id and the zero-weight flag of the offering
// edge into a relax record's parent field.
func tagParent(parent graph.Vertex, w graph.Weight) graph.Vertex {
	t := parent << 1
	if w == 0 {
		t |= 1
	}
	return t
}

// untagParent splits a relax record's parent field back into the
// predecessor id and the zero-weight flag.
func untagParent(t graph.Vertex) (parent graph.Vertex, zeroW bool) {
	return t >> 1, t&1 == 1
}

// appendRequest appends a v1 pull-request record to buf.
func appendRequest(buf []byte, u, v graph.Vertex, w graph.Weight) []byte {
	var rec [requestRecordSize]byte
	binary.LittleEndian.PutUint32(rec[0:4], u)
	binary.LittleEndian.PutUint32(rec[4:8], v)
	binary.LittleEndian.PutUint32(rec[8:12], w)
	return append(buf, rec[:]...)
}

// decodeRequest reads the i-th v1 request record of buf.
func decodeRequest(buf []byte, i int) (u, v graph.Vertex, w graph.Weight) {
	off := i * requestRecordSize
	u = binary.LittleEndian.Uint32(buf[off : off+4])
	v = binary.LittleEndian.Uint32(buf[off+4 : off+8])
	w = binary.LittleEndian.Uint32(buf[off+8 : off+12])
	return u, v, w
}

// numRequestRecords returns the v1 request record count of a buffer.
func numRequestRecords(buf []byte) int { return len(buf) / requestRecordSize }

// ---- v2 batch codec --------------------------------------------------------

// relaxRec is a relax record in memory: what a scan stages, what the
// rank-local fast path applies, and the unit the v2 encoder sorts.
// parent is the tagged field (see tagParent).
type relaxRec struct {
	v      graph.Vertex
	parent graph.Vertex
	dist   graph.Dist
}

// requestRec is a pull (or repair) request in memory.
type requestRec struct {
	u, v graph.Vertex
	w    graph.Weight
}

// relaxSorter holds the pooled scratch buffer of the stable radix sort
// used on relax batches. Embedded by value in the engine so repeated
// sorts reuse the same storage.
type relaxSorter struct{ aux []relaxRec }

// encodeRelaxBatch appends the v2 encoding of recs to buf. recs must be
// sorted by v ascending (the delta encoding requires it); use
// sortRelaxBatch to get there without changing per-vertex record order.
func encodeRelaxBatch(buf []byte, recs []relaxRec) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(recs)))
	prev := graph.Vertex(0)
	for _, rec := range recs {
		buf = binary.AppendUvarint(buf, uint64(rec.v-prev))
		prev = rec.v
		buf = binary.AppendUvarint(buf, uint64(rec.parent))
		buf = binary.AppendUvarint(buf, uint64(rec.dist))
	}
	return buf
}

// sortRelaxBatch stably sorts recs by destination vertex: insertion sort
// for small batches, an LSD radix sort on the vertex id (pooled scratch,
// trivial byte passes skipped) for the rest. Both are stable, which the
// determinism argument needs — equal-vertex records must keep their
// emission order so v1 and v2 elect the same first-wins parent.
// sort.Stable's in-place merging dominated CPU profiles of the encode
// path about 4x, hence the hand-rolled sort.
func sortRelaxBatch(s *relaxSorter, recs []relaxRec) {
	n := len(recs)
	if n < 64 {
		for i := 1; i < n; i++ {
			rec := recs[i]
			j := i - 1
			for j >= 0 && recs[j].v > rec.v {
				recs[j+1] = recs[j]
				j--
			}
			recs[j+1] = rec
		}
		return
	}
	var hist [4][256]int
	for i := range recs {
		v := recs[i].v
		hist[0][v&0xFF]++
		hist[1][(v>>8)&0xFF]++
		hist[2][(v>>16)&0xFF]++
		hist[3][(v>>24)&0xFF]++
	}
	if cap(s.aux) < n {
		s.aux = make([]relaxRec, n)
	}
	from, to := recs, s.aux[:n]
	for pass := 0; pass < 4; pass++ {
		shift := uint(8 * pass)
		h := &hist[pass]
		if h[(from[0].v>>shift)&0xFF] == n {
			continue // every key shares this byte; nothing to reorder
		}
		off := 0
		for b := 0; b < 256; b++ {
			c := h[b]
			h[b] = off
			off += c
		}
		for i := range from {
			b := (from[i].v >> shift) & 0xFF
			to[h[b]] = from[i]
			h[b]++
		}
		from, to = to, from
	}
	if &from[0] != &recs[0] {
		copy(recs, from)
	}
}

// encodeRelax appends recs to buf in wire format wf. The v2 encoding
// needs recs sorted by vertex (sortRelaxBatch); v1 keeps the given order.
func encodeRelax(buf []byte, recs []relaxRec, wf WireFormat) []byte {
	if wf == WireV2 {
		return encodeRelaxBatch(buf, recs)
	}
	for _, rec := range recs {
		buf = appendRelax(buf, rec.v, rec.parent, rec.dist)
	}
	return buf
}

// encodeRequests appends a request batch to buf in wire format wf.
// Requests are NOT sorted: the responder walks them in order, and
// permuting requests would permute the emitted responses.
func encodeRequests(buf []byte, reqs []requestRec, wf WireFormat) []byte {
	if wf == WireV1 {
		for _, q := range reqs {
			buf = appendRequest(buf, q.u, q.v, q.w)
		}
		return buf
	}
	buf = binary.AppendUvarint(buf, uint64(len(reqs)))
	for _, q := range reqs {
		buf = binary.AppendUvarint(buf, uint64(q.u))
		buf = binary.AppendUvarint(buf, uint64(q.v))
		buf = binary.AppendUvarint(buf, uint64(q.w))
	}
	return buf
}

// ---- round header ----------------------------------------------------------

// headerWords is the number of uvarint words every exchanged frame
// starts with. A rank sends the same header to every destination, so
// after one Exchange every rank holds every rank's words and can reduce
// them locally: sums and maxima that used to cost an Allreduce each.
const headerWords = 2

// appendHeader starts a frame with the sender's two header words.
func appendHeader(buf []byte, h0, h1 int64) []byte {
	buf = binary.AppendUvarint(buf, uint64(h0))
	return binary.AppendUvarint(buf, uint64(h1))
}

// readHeader parses a frame's header and returns its words and the
// offset of the record payload. ok=false flags a frame our encoder
// cannot have produced: a truncated or overlong varint, or a word above
// limit (the words are vertex and edge counts, so the caller knows a
// bound no honest sender exceeds).
func readHeader(buf []byte, limit uint64) (h [headerWords]int64, n int, ok bool) {
	for i := range h {
		w, next := readUvarint(buf, n)
		if next == 0 || w > limit {
			return h, 0, false
		}
		h[i], n = int64(w), next
	}
	return h, n, true
}

// wireRecordCount returns the record count of an encoded buffer without
// decoding the records: the length quotient for v1, the batch count for
// v2. Malformed v2 counts read as zero, matching the readers. buf is a
// record payload, round header already stripped.
func wireRecordCount(buf []byte, kind recKind, wf WireFormat) int {
	if wf == WireV1 {
		if kind == relaxKind {
			return numRelaxRecords(buf)
		}
		return numRequestRecords(buf)
	}
	n, sz := binary.Uvarint(buf)
	if sz <= 0 {
		return 0
	}
	return int(n)
}

// totalWireRecords sums wireRecordCount over received buffers.
func totalWireRecords(in [][]byte, kind recKind, wf WireFormat) int {
	total := 0
	for _, buf := range in {
		total += wireRecordCount(buf, kind, wf)
	}
	return total
}

// ---- format-oblivious readers ---------------------------------------------

// readUvarint decodes the uvarint at buf[off:], returning the value and
// the offset past it. A zero next offset means malformed input
// (truncated buffer or overlong varint); the readers stop there. The
// one- and two-byte cases are inlined — delta-encoded vertex ids are
// almost always a single byte, and the generic binary.Uvarint loop
// dominated decode profiles.
func readUvarint(buf []byte, off int) (uint64, int) {
	if off+1 < len(buf) {
		b0 := buf[off]
		if b0 < 0x80 {
			return uint64(b0), off + 1
		}
		if b1 := buf[off+1]; b1 < 0x80 {
			return uint64(b0&0x7F) | uint64(b1)<<7, off + 2
		}
	} else if off < len(buf) && buf[off] < 0x80 {
		return uint64(buf[off]), off + 1
	}
	v, n := binary.Uvarint(buf[off:])
	if n <= 0 {
		return 0, 0
	}
	return v, off + n
}

// errMalformedPayload is what the readers report for buffers our
// encoders cannot have produced: a truncated or trailing-junk frame, a
// dishonest record count, an overlong varint. The engine turns it into a
// query failure — a damaged frame must surface as an error, never as
// silently fewer (or garbage) relaxations.
var errMalformedPayload = errors.New("malformed wire records")

// relaxReader iterates the relax records of one encoded buffer in either
// format. On a malformed buffer (truncated or overlong varints — possible
// only with corrupted input, never from our encoders) it stops early
// rather than panicking and records the damage; callers check err()
// after draining the reader.
type relaxReader struct {
	buf  []byte
	off  int // byte offset (v2) or record index (v1)
	n    int // records remaining
	prev graph.Vertex
	v1   bool
	bad  bool // malformed input seen
}

// newRelaxReader positions a reader at the first record of buf.
func newRelaxReader(buf []byte, wf WireFormat) relaxReader {
	if wf == WireV1 {
		// v1 buffers are whole 16-byte records; a remainder means the
		// frame was cut short.
		return relaxReader{buf: buf, n: numRelaxRecords(buf), v1: true,
			bad: len(buf)%relaxRecordSize != 0}
	}
	if len(buf) == 0 {
		return relaxReader{} // nothing from this rank: the common, honest case
	}
	n, sz := binary.Uvarint(buf)
	if sz <= 0 || n > uint64(len(buf)-sz) {
		// A valid record needs >= 1 byte per field, so a count beyond the
		// remaining bytes cannot be honest.
		return relaxReader{bad: true}
	}
	if n == 0 && sz != len(buf) {
		return relaxReader{bad: true} // junk after an empty batch
	}
	return relaxReader{buf: buf, off: sz, n: int(n)}
}

// err reports whether the reader met input our encoders cannot produce.
// Meaningful once next has returned ok=false.
func (rd *relaxReader) err() error {
	if rd.bad {
		return errMalformedPayload
	}
	return nil
}

// next returns the next record, or ok=false when exhausted.
func (rd *relaxReader) next() (v, parent graph.Vertex, d graph.Dist, ok bool) {
	if rd.n <= 0 {
		return 0, 0, 0, false
	}
	rd.n--
	if rd.v1 {
		v, parent, d = decodeRelax(rd.buf, rd.off)
		rd.off++
		return v, parent, d, true
	}
	dv, o1 := readUvarint(rd.buf, rd.off)
	if o1 == 0 {
		rd.n, rd.bad = 0, true
		return 0, 0, 0, false
	}
	p, o2 := readUvarint(rd.buf, o1)
	if o2 == 0 {
		rd.n, rd.bad = 0, true
		return 0, 0, 0, false
	}
	du, o3 := readUvarint(rd.buf, o2)
	if o3 == 0 {
		rd.n, rd.bad = 0, true
		return 0, 0, 0, false
	}
	rd.off = o3
	if rd.n == 0 && rd.off != len(rd.buf) {
		rd.bad = true // trailing junk after the counted records
	}
	rd.prev += graph.Vertex(dv)
	return rd.prev, graph.Vertex(p), graph.Dist(du), true
}

// requestReader iterates the request records of one encoded buffer in
// either format, with the same malformed-input tolerance (and err
// reporting) as relaxReader.
type requestReader struct {
	buf []byte
	off int
	n   int
	v1  bool
	bad bool
}

// newRequestReader positions a reader at the first record of buf.
func newRequestReader(buf []byte, wf WireFormat) requestReader {
	if wf == WireV1 {
		return requestReader{buf: buf, n: numRequestRecords(buf), v1: true,
			bad: len(buf)%requestRecordSize != 0}
	}
	if len(buf) == 0 {
		return requestReader{}
	}
	n, sz := binary.Uvarint(buf)
	if sz <= 0 || n > uint64(len(buf)-sz) {
		return requestReader{bad: true}
	}
	if n == 0 && sz != len(buf) {
		return requestReader{bad: true}
	}
	return requestReader{buf: buf, off: sz, n: int(n)}
}

// err reports whether the reader met input our encoders cannot produce.
// Meaningful once next has returned ok=false.
func (rd *requestReader) err() error {
	if rd.bad {
		return errMalformedPayload
	}
	return nil
}

// next returns the next record, or ok=false when exhausted.
func (rd *requestReader) next() (u, v graph.Vertex, w graph.Weight, ok bool) {
	if rd.n <= 0 {
		return 0, 0, 0, false
	}
	rd.n--
	if rd.v1 {
		u, v, w = decodeRequest(rd.buf, rd.off)
		rd.off++
		return u, v, w, true
	}
	uu, o1 := readUvarint(rd.buf, rd.off)
	if o1 == 0 {
		rd.n, rd.bad = 0, true
		return 0, 0, 0, false
	}
	vv, o2 := readUvarint(rd.buf, o1)
	if o2 == 0 {
		rd.n, rd.bad = 0, true
		return 0, 0, 0, false
	}
	ww, o3 := readUvarint(rd.buf, o2)
	if o3 == 0 {
		rd.n, rd.bad = 0, true
		return 0, 0, 0, false
	}
	rd.off = o3
	if rd.n == 0 && rd.off != len(rd.buf) {
		rd.bad = true
	}
	return graph.Vertex(uu), graph.Vertex(vv), graph.Weight(ww), true
}
