//go:build linux

package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"parsssp/internal/comm"
)

// Tracing is done from outside the program: the benchmark wraps each
// rank's comm.Transport, so every call the engine makes into the
// communication layer opens a span under the query or update that
// caused it. What is left of an operation's span once its children are
// taken out is the engine's own time. Spans inside the engine are a
// later change to the engine, not to this file.

// span is one timed interval. An operation span (name "query" or
// "update", rank -1) is the parent of the transport spans it caused;
// they all carry its id as Op.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Rank   int    `json:"rank"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
	Bytes  int64  `json:"bytes,omitempty"` // payload sent to other ranks
}

// maxSpans caps the spans kept for the file. The per-layer metrics come
// from the transports' running totals, which see every call; the file
// is for reading single operations, and a grid-lib query alone makes
// thousands of collectives.
const maxSpans = 50_000

type tracer struct {
	epoch time.Time
	ids   atomic.Int64
	cur   atomic.Int64 // id of the open operation span; 0 between operations
	full  atomic.Bool  // maxSpans reached: add returns without taking the lock
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (tr *tracer) add(s span) {
	if tr.full.Load() {
		return
	}
	tr.mu.Lock()
	if len(tr.spans) < maxSpans {
		tr.spans = append(tr.spans, s)
	} else {
		tr.full.Store(true)
	}
	tr.mu.Unlock()
}

// begin opens an operation span and returns the function that closes it.
func (tr *tracer) begin(name string) func() {
	id := tr.ids.Add(1)
	tr.cur.Store(id)
	start := time.Since(tr.epoch)
	return func() {
		tr.cur.Store(0)
		tr.add(span{ID: id, Op: id, Name: name, Rank: -1, Start: int64(start), End: int64(time.Since(tr.epoch))})
	}
}

// write stores the spans as perf/out/trace-<workload>.json.
func (tr *tracer) write(dir, name string, seed uint64) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+name+".json")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	err = json.NewEncoder(f).Encode(map[string]any{
		"workload":  name,
		"seed":      seed,
		"truncated": tr.full.Load(),
		"spans":     tr.spans,
	})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return path, err
}

// tracedTransport is a comm.Transport that times every call into the
// transport it wraps. It forwards every optional interface comm.Counting
// forwards — ExchangeV, the point-to-point batches with their capability
// probe, Abort — so the engine above it takes exactly the code path it
// takes over the bare transport. Like comm.Counting it expects one
// caller per rank; the totals are read between operations.
type tracedTransport struct {
	inner  comm.Transport
	gather comm.GatherExchanger
	tr     *tracer

	calls int64         // collectives and batch calls so far
	busy  time.Duration // time spent inside them
}

func newTracedTransport(inner comm.Transport, tr *tracer) (*tracedTransport, error) {
	g, ok := inner.(comm.GatherExchanger)
	if !ok {
		return nil, fmt.Errorf("transport %T has no ExchangeV; tracing it would change the engine's path", inner)
	}
	return &tracedTransport{inner: inner, gather: g, tr: tr}, nil
}

// timed runs one transport call as a span under the open operation.
func (t *tracedTransport) timed(name string, bytes int64, call func()) {
	start := time.Since(t.tr.epoch)
	call()
	end := time.Since(t.tr.epoch)
	t.calls++
	t.busy += end - start
	op := t.tr.cur.Load()
	t.tr.add(span{ID: t.tr.ids.Add(1), Parent: op, Op: op, Name: name, Rank: t.inner.Rank(),
		Start: int64(start), End: int64(end), Bytes: bytes})
}

func (t *tracedTransport) Rank() int { return t.inner.Rank() }
func (t *tracedTransport) Size() int { return t.inner.Size() }

func (t *tracedTransport) Exchange(out [][]byte) (in [][]byte, err error) {
	var bytes int64
	for i, b := range out {
		if i != t.inner.Rank() {
			bytes += int64(len(b))
		}
	}
	t.timed("comm.exchange", bytes, func() { in, err = t.inner.Exchange(out) })
	return in, err
}

func (t *tracedTransport) ExchangeV(out [][][]byte) (in [][]byte, err error) {
	var bytes int64
	for i, segs := range out {
		if i == t.inner.Rank() {
			continue
		}
		for _, s := range segs {
			bytes += int64(len(s))
		}
	}
	t.timed("comm.exchange", bytes, func() { in, err = t.gather.ExchangeV(out) })
	return in, err
}

func (t *tracedTransport) AllreduceInt64(vals []int64, op comm.ReduceOp) (res []int64, err error) {
	t.timed("comm.allreduce", int64(8*len(vals)), func() { res, err = t.inner.AllreduceInt64(vals, op) })
	return res, err
}

func (t *tracedTransport) Barrier() (err error) {
	t.timed("comm.barrier", 0, func() { err = t.inner.Barrier() })
	return err
}

func (t *tracedTransport) SendBatch(dest int, payload []byte) (err error) {
	bs, ok := t.inner.(comm.BatchSender)
	if !ok {
		return comm.ErrBatchUnsupported
	}
	t.timed("comm.sendbatch", int64(len(payload)), func() { err = bs.SendBatch(dest, payload) })
	return err
}

func (t *tracedTransport) RecvBatch(wait time.Duration) (src int, payload []byte, ok bool, err error) {
	bs, has := t.inner.(comm.BatchSender)
	if !has {
		return 0, nil, false, comm.ErrBatchUnsupported
	}
	t.timed("comm.recvbatch", 0, func() { src, payload, ok, err = bs.RecvBatch(wait) })
	return src, payload, ok, err
}

func (t *tracedTransport) SupportsBatch() bool { return comm.SupportsBatch(t.inner) }

func (t *tracedTransport) Abort(err error) { comm.Abort(t.inner, err) }

func (t *tracedTransport) Close() error { return t.inner.Close() }
