// Package memtransport implements comm.Transport for P logical ranks
// running as goroutines inside one process.
//
// It is the transport used by all in-process experiments: delivery is a
// shared P×P buffer matrix guarded by a reusable barrier, so an Exchange
// costs two barrier waits and zero copies (buffers are handed over by
// reference). Results are deterministic: in[i] on every rank is exactly
// what rank i passed as out, with no reordering.
//
// The mailbox cells hold segment lists rather than single buffers, which
// makes the gathered collective (comm.GatherExchanger) native: senders
// deposit their per-thread staging buffers unmerged and receivers
// assemble them during the copy they already pay for, so the gathered
// path costs no extra copy at all.
//
// Failure is first-class: the barrier is abortable. Group.Abort (or any
// endpoint's Close) wakes every rank blocked in a collective and poisons
// the group, so every subsequent collective returns an error wrapping
// comm.ErrAborted — one failed rank can no longer hang its peers at a
// barrier it will never reach. See DESIGN.md "Failure semantics".
package memtransport

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"parsssp/internal/comm"
)

// Group is a P-rank in-process communicator. Create one with New and hand
// Rank(i) to each of the P goroutines.
type Group struct {
	size int
	// mailbox[src][dst] is the segment list in flight from src to dst;
	// the logical payload is the segments' concatenation.
	mailbox [][][][]byte
	// reduce[rank] holds each rank's Allreduce contribution.
	reduce [][]int64
	bar    *barrier
	// async[dst] queues point-to-point batches for rank dst
	// (comm.BatchSender); unlike the collective mailbox it is not
	// barrier-synchronized.
	async []asyncBox
}

// New creates a communicator with size ranks.
func New(size int) (*Group, error) {
	if size < 1 {
		return nil, errors.New("memtransport: size must be >= 1")
	}
	g := &Group{
		size:    size,
		mailbox: make([][][][]byte, size),
		reduce:  make([][]int64, size),
		bar:     newBarrier(size),
		async:   make([]asyncBox, size),
	}
	for i := range g.mailbox {
		g.mailbox[i] = make([][][]byte, size)
		g.async[i].init()
	}
	return g, nil
}

// Rank returns the transport endpoint for rank r.
func (g *Group) Rank(r int) comm.Transport {
	if r < 0 || r >= g.size {
		panic("memtransport: rank out of range")
	}
	return &endpoint{g: g, rank: r}
}

// Abort implements comm.Aborter group-wide: it wakes every rank blocked
// in a collective and makes this and every subsequent collective on any
// endpoint return an error wrapping comm.ErrAborted and err. The first
// cause wins; later aborts are no-ops. A nil err stands for an
// unexplained abort.
func (g *Group) Abort(err error) {
	if err == nil {
		err = errors.New("memtransport: aborted")
	}
	wrapped := fmt.Errorf("%w: %w", comm.ErrAborted, err)
	g.bar.abort(wrapped)
	for i := range g.async {
		g.async[i].abort(wrapped)
	}
}

// SubGroup derives a fresh communicator of the same size, the in-process
// analogue of a tcptransport channel: a query-pool slot checks out one
// sub-group per slot so concurrent queries never share a barrier. The
// sub-group is fully independent — its own mailbox matrix, reduce slots
// and (crucially) its own abort state, so poisoning one sub-group
// (Group.Abort, an endpoint Close, a failed query) leaves its siblings
// and the parent untouched. Sub-groups are cheap: a few slice headers
// per rank, no goroutines.
func (g *Group) SubGroup() (*Group, error) {
	return New(g.size)
}

// Endpoints returns all size endpoints, index == rank.
func (g *Group) Endpoints() []comm.Transport {
	eps := make([]comm.Transport, g.size)
	for i := range eps {
		eps[i] = g.Rank(i)
	}
	return eps
}

type endpoint struct {
	g       *Group
	rank    int
	in      [][]byte   // reused result slice
	res     []int64    // reused Allreduce result (see comm.Transport for the ownership rule)
	arena   [][]byte   // reused copies of received buffers
	wrap    [][][]byte // reused single-segment wrapping of an Exchange row
	wrapSeg [][1][]byte
}

func (e *endpoint) Rank() int { return e.rank }
func (e *endpoint) Size() int { return e.g.size }

func (e *endpoint) Exchange(out [][]byte) ([][]byte, error) {
	if len(out) != e.g.size {
		return nil, errors.New("memtransport: Exchange buffer count != size")
	}
	// Wrap each buffer as a single segment (headers only, no data copy)
	// and run the common segment path.
	if e.wrap == nil {
		e.wrap = make([][][]byte, e.g.size)
		e.wrapSeg = make([][1][]byte, e.g.size)
	}
	for dst, b := range out {
		e.wrapSeg[dst][0] = b
		e.wrap[dst] = e.wrapSeg[dst][:]
	}
	return e.exchange(e.wrap)
}

// ExchangeV implements comm.GatherExchanger.
func (e *endpoint) ExchangeV(out [][][]byte) ([][]byte, error) {
	if len(out) != e.g.size {
		return nil, errors.New("memtransport: ExchangeV buffer count != size")
	}
	return e.exchange(out)
}

func (e *endpoint) exchange(out [][][]byte) ([][]byte, error) {
	g := e.g
	// Deposit this rank's outgoing row.
	copy(g.mailbox[e.rank], out)
	if err := g.bar.wait(); err != nil {
		return nil, err
	}
	// Collect this rank's incoming column. Segments are copied
	// contiguously into a per-endpoint arena: the Transport contract
	// gives received buffers to the receiver, while senders are free to
	// reuse their out buffers as soon as the collective returns.
	if e.in == nil {
		e.in = make([][]byte, g.size)
		e.arena = make([][]byte, g.size)
	}
	for src := 0; src < g.size; src++ {
		segs := g.mailbox[src][e.rank]
		if src == e.rank && len(segs) == 1 {
			e.in[src] = segs[0] // local delivery: same goroutine, no reuse hazard
			continue
		}
		buf := e.arena[src][:0]
		for _, s := range segs {
			buf = append(buf, s...)
		}
		e.arena[src] = buf
		e.in[src] = buf
	}
	// Second barrier: nobody may start the next deposit before everyone
	// has collected this round.
	if err := g.bar.wait(); err != nil {
		return nil, err
	}
	return e.in, nil
}

func (e *endpoint) AllreduceInt64(vals []int64, op comm.ReduceOp) ([]int64, error) {
	g := e.g
	g.reduce[e.rank] = vals
	if err := g.bar.wait(); err != nil {
		return nil, err
	}
	// Peers read only each other's vals between the two barriers, never
	// res, so reusing it across calls is safe.
	res := append(e.res[:0], vals...)
	e.res = res
	for r := 0; r < g.size; r++ {
		if r == e.rank {
			continue
		}
		other := g.reduce[r]
		if len(other) != len(vals) {
			return nil, errors.New("memtransport: Allreduce length mismatch across ranks")
		}
		op.Apply(res, other)
	}
	if err := g.bar.wait(); err != nil {
		return nil, err
	}
	return res, nil
}

func (e *endpoint) Barrier() error {
	return e.g.bar.wait()
}

// SendBatch implements comm.BatchSender: the payload is copied and
// appended to the destination's async queue without any synchronization
// with the collective schedule.
func (e *endpoint) SendBatch(dest int, payload []byte) error {
	if dest < 0 || dest >= e.g.size {
		return errors.New("memtransport: SendBatch destination out of range")
	}
	return e.g.async[dest].push(e.rank, payload)
}

// RecvBatch implements comm.BatchSender: it pops the oldest pending batch
// for this rank, waiting up to wait for one to arrive (wait=0 polls).
func (e *endpoint) RecvBatch(wait time.Duration) (int, []byte, bool, error) {
	return e.g.async[e.rank].pop(wait)
}

// Close aborts the whole group: a closed endpoint can never reach
// another collective, so peers blocked on it must fail rather than wait
// forever. This mirrors process death over tcptransport, where closing
// one rank's sockets breaks every peer's reads. Close itself never
// fails.
func (e *endpoint) Close() error {
	e.g.Abort(fmt.Errorf("memtransport: rank %d closed", e.rank))
	return nil
}

// Abort implements comm.Aborter (see Group.Abort).
func (e *endpoint) Abort(err error) { e.g.Abort(err) }

// barrier is a reusable counting barrier with an abort state: once
// aborted, every waiter wakes and every wait — current and future —
// returns the abort error.
type barrier struct {
	mu    sync.Mutex
	cond  *sync.Cond
	size  int
	count int
	gen   uint64
	err   error // set once by abort; poisons all waits
}

func newBarrier(size int) *barrier {
	b := &barrier{size: size}
	b.cond = sync.NewCond(&b.mu)
	return b
}

func (b *barrier) wait() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.err != nil {
		return b.err
	}
	gen := b.gen
	b.count++
	if b.count == b.size {
		b.count = 0
		b.gen++
		b.cond.Broadcast()
		return nil
	}
	for gen == b.gen && b.err == nil {
		b.cond.Wait()
	}
	// A wait overtaken by an abort after its generation completed still
	// succeeded: everyone arrived. Only report the abort to waits it
	// actually interrupted (or that started after it).
	if gen == b.gen && b.err != nil {
		return b.err
	}
	return nil
}

// abort poisons the barrier with err (first cause wins) and wakes every
// waiter. The stranded waiters' arrival counts are deliberately left in
// place: the error state is terminal, no generation ever completes
// again.
func (b *barrier) abort(err error) {
	b.mu.Lock()
	if b.err == nil {
		b.err = err
		b.cond.Broadcast()
	}
	b.mu.Unlock()
}

// asyncBox is one rank's FIFO queue of point-to-point async batches.
// Senders push copies concurrently; the owning rank pops, optionally
// blocking with a bounded wait. A group abort poisons the box so blocked
// (and future) pops fail instead of waiting for batches that will never
// come.
type asyncBox struct {
	mu   sync.Mutex
	q    []asyncMsg
	err  error
	done chan struct{} // closed on abort, wakes bounded waits
	// notify carries a single wake-up token to the (single) receiving
	// rank; pushes refill it non-blockingly.
	notify chan struct{}
}

type asyncMsg struct {
	src     int
	payload []byte
}

func (b *asyncBox) init() {
	b.done = make(chan struct{})
	b.notify = make(chan struct{}, 1)
}

func (b *asyncBox) push(src int, payload []byte) error {
	cp := make([]byte, len(payload))
	copy(cp, payload)
	b.mu.Lock()
	if b.err != nil {
		err := b.err
		b.mu.Unlock()
		return err
	}
	b.q = append(b.q, asyncMsg{src: src, payload: cp})
	b.mu.Unlock()
	select {
	case b.notify <- struct{}{}:
	default:
	}
	return nil
}

func (b *asyncBox) pop(wait time.Duration) (int, []byte, bool, error) {
	var timeout <-chan time.Time
	for {
		b.mu.Lock()
		if len(b.q) > 0 {
			m := b.q[0]
			b.q[0] = asyncMsg{}
			b.q = b.q[1:]
			if len(b.q) == 0 {
				b.q = nil // let the drained backing array go
			}
			b.mu.Unlock()
			return m.src, m.payload, true, nil
		}
		err := b.err
		b.mu.Unlock()
		if err != nil {
			return 0, nil, false, err
		}
		if wait <= 0 {
			return 0, nil, false, nil
		}
		if timeout == nil {
			t := time.NewTimer(wait)
			defer t.Stop()
			timeout = t.C
		}
		select {
		case <-b.notify:
			// Recheck the queue; the token may be stale (an earlier poll
			// already consumed the batch), in which case we loop and wait
			// again within the same deadline.
		case <-b.done:
			// Poisoned; loop reports the error after draining any batch
			// that raced ahead of the abort.
		case <-timeout:
			return 0, nil, false, nil
		}
	}
}

func (b *asyncBox) abort(err error) {
	b.mu.Lock()
	if b.err == nil {
		b.err = err
		close(b.done)
	}
	b.mu.Unlock()
}
