// Package tcptransport implements comm.Transport over TCP sockets,
// forming a real multi-process message-passing machine on commodity
// networks. It is the stand-in for the MPI/SPI layer of the paper's Blue
// Gene/Q implementation (no MPI ecosystem exists for Go, so the RPC layer
// is rolled by hand).
//
// Topology is a full mesh: every pair of ranks shares one TCP connection.
// Rank identities are established by a fixed-size handshake; afterwards
// all traffic is length-prefixed binary frames. The mesh is multiplexed:
// every frame names a logical channel, and each channel is an independent
// comm.Transport with its own lockstep collective sequence. One socket
// mesh therefore carries many in-flight queries between the same process
// pair — the deployment shape of a query-serving pool, where each pool
// slot owns one channel. The Transport returned by New is channel 0;
// Channel opens the others. The collectives are implemented directly on
// the mesh:
//
//   - Exchange / ExchangeV: write one frame to every peer, read one frame
//     from every peer. TCP ordering plus the per-channel demultiplexer
//     plus the lockstep collective discipline make frame matching trivial
//     — the k-th frame of a channel on a connection belongs to that
//     channel's k-th collective.
//   - AllreduceInt64: an allgather of the encoded vectors (an Exchange of
//     the same payload to all peers) followed by a local reduction.
//   - Barrier: a zero-length Allreduce.
//
// The data path is built for overlap and reuse:
//
//   - One persistent writer goroutine per peer, shared by all channels. A
//     collective enqueues all outgoing frames and immediately starts
//     draining its inboxes, so the P−1 sends proceed concurrently with
//     each other and with the receives — the all-to-all is never
//     serialized on a single socket's flow control.
//   - Frames are written with net.Buffers (writev): the length prefix and
//     the payload segments of a gathered exchange go out in one vectored
//     syscall, with no sender-side concatenation copy.
//   - Frame read buffers are recycled per channel per peer. The Transport
//     contract gives a received buffer to the caller only until its next
//     collective call, at which point the buffer returns to the free list
//     and the read loop reuses it. Steady-state exchanges allocate
//     nothing.
//
// Failure semantics are two-tier (see DESIGN.md "Query planes and
// serving"):
//
//   - Channel-level: Abort or Close on a non-root channel poisons only
//     that channel, locally and — via a control frame — on every peer.
//     Collectives blocked on the channel wake with an error wrapping
//     comm.ErrAborted; other channels on the same mesh keep working. This
//     is how one failed query in a pool is kept from killing its
//     neighbours.
//   - Mesh-level: socket errors, collective timeouts and Close on the
//     root Transport are unrecoverable — the frame streams cannot be
//     resynchronized — and poison every channel.
//
// Startup (accept + handshake) is bounded by DialTimeout, so a rogue or
// stalled connection cannot block New past it; Config.CollectiveTimeout
// bounds each collective's peer I/O, so a dead or hung peer turns into an
// error instead of a blocked read; TCP keepalive reaps silently-dead
// links the timeout would otherwise be the only guard against.
//
// Frame format (little-endian): u32 payload length, u32 channel word
// (low 30 bits: channel id; bit 31: abort control frame, payload is the
// cause; bit 30: asynchronous batch frame, routed to the channel's
// point-to-point queue instead of the lockstep inbox), then payload. The
// handshake frame is: u32 magic, u32 rank.
package tcptransport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"parsssp/internal/comm"
)

const handshakeMagic = 0x50415253 // "PARS"

// maxFrame bounds a single frame payload; larger Exchange buffers are an
// error (they indicate a runaway workload rather than a legitimate need).
const maxFrame = 1 << 30

// frameHeaderSize is the byte size of the per-frame header: u32 payload
// length, u32 channel word.
const frameHeaderSize = 8

// ctrlAbort marks a control frame in the channel word: the named channel
// was aborted by the sender and the payload carries the cause.
const ctrlAbort = 1 << 31

// ctrlAsync marks an asynchronous batch frame (comm.BatchSender): the
// payload bypasses the named channel's lockstep inbox and lands in its
// point-to-point batch queue, so async traffic never perturbs the
// positional frame matching the collectives rely on.
const ctrlAsync = 1 << 30

// maxChannelID bounds channel ids to the low 30 bits of the channel word.
const maxChannelID = ctrlAsync - 1

// Config describes the machine: one address per rank. Rank i listens on
// Addrs[i]; all ranks must share an identical Addrs slice.
type Config struct {
	// Addrs[i] is the host:port endpoint of rank i.
	Addrs []string
	// Rank is this process's rank.
	Rank int
	// DialTimeout bounds connection establishment to each peer — dialing
	// out, accepting in, and the handshake on an accepted connection;
	// zero means 10 seconds.
	DialTimeout time.Duration
	// DialRetry is the interval between connection attempts while peers
	// start up; zero means 50ms.
	DialRetry time.Duration
	// CollectiveTimeout bounds the peer I/O of one collective: how long
	// Exchange/AllreduceInt64/Barrier may block waiting for a peer's
	// frame, and how long a single frame write may take. When it expires
	// the collective returns an error and the mesh is dead. Zero
	// means no timeout — correct peers may legitimately be slow (a
	// load-imbalanced superstep), so only deployments that prefer failing
	// a query to waiting (cmd/ssspd defaults to 30s) should set it.
	CollectiveTimeout time.Duration
	// KeepAlivePeriod is the TCP keepalive probe interval, catching peers
	// that vanished without a FIN/RST (power loss, network partition);
	// zero means 15 seconds, negative disables keepalive.
	KeepAlivePeriod time.Duration
}

// Transport is a TCP-backed comm.Transport endpoint: the owner of the
// socket mesh, and channel 0 of it. It also implements
// comm.GatherExchanger. Channel opens further independent logical
// channels over the same mesh. After any collective returns a mesh-level
// error the transport is dead and must be Closed; the lockstep frame
// matching cannot be resynchronized.
type Transport struct {
	rank    int
	size    int
	timeout time.Duration // CollectiveTimeout; zero = none
	ln      net.Listener
	conns   []net.Conn // conns[p] is the connection to rank p; nil for self

	// Per-peer writer machinery, shared by all channels: sendq carries
	// prepared frames to the peer's writer goroutine; each frame names
	// the completion channel its write error is reported to. quit is
	// closed on Close, releasing writers and any sender blocked on a
	// full queue.
	sendq []chan outFrame
	quit  chan struct{}

	// chans is the channel registry, shared by Channel and the read
	// loops (which create channels lazily when a peer's frame arrives
	// first). peerErr records each peer's first read-loop failure so
	// channels created after it inherit the failure; both under chanMu.
	chanMu  sync.Mutex
	chans   map[uint32]*Channel
	peerErr []error

	root *Channel // channel 0: the Transport's own collectives

	closeOnce sync.Once
	closeErr  error
}

// outFrame is one prepared frame queued to a peer's writer goroutine.
type outFrame struct {
	bufs net.Buffers
	// done receives the write error; nil for fire-and-forget control
	// frames, whose failure modes (dead socket) already poison the mesh
	// through the read loops.
	done chan error
}

type frame struct {
	payload []byte
}

// New establishes the mesh and returns this rank's endpoint (channel 0).
// It blocks until connections to all peers are up. Ranks may start in any
// order within the dial timeout.
func New(cfg Config) (*Transport, error) {
	size := len(cfg.Addrs)
	if size < 1 {
		return nil, errors.New("tcptransport: empty address list")
	}
	if cfg.Rank < 0 || cfg.Rank >= size {
		return nil, fmt.Errorf("tcptransport: rank %d out of range [0,%d)", cfg.Rank, size)
	}
	if cfg.DialTimeout == 0 {
		cfg.DialTimeout = 10 * time.Second
	}
	if cfg.DialRetry == 0 {
		cfg.DialRetry = 50 * time.Millisecond
	}
	if cfg.KeepAlivePeriod == 0 {
		cfg.KeepAlivePeriod = 15 * time.Second
	}
	t := &Transport{
		rank:    cfg.Rank,
		size:    size,
		timeout: cfg.CollectiveTimeout,
		conns:   make([]net.Conn, size),
		sendq:   make([]chan outFrame, size),
		quit:    make(chan struct{}),
		chans:   make(map[uint32]*Channel),
		peerErr: make([]error, size),
	}
	for p := range t.sendq {
		// Buffered so several channels' collectives can enqueue to the
		// same peer without rendezvousing with the writer; a full queue
		// blocks the sender until the writer drains, which is safe (the
		// writer never waits on senders).
		t.sendq[p] = make(chan outFrame, 8)
	}
	t.root = t.newChannel(0)
	if size == 1 {
		return t, nil
	}

	ln, err := net.Listen("tcp", cfg.Addrs[cfg.Rank])
	if err != nil {
		return nil, fmt.Errorf("tcptransport: listen %s: %w", cfg.Addrs[cfg.Rank], err)
	}
	t.ln = ln

	// Lower ranks dial higher ranks; higher ranks accept from lower ones.
	// That fixes one connection per unordered pair with no tie-breaking.
	type dialResult struct {
		peer int
		conn net.Conn
		err  error
	}
	results := make(chan dialResult, size)
	for p := cfg.Rank + 1; p < size; p++ {
		go func(p int) {
			conn, err := dialWithRetry(cfg.Addrs[p], cfg.DialTimeout, cfg.DialRetry, cfg.KeepAlivePeriod)
			if err == nil {
				err = writeHandshake(conn, cfg.Rank)
			}
			results <- dialResult{p, conn, err}
		}(p)
	}
	go func() {
		// The whole accept phase is bounded by DialTimeout: Accept itself
		// via the listener deadline, and each accepted connection's
		// handshake via a read deadline. Without these, one rogue client
		// that connects and sends nothing stalls startup forever.
		deadline := time.Now().Add(cfg.DialTimeout)
		if tl, ok := ln.(*net.TCPListener); ok {
			if err := tl.SetDeadline(deadline); err != nil {
				results <- dialResult{-1, nil, fmt.Errorf("tcptransport: set accept deadline: %w", err)}
				return
			}
		}
		for i := 0; i < cfg.Rank; i++ {
			conn, err := ln.Accept()
			if err != nil {
				results <- dialResult{-1, nil, fmt.Errorf("tcptransport: accept: %w", err)}
				return
			}
			peer, herr := acceptHandshake(conn, deadline, cfg.Rank, cfg.KeepAlivePeriod)
			if herr != nil {
				err := fmt.Errorf("tcptransport: bad handshake: %w", herr)
				results <- dialResult{-1, nil, errors.Join(err, conn.Close())}
				return
			}
			results <- dialResult{peer, conn, nil}
		}
	}()

	needed := size - 1
	for i := 0; i < needed; i++ {
		r := <-results
		if r.err != nil {
			return nil, errors.Join(r.err, t.Close())
		}
		if t.conns[r.peer] != nil {
			err := fmt.Errorf("tcptransport: duplicate connection from rank %d", r.peer)
			return nil, errors.Join(err, r.conn.Close(), t.Close())
		}
		t.conns[r.peer] = r.conn
	}
	// One reader and one writer goroutine per peer: readers keep frames
	// ordered per connection and demultiplex them to channels, writers
	// let a collective's sends to all peers proceed concurrently with its
	// receives.
	for p, conn := range t.conns {
		if conn == nil {
			continue
		}
		go t.readLoop(p, conn)
		go t.writeLoop(p, conn)
	}
	return t, nil
}

func dialWithRetry(addr string, timeout, retry, keepAlive time.Duration) (net.Conn, error) {
	deadline := time.Now().Add(timeout)
	for {
		conn, err := net.DialTimeout("tcp", addr, retry)
		if err == nil {
			if err := tuneConn(conn, keepAlive); err != nil {
				// A socket that cannot take options is not usable as a
				// mesh link; surface it like any other dial failure.
				return nil, errors.Join(fmt.Errorf("tcptransport: tune %s: %w", addr, err), conn.Close())
			}
			return conn, nil
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("tcptransport: dial %s: %w", addr, err)
		}
		time.Sleep(retry)
	}
}

// tuneConn applies the mesh socket options: NoDelay (the collectives
// write exactly one frame and then wait, the worst case for Nagle) and
// keepalive (a vanished peer must eventually break the connection even
// if no deadline is armed).
func tuneConn(conn net.Conn, keepAlive time.Duration) error {
	tc, ok := conn.(*net.TCPConn)
	if !ok {
		return nil
	}
	if err := tc.SetNoDelay(true); err != nil {
		return err
	}
	if keepAlive > 0 {
		if err := tc.SetKeepAlive(true); err != nil {
			return err
		}
		if err := tc.SetKeepAlivePeriod(keepAlive); err != nil {
			return err
		}
	}
	return nil
}

// acceptHandshake reads and validates the handshake of an accepted
// connection, bounded by deadline. Only ranks below rank dial this rank
// (higher ranks are dialed by us), so a peer claiming an equal or higher
// rank — which would clobber a dialed connection's slot — is rejected.
func acceptHandshake(conn net.Conn, deadline time.Time, rank int, keepAlive time.Duration) (int, error) {
	if err := conn.SetReadDeadline(deadline); err != nil {
		return -1, err
	}
	peer, err := readHandshake(conn)
	if err != nil {
		return -1, err
	}
	if peer < 0 || peer >= rank {
		return -1, fmt.Errorf("peer claims rank %d; only ranks below %d may dial this rank", peer, rank)
	}
	if err := conn.SetReadDeadline(time.Time{}); err != nil {
		return -1, err
	}
	if err := tuneConn(conn, keepAlive); err != nil {
		return -1, err
	}
	return peer, nil
}

func writeHandshake(conn net.Conn, rank int) error {
	var buf [8]byte
	binary.LittleEndian.PutUint32(buf[0:4], handshakeMagic)
	binary.LittleEndian.PutUint32(buf[4:8], uint32(rank))
	_, err := conn.Write(buf[:])
	return err
}

func readHandshake(conn net.Conn) (int, error) {
	var buf [8]byte
	if _, err := io.ReadFull(conn, buf[:]); err != nil {
		return -1, err
	}
	if binary.LittleEndian.Uint32(buf[0:4]) != handshakeMagic {
		return -1, errors.New("tcptransport: bad magic")
	}
	return int(binary.LittleEndian.Uint32(buf[4:8])), nil
}

// ---- channel registry ------------------------------------------------------

// Channel returns the logical channel with the given id (creating it if
// this endpoint has not used it yet), an independent comm.Transport over
// the shared mesh. Channel 0 is the Transport itself. All ranks must use
// the same channel ids; within one channel the usual collective-ordering
// discipline applies, while distinct channels are fully concurrent.
func (t *Transport) Channel(id uint32) (*Channel, error) {
	if id > maxChannelID {
		return nil, fmt.Errorf("tcptransport: channel id %d out of range", id)
	}
	select {
	case <-t.quit:
		return nil, errors.New("tcptransport: transport closed")
	default:
	}
	return t.channel(id), nil
}

// channel returns (or lazily creates) channel id. The lazy creation
// makes frame arrival order irrelevant: a peer's first frame on a
// channel may land before the local Channel call.
func (t *Transport) channel(id uint32) *Channel {
	t.chanMu.Lock()
	defer t.chanMu.Unlock()
	if ch, ok := t.chans[id]; ok {
		return ch
	}
	ch := t.newChannelLocked(id)
	return ch
}

func (t *Transport) newChannel(id uint32) *Channel {
	t.chanMu.Lock()
	defer t.chanMu.Unlock()
	return t.newChannelLocked(id)
}

func (t *Transport) newChannelLocked(id uint32) *Channel {
	ch := &Channel{
		t:         t,
		id:        id,
		inbox:     make([]chan frame, t.size),
		recvFree:  make([]chan []byte, t.size),
		prevIn:    make([][]byte, t.size),
		hdrs:      make([][frameHeaderSize]byte, t.size),
		sendBufs:  make([]net.Buffers, t.size),
		sendDone:  make([]chan error, t.size),
		in:        make([][]byte, t.size),
		wrap:      make([][][]byte, t.size),
		wrapSeg:   make([][1][]byte, t.size),
		abortCh:   make(chan struct{}),
		peerErrs:  make([]error, t.size),
		peerFailC: make([]chan struct{}, t.size),
		batchC:    make(chan struct{}, 1),
	}
	for p := 0; p < t.size; p++ {
		ch.inbox[p] = make(chan frame, 1)
		ch.recvFree[p] = make(chan []byte, 2)
		ch.sendDone[p] = make(chan error, 1)
		ch.peerFailC[p] = make(chan struct{})
	}
	t.chans[id] = ch
	// A channel opened after a peer's read loop already died inherits
	// that failure; without this, its collectives would block on a frame
	// the dead reader can never deliver.
	for p, err := range t.peerErr {
		if err != nil {
			ch.failPeer(p, err)
		}
	}
	return ch
}

// poisonAll fails every existing channel and arranges for future ones to
// fail too (mesh-level death: socket errors, timeouts, Close).
func (t *Transport) poisonAll(err error) {
	t.chanMu.Lock()
	chans := make([]*Channel, 0, len(t.chans))
	for _, ch := range t.chans {
		chans = append(chans, ch)
	}
	t.chanMu.Unlock()
	for _, ch := range chans {
		ch.poison(err)
	}
}

// ---- read/write loops ------------------------------------------------------

// failPeer records peer p's read-loop death and propagates it to every
// channel, present and future. The failure is delivered in-band per
// channel — it surfaces only once a collective actually needs a frame
// from p that was never delivered — so an EOF from a peer that closed
// after completing its final collective does not fail collectives its
// already-delivered frames satisfy.
func (t *Transport) failPeer(p int, err error) {
	t.chanMu.Lock()
	if t.peerErr[p] == nil {
		t.peerErr[p] = err
	}
	chans := make([]*Channel, 0, len(t.chans))
	for _, ch := range t.chans {
		chans = append(chans, ch)
	}
	t.chanMu.Unlock()
	for _, ch := range chans {
		ch.failPeer(p, err)
	}
}

// readLoop reads frames from peer p, demultiplexes them by channel id
// and delivers them to the owning channel's inbox. Abort control frames
// poison their channel instead. A socket-level read error kills this
// connection's frame stream for good (it cannot be resynchronized):
// every channel's link to p is marked failed, in-band behind any frames
// already delivered.
func (t *Transport) readLoop(p int, conn net.Conn) {
	fail := func(err error) {
		t.failPeer(p, fmt.Errorf("tcptransport: receive from rank %d: %w", p, err))
	}
	for {
		var hdr [frameHeaderSize]byte
		if _, err := io.ReadFull(conn, hdr[:]); err != nil {
			fail(err)
			return
		}
		n := binary.LittleEndian.Uint32(hdr[0:4])
		cw := binary.LittleEndian.Uint32(hdr[4:8])
		if n > maxFrame {
			fail(fmt.Errorf("oversized frame %d", n))
			return
		}
		id := cw &^ (ctrlAbort | ctrlAsync)
		ch := t.channel(id)
		if cw&ctrlAbort != 0 {
			// Channel-level abort: the payload is the remote cause. Only
			// this channel is poisoned; the mesh stays up.
			msg := make([]byte, n)
			if _, err := io.ReadFull(conn, msg); err != nil {
				fail(err)
				return
			}
			ch.poison(fmt.Errorf("%w: channel %d aborted by rank %d: %s", comm.ErrAborted, id, p, msg))
			continue
		}
		if cw&ctrlAsync != 0 {
			// Asynchronous batch: freshly allocated payload (its ownership
			// transfers to the RecvBatch caller for good, so the pooled
			// collective buffers cannot back it), queued out of band.
			payload := make([]byte, n)
			if _, err := io.ReadFull(conn, payload); err != nil {
				fail(err)
				return
			}
			ch.pushBatch(p, payload)
			continue
		}
		payload := ch.recvBuf(p, int(n))
		if _, err := io.ReadFull(conn, payload); err != nil {
			fail(err)
			return
		}
		// The lockstep discipline admits at most one undelivered frame
		// per (channel, peer), so the send blocks only transiently —
		// unless the channel was aborted and nobody will drain it, in
		// which case the frame is dropped.
		select {
		case ch.inbox[p] <- frame{payload: payload}:
		case <-ch.abortCh:
		}
	}
}

// writeLoop writes the frames enqueued for peer p, from every channel.
// Each queued value is a fully prepared vectored frame (header first);
// the write error is reported back through the frame's done channel so
// the enqueuing collective can propagate it.
func (t *Transport) writeLoop(p int, conn net.Conn) {
	for {
		var f outFrame
		select {
		case f = <-t.sendq[p]:
		case <-t.quit:
			return
		}
		var err error
		if t.timeout > 0 {
			err = conn.SetWriteDeadline(time.Now().Add(t.timeout))
		}
		if err == nil {
			_, err = f.bufs.WriteTo(conn)
		}
		if f.done != nil {
			f.done <- err
		}
	}
}

// enqueue hands a frame to peer p's writer, failing instead of blocking
// forever if the transport closes underneath.
func (t *Transport) enqueue(p int, f outFrame) error {
	select {
	case t.sendq[p] <- f:
		return nil
	case <-t.quit:
		return errors.New("tcptransport: transport closed")
	}
}

// Rank implements comm.Transport.
func (t *Transport) Rank() int { return t.rank }

// Size implements comm.Transport.
func (t *Transport) Size() int { return t.size }

// Exchange implements comm.Transport on channel 0.
func (t *Transport) Exchange(out [][]byte) ([][]byte, error) { return t.root.Exchange(out) }

// ExchangeV implements comm.GatherExchanger on channel 0.
func (t *Transport) ExchangeV(out [][][]byte) ([][]byte, error) { return t.root.ExchangeV(out) }

// AllreduceInt64 implements comm.Transport on channel 0.
func (t *Transport) AllreduceInt64(vals []int64, op comm.ReduceOp) ([]int64, error) {
	return t.root.AllreduceInt64(vals, op)
}

// Barrier implements comm.Transport on channel 0.
func (t *Transport) Barrier() error { return t.root.Barrier() }

// SendBatch implements comm.BatchSender on channel 0.
func (t *Transport) SendBatch(dest int, payload []byte) error {
	return t.root.SendBatch(dest, payload)
}

// RecvBatch implements comm.BatchSender on channel 0.
func (t *Transport) RecvBatch(wait time.Duration) (int, []byte, bool, error) {
	return t.root.RecvBatch(wait)
}

// failConns moves every connection's deadline into the past, forcing all
// in-flight reads and writes to fail promptly. Called when a collective
// times out: the mesh is dead at that point, and its reader/writer
// goroutines must not stay blocked on peers that will never deliver.
func (t *Transport) failConns() error {
	var err error
	past := time.Unix(1, 0)
	for _, conn := range t.conns {
		if conn != nil {
			err = errors.Join(err, conn.SetDeadline(past))
		}
	}
	return err
}

// Close implements comm.Transport: mesh-level shutdown. Closing releases
// the writer goroutines, closes every connection (which also unblocks
// the read loops) and poisons every channel.
func (t *Transport) Close() error {
	t.closeOnce.Do(func() {
		close(t.quit)
		if t.ln != nil {
			t.closeErr = t.ln.Close()
		}
		for _, conn := range t.conns {
			if conn != nil {
				t.closeErr = errors.Join(t.closeErr, conn.Close())
			}
		}
		t.poisonAll(errors.New("tcptransport: transport closed"))
	})
	return t.closeErr
}

// ---- channels --------------------------------------------------------------

// Channel is one logical channel of a mesh: an independent comm.Transport
// (and comm.GatherExchanger, comm.Aborter) whose collectives interleave
// freely with other channels' over the same sockets. Like the transports
// themselves, a Channel is not safe for concurrent use — one goroutine
// per channel, many channels per mesh.
type Channel struct {
	t  *Transport
	id uint32

	inbox []chan frame // per-peer demultiplexed frames

	// recvFree[p] recycles frame payload buffers of peer p back to the
	// read loop; prevIn[p] is the payload handed to the caller by the
	// previous collective, reclaimable at the next one.
	recvFree []chan []byte
	prevIn   [][]byte

	// hdrs[p] is the reusable header storage of the in-flight frame to
	// p; sendBufs[p] the reusable vectored-write segment list; sendDone[p]
	// the completion channel carried by this channel's frames to p.
	hdrs     [][frameHeaderSize]byte
	sendBufs []net.Buffers
	sendDone []chan error

	in      [][]byte   // reused result slice of exchanges
	selfBuf []byte     // reused concatenation of multi-segment self-delivery
	wrap    [][][]byte // reused single-segment wrapping of an Exchange row
	wrapSeg [][1][]byte

	// Pooled Allreduce scratch: the encoded local vector, the shared out
	// row pointing at it, and the decode buffer for each peer's vector.
	reducePayload []byte
	reduceOut     [][][]byte
	reduceTmp     []int64
	reduceRes     []int64

	// abortErr is set once (first cause wins) under abortMu; abortCh is
	// closed alongside it, waking blocked collectives and the read
	// loops' deliveries.
	abortMu  sync.Mutex
	abortErr error
	abortCh  chan struct{}

	// peerErrs[p] is peer p's read-loop failure, delivered in-band:
	// peerFailC[p] is closed when it is set, and the drain reports it
	// only once inbox[p] is empty, so frames that arrived before the
	// failure still satisfy the collectives that expect them.
	peerErrMu sync.Mutex
	peerErrs  []error
	peerFailC []chan struct{}

	// batchMu guards batchQ, the FIFO of received async batches
	// (comm.BatchSender); batchC carries a single wake-up token to the
	// channel's (single) RecvBatch caller.
	batchMu sync.Mutex
	batchQ  []asyncBatch
	batchC  chan struct{}
}

// asyncBatch is one received point-to-point batch awaiting RecvBatch.
type asyncBatch struct {
	src     int
	payload []byte
}

// failPeer marks peer p's link to this channel failed (first cause
// wins).
func (c *Channel) failPeer(p int, err error) {
	c.peerErrMu.Lock()
	if c.peerErrs[p] == nil {
		c.peerErrs[p] = err
		close(c.peerFailC[p])
	}
	c.peerErrMu.Unlock()
}

// peerError returns peer p's recorded read failure, if any.
func (c *Channel) peerError(p int) error {
	c.peerErrMu.Lock()
	defer c.peerErrMu.Unlock()
	return c.peerErrs[p]
}

// ID returns the channel id.
func (c *Channel) ID() uint32 { return c.id }

// Rank implements comm.Transport.
func (c *Channel) Rank() int { return c.t.rank }

// Size implements comm.Transport.
func (c *Channel) Size() int { return c.t.size }

// poison marks the channel failed with err (first cause wins) and wakes
// every collective blocked on it.
func (c *Channel) poison(err error) {
	c.abortMu.Lock()
	if c.abortErr == nil {
		c.abortErr = err
		close(c.abortCh)
	}
	c.abortMu.Unlock()
}

// err returns the poison cause, if any.
func (c *Channel) err() error {
	c.abortMu.Lock()
	defer c.abortMu.Unlock()
	return c.abortErr
}

// Abort implements comm.Aborter with channel-level scope: the channel is
// poisoned locally with err, and a control frame carries the cause to
// every peer so their endpoints of this channel fail too — without
// touching any other channel on the mesh. Safe to call concurrently with
// the channel's collectives and more than once.
func (c *Channel) Abort(err error) {
	if err == nil {
		err = errors.New("tcptransport: channel aborted")
	}
	c.poison(fmt.Errorf("%w: %w", comm.ErrAborted, err))
	c.notifyAbort(err)
}

// Close implements comm.Transport with channel-level scope: the channel
// is poisoned (locally and on every peer) and must not be used again.
// The mesh and its other channels are unaffected; closing the root
// channel's Transport is the mesh-wide shutdown.
func (c *Channel) Close() error {
	c.poison(fmt.Errorf("%w: channel %d closed", comm.ErrAborted, c.id))
	c.notifyAbort(fmt.Errorf("channel %d closed by rank %d", c.id, c.t.rank))
	return nil
}

// notifyAbort sends the abort control frame to every peer, best-effort:
// on a closed or dying mesh the peers learn of the failure through the
// mesh's own death instead.
func (c *Channel) notifyAbort(cause error) {
	msg := []byte(cause.Error())
	if len(msg) > 1024 {
		msg = msg[:1024]
	}
	for p := range c.t.conns {
		if p == c.t.rank || c.t.conns[p] == nil {
			continue
		}
		var hdr [frameHeaderSize]byte
		binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(msg)))
		binary.LittleEndian.PutUint32(hdr[4:8], c.id|ctrlAbort)
		f := outFrame{bufs: net.Buffers{hdr[:], msg}}
		if err := c.t.enqueue(p, f); err != nil {
			return // mesh closed: nothing left to notify
		}
	}
}

// Exchange implements comm.Transport.
func (c *Channel) Exchange(out [][]byte) ([][]byte, error) {
	if len(out) != c.t.size {
		return nil, errors.New("tcptransport: Exchange buffer count != size")
	}
	for p, b := range out {
		c.wrapSeg[p][0] = b
		c.wrap[p] = c.wrapSeg[p][:]
	}
	return c.exchangeSegs(c.wrap)
}

// ExchangeV implements comm.GatherExchanger.
func (c *Channel) ExchangeV(out [][][]byte) ([][]byte, error) {
	if len(out) != c.t.size {
		return nil, errors.New("tcptransport: ExchangeV buffer count != size")
	}
	return c.exchangeSegs(out)
}

// recvBuf returns a payload buffer of length n, recycling the channel's
// per-peer free list when possible. An undersized pooled buffer goes
// back on the free list instead of being dropped: under mixed frame
// sizes (a big relax superstep followed by small allreduces) dropping it
// would bleed the pool down to nothing and put every later frame on the
// allocator.
func (c *Channel) recvBuf(p, n int) []byte {
	select {
	case b := <-c.recvFree[p]:
		if cap(b) >= n {
			return b[:n]
		}
		c.recycleRecv(p, b)
	default:
	}
	return make([]byte, n)
}

// recycleRecv returns a payload buffer to peer p's free list once its
// owner (the caller of the previous collective) has relinquished it.
func (c *Channel) recycleRecv(p int, b []byte) {
	if cap(b) == 0 {
		return
	}
	select {
	case c.recvFree[p] <- b[:0]:
	default:
	}
}

// exchangeSegs runs the all-to-all: enqueue one frame per peer on the
// shared writer goroutines, then drain this channel's inboxes while the
// writes proceed in the background, then collect the write errors (which
// also guarantees no writer still references the caller's segments when
// the collective returns — on every path, including aborts).
func (c *Channel) exchangeSegs(out [][][]byte) ([][]byte, error) {
	if err := c.err(); err != nil {
		return nil, err
	}
	for p, segs := range out {
		if p == c.t.rank {
			continue
		}
		total := 0
		for _, s := range segs {
			total += len(s)
		}
		if total > maxFrame {
			return nil, fmt.Errorf("tcptransport: buffer for rank %d exceeds frame limit", p)
		}
	}
	// Enqueue all sends. The header and segment list storage is per-peer
	// and reused; at most one frame per peer is in flight per collective
	// on this channel, and the writer completion is collected below
	// before returning, so the storage (and the caller's segments) are
	// never touched by a writer after this collective ends.
	sent := 0
	for p := range out {
		if p == c.t.rank || c.t.conns[p] == nil {
			continue
		}
		total := 0
		for _, s := range out[p] {
			total += len(s)
		}
		binary.LittleEndian.PutUint32(c.hdrs[p][0:4], uint32(total))
		binary.LittleEndian.PutUint32(c.hdrs[p][4:8], c.id)
		bufs := c.sendBufs[p][:0]
		bufs = append(bufs, c.hdrs[p][:])
		for _, s := range out[p] {
			if len(s) > 0 {
				bufs = append(bufs, s)
			}
		}
		c.sendBufs[p] = bufs
		if err := c.t.enqueue(p, outFrame{bufs: bufs, done: c.sendDone[p]}); err != nil {
			return nil, errors.Join(err, c.collectSends(p))
		}
		sent = p + 1
	}

	// Local delivery: zero-copy for a single segment, pooled
	// concatenation otherwise.
	self := out[c.t.rank]
	if len(self) == 1 {
		c.in[c.t.rank] = self[0]
	} else {
		buf := c.selfBuf[:0]
		for _, s := range self {
			buf = append(buf, s...)
		}
		c.selfBuf = buf
		c.in[c.t.rank] = buf
	}

	// Drain the inboxes. The previous collective's payloads are recycled
	// here: by calling into this collective the caller has relinquished
	// them, per the Transport ownership contract. The timer bounds the
	// whole drain — CollectiveTimeout is a budget for the collective, not
	// per peer.
	var timeoutC <-chan time.Time
	if c.t.timeout > 0 {
		timer := time.NewTimer(c.t.timeout)
		defer timer.Stop()
		timeoutC = timer.C
	}
	for p := range c.t.conns {
		if c.t.conns[p] == nil {
			continue
		}
		var f frame
		select {
		case f = <-c.inbox[p]:
		case <-c.peerFailC[p]:
			// Peer p's read loop died. Its frame for this collective may
			// still be sitting in the inbox (delivered before the
			// failure); only an empty inbox means the frame was lost.
			select {
			case f = <-c.inbox[p]:
			default:
				return nil, errors.Join(c.peerError(p), c.collectSends(sent))
			}
		case <-c.abortCh:
			// Channel-level failure (local or remote abort, mesh close).
			// The writers still hold this collective's frames; wait for
			// them so the caller regains ownership of its buffers.
			return nil, errors.Join(c.err(), c.collectSends(sent))
		case <-timeoutC:
			// A collective timeout is mesh death: the peer's frame for
			// this channel may be half-written on a socket shared by
			// every other channel, so nothing can resynchronize.
			recvErr := errors.Join(
				fmt.Errorf("tcptransport: collective timed out after %v waiting for rank %d", c.t.timeout, p),
				c.t.failConns())
			c.t.poisonAll(recvErr)
			return nil, errors.Join(recvErr, c.collectSends(sent))
		}
		c.recycleRecv(p, c.prevIn[p])
		c.prevIn[p] = f.payload
		c.in[p] = f.payload
	}

	// Collect the write completions; after this no writer references the
	// caller's segments.
	if err := c.collectSends(sent); err != nil {
		return nil, err
	}
	return c.in, nil
}

// collectSends waits for the write completions of this collective's
// frames to peers < limit, returning their joined errors. It must run on
// every exit path of exchangeSegs that enqueued frames: until the writer
// reports completion it may still reference the caller's segments, and
// returning early would let the caller (or a pooled successor reusing
// the same buffers) race it.
func (c *Channel) collectSends(limit int) error {
	var err error
	for p := 0; p < limit; p++ {
		if p == c.t.rank || c.t.conns[p] == nil {
			continue
		}
		select {
		case e := <-c.sendDone[p]:
			if e != nil {
				err = errors.Join(err, fmt.Errorf("tcptransport: send to rank %d: %w", p, e))
			}
		case <-c.t.quit:
			// Mesh closed under us: the writer goroutines are gone; no
			// write (and no late buffer access) can happen anymore.
			return errors.Join(err, errors.New("tcptransport: transport closed"))
		}
	}
	return err
}

// AllreduceInt64 implements comm.Transport as allgather + local reduce.
// All scratch (the encoded vector, the shared out row, the per-peer
// decode buffer) and the result are pooled on the channel; the result
// is valid until the channel's next collective (see comm.Transport).
func (c *Channel) AllreduceInt64(vals []int64, op comm.ReduceOp) ([]int64, error) {
	payload := c.reducePayload[:0]
	for _, v := range vals {
		payload = binary.LittleEndian.AppendUint64(payload, uint64(v))
	}
	c.reducePayload = payload
	if c.reduceOut == nil {
		c.reduceOut = make([][][]byte, c.t.size)
	}
	for p := range c.reduceOut {
		c.reduceOut[p] = c.reduceOut[p][:0]
		c.reduceOut[p] = append(c.reduceOut[p], payload)
	}
	in, err := c.exchangeSegs(c.reduceOut)
	if err != nil {
		return nil, err
	}
	res := append(c.reduceRes[:0], vals...)
	c.reduceRes = res
	if cap(c.reduceTmp) < len(vals) {
		c.reduceTmp = make([]int64, len(vals))
	}
	other := c.reduceTmp[:len(vals)]
	for p, buf := range in {
		if p == c.t.rank {
			continue
		}
		if len(buf) != 8*len(vals) {
			return nil, fmt.Errorf("tcptransport: Allreduce length mismatch from rank %d", p)
		}
		for i := range other {
			other[i] = int64(binary.LittleEndian.Uint64(buf[8*i:]))
		}
		op.Apply(res, other)
	}
	return res, nil
}

// Barrier implements comm.Transport.
func (c *Channel) Barrier() error {
	_, err := c.AllreduceInt64(nil, comm.Sum)
	return err
}

// ---- asynchronous batches ---------------------------------------------------

// pushBatch queues a received async batch for RecvBatch and wakes a
// blocked receiver. Called by the read loops.
func (c *Channel) pushBatch(src int, payload []byte) {
	c.batchMu.Lock()
	c.batchQ = append(c.batchQ, asyncBatch{src: src, payload: payload})
	c.batchMu.Unlock()
	select {
	case c.batchC <- struct{}{}:
	default:
	}
}

// popBatch removes the oldest queued batch, if any.
func (c *Channel) popBatch() (asyncBatch, bool) {
	c.batchMu.Lock()
	defer c.batchMu.Unlock()
	if len(c.batchQ) == 0 {
		return asyncBatch{}, false
	}
	m := c.batchQ[0]
	c.batchQ[0] = asyncBatch{}
	c.batchQ = c.batchQ[1:]
	if len(c.batchQ) == 0 {
		c.batchQ = nil // let the drained backing array go
	}
	return m, true
}

// SendBatch implements comm.BatchSender: the payload is copied into one
// freshly framed buffer and handed to the destination's writer goroutine
// fire-and-forget (async frame loss modes — a dead socket — already
// poison the mesh through the read loops, exactly as for abort control
// frames). Self-sends bypass the wire and land directly in the local
// queue.
func (c *Channel) SendBatch(dest int, payload []byte) error {
	if dest < 0 || dest >= c.t.size {
		return errors.New("tcptransport: SendBatch destination out of range")
	}
	if len(payload) > maxFrame {
		return fmt.Errorf("tcptransport: batch for rank %d exceeds frame limit", dest)
	}
	if err := c.err(); err != nil {
		return err
	}
	cp := make([]byte, len(payload))
	copy(cp, payload)
	if dest == c.t.rank {
		c.pushBatch(dest, cp)
		return nil
	}
	if c.t.conns[dest] == nil {
		return fmt.Errorf("tcptransport: no connection to rank %d", dest)
	}
	buf := make([]byte, frameHeaderSize, frameHeaderSize+len(cp))
	binary.LittleEndian.PutUint32(buf[0:4], uint32(len(cp)))
	binary.LittleEndian.PutUint32(buf[4:8], c.id|ctrlAsync)
	buf = append(buf, cp...)
	return c.t.enqueue(dest, outFrame{bufs: net.Buffers{buf}})
}

// RecvBatch implements comm.BatchSender: it pops the oldest pending
// batch, waiting up to wait for one to arrive (wait=0 polls). Batches
// that arrived before a channel failure are still delivered; once the
// queue is empty a poisoned channel reports its abort cause.
func (c *Channel) RecvBatch(wait time.Duration) (int, []byte, bool, error) {
	var timeoutC <-chan time.Time
	for {
		if m, ok := c.popBatch(); ok {
			return m.src, m.payload, true, nil
		}
		if err := c.err(); err != nil {
			return 0, nil, false, err
		}
		if wait <= 0 {
			return 0, nil, false, nil
		}
		if timeoutC == nil {
			timer := time.NewTimer(wait)
			defer timer.Stop()
			timeoutC = timer.C
		}
		select {
		case <-c.batchC:
			// Recheck the queue; the token may be stale.
		case <-c.abortCh:
			// Poisoned; the next iteration drains any batch that raced
			// ahead of the abort, then reports the cause.
		case <-timeoutC:
			return 0, nil, false, nil
		}
	}
}
