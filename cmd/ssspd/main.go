// Command ssspd is the multi-process distributed SSSP runner: each OS
// process is one rank of a TCP message-passing machine (the repo's MPI
// substitute). All ranks must be started with identical flags except
// -rank.
//
// Usage (two ranks on one host):
//
//	ssspd -rank 0 -addrs 127.0.0.1:9410,127.0.0.1:9411 -scale 12 &
//	ssspd -rank 1 -addrs 127.0.0.1:9410,127.0.0.1:9411 -scale 12
//
// Rank 0 gathers all distances at the end, prints the machine-wide
// statistics, and (with -verify) checks against sequential Dijkstra.
//
// With -serve the machine becomes a long-lived concurrent query server
// instead of a one-shot runner: the socket mesh carries -slots logical
// channels, each backing one pooled query slot on every rank
// (sssp.RankServer over tcptransport channels). Rank 0 accepts requests
// — one per line — on stdin and, with -serve-listen, on TCP
// connections:
//
//	17              query from source 17
//	U add 3 5 7     insert edge (3,5) with weight 7 (one new graph version)
//	U del 3 5       delete edge (3,5)
//	stats           report version, queue depth, shed count
//
// Each answer line reports the reached count, an FNV-1a checksum of the
// distance array, and the query time. Up to -slots queries are in
// flight at once; updates are serialized — applied to every slot, with
// finished trees repaired incrementally, before any later line runs. At
// most -queue requests wait for admission; excess lines get an
// immediate busy reply instead of backpressure. A failed query poisons
// only its slot, and the server keeps answering on the others.
package main

import (
	"bufio"
	"encoding/binary"
	"errors"
	"flag"
	"fmt"
	"hash/fnv"
	"io"
	"log"
	"net"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"parsssp/internal/comm"
	"parsssp/internal/comm/tcptransport"
	"parsssp/internal/graph"
	"parsssp/internal/partition"
	"parsssp/internal/rmat"
	"parsssp/internal/sssp"
	"parsssp/internal/validate"
)

func main() {
	log.SetFlags(0)
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

// run holds the whole daemon body so that the transport's deferred Close
// always executes. The previous shape — log.Fatal at each failure site in
// main — skipped the deferred Close on error, leaving peers to discover
// the death only through their own I/O timeouts; returning the error
// tears the mesh down first, which peers see immediately as closed
// connections.
func run() (err error) {
	var (
		rank        = flag.Int("rank", 0, "this process's rank")
		addrs       = flag.String("addrs", "127.0.0.1:9410,127.0.0.1:9411", "comma-separated host:port per rank")
		family      = flag.Int("family", 1, "R-MAT family (1 or 2)")
		scale       = flag.Int("scale", 12, "log2 vertex count")
		seed        = flag.Uint64("seed", 42, "graph seed (must match across ranks)")
		threads     = flag.Int("threads", 2, "worker threads per rank")
		policy      = flag.String("policy", "delta", "stepping policy: delta, radius or rho (must match across ranks)")
		delta       = flag.Uint("delta", 25, "bucket width Δ (policy delta)")
		radiusK     = flag.Int("radius-k", 0, "radius parameter k (policy radius; 0 = default)")
		rho         = flag.Int("rho", 0, "batch size ρ (policy rho; 0 = default)")
		root        = flag.Int("root", 0, "source vertex")
		verify      = flag.Bool("verify", false, "rank 0 checks distances against Dijkstra")
		dialTimeout = flag.Duration("dial-timeout", 10*time.Second,
			"bound on connection establishment to each peer (dial, accept, handshake)")
		collTimeout = flag.Duration("collective-timeout", 30*time.Second,
			"per-collective bound on peer I/O; a peer silent past this fails the run (0 disables)")
		execMode = flag.String("exec-mode", "bsp", "execution mode: bsp (lockstep phases) or async (barrier-free relaxation)")
		serve    = flag.Bool("serve", false, "serve concurrent queries instead of running one (-root is ignored)")
		slots    = flag.Int("slots", 4, "concurrent query slots in -serve mode")
		queueCap = flag.Int("queue", 64,
			"admission-queue bound in -serve mode; requests beyond it get an immediate busy reply")
		serveListen = flag.String("serve-listen", "",
			"rank 0 also accepts requests on this TCP address in -serve mode (one per line)")
		queryDeadline = flag.Duration("query-deadline", 0,
			"per-query bound in -serve mode: a query running past this poisons its slot only (0 disables)")
	)
	flag.Parse()
	log.SetPrefix(fmt.Sprintf("ssspd[%d]: ", *rank))

	addrList := strings.Split(*addrs, ",")
	for i := range addrList {
		addrList[i] = strings.TrimSpace(addrList[i])
	}

	// Every rank generates the same graph deterministically; in a real
	// deployment each rank would generate or load only its partition, but
	// the CSR is shared-read here for simplicity.
	p := rmat.Family1(*scale, *seed)
	if *family == 2 {
		p = rmat.Family2(*scale, *seed)
	}
	g, err := rmat.Generate(p)
	if err != nil {
		return err
	}

	meshTimeout := *collTimeout
	if *serve {
		// A serving machine is idle between queries, and idleness is
		// indistinguishable from a stalled peer at the transport level: the
		// non-zero ranks wait in a source broadcast until rank 0 has a
		// query to hand out. A collective timeout would shoot down the
		// whole mesh after -collective-timeout of quiet, so serve mode runs
		// without one; stall detection is -query-deadline, which is scoped
		// to one query on one slot channel and poisons only that slot.
		meshTimeout = 0
	}
	t, err := tcptransport.New(tcptransport.Config{
		Addrs:             addrList,
		Rank:              *rank,
		DialTimeout:       *dialTimeout,
		CollectiveTimeout: meshTimeout,
	})
	if err != nil {
		return err
	}
	defer func() {
		err = errors.Join(err, t.Close())
	}()

	pd, err := partition.New(partition.Block, g.NumVertices(), len(addrList))
	if err != nil {
		return err
	}
	// The policy (like every flag but -rank) must be identical across
	// ranks: it shapes the collective schedule. The non-Δ presets carry
	// none of the Δ-only heuristics (Options.Validate rejects those).
	pol, err := sssp.ParseSteppingPolicy(*policy)
	if err != nil {
		return err
	}
	var opts sssp.Options
	switch pol {
	case sssp.PolicyRadius:
		opts = sssp.RadiusSteppingOptions(*radiusK)
	case sssp.PolicyRho:
		opts = sssp.RhoSteppingOptions(*rho)
	default:
		opts = sssp.OptOptions(graph.Weight(*delta))
	}
	opts.Threads = *threads
	opts.ExecMode, err = sssp.ParseExecMode(*execMode)
	if err != nil {
		return err
	}

	if *serve {
		return runServe(t, g, pd, opts, *slots, *queueCap, *serveListen, *queryDeadline)
	}

	rr, err := sssp.RunRank(g, pd, graph.Vertex(*root), opts, t, 0)
	if err != nil {
		return err
	}
	log.Printf("done: %v, %d local relaxations",
		rr.Stats.Total, rr.Stats.Relax.Total())

	dist, err := gatherDistances(t, pd, rr)
	if err != nil {
		return err
	}
	if t.Rank() == 0 {
		var reached int64
		for _, d := range dist {
			if d < graph.Inf {
				reached++
			}
		}
		fmt.Printf("machine: %d ranks, graph %d vertices / %d edges\n",
			t.Size(), g.NumVertices(), g.NumEdges())
		fmt.Printf("time %v, GTEPS %.4f, reached %d\n",
			rr.Stats.Total, rr.Stats.GTEPS(g.NumEdges()), reached)
		if *verify {
			if err := validate.Distances(g, graph.Vertex(*root), dist); err != nil {
				return err
			}
			fmt.Println("verify: distances match sequential Dijkstra")
		}
	}
	return nil
}

// serveReq is one admitted query: a source vertex and where its answer
// line goes.
type serveReq struct {
	src   graph.Vertex
	reply func(string)
}

// serveCmd is one parsed input line bound for the dispatcher: a query
// source or an update batch.
type serveCmd struct {
	update bool
	batch  sssp.UpdateBatch
	src    graph.Vertex
	reply  func(string)
}

// updateCmd is one update broadcast to a slot worker: the version it
// produces, the wire-encoded batch rank 0 ships to its peers, and the
// ack the dispatcher waits on before touching the next slot or line.
type updateCmd struct {
	target uint64
	enc    []byte
	ack    chan error
}

// admission is rank 0's bounded intake: lines wait in the buffered
// channel for the dispatcher; when it is full the request is shed with
// an immediate busy reply instead of blocking the reader.
type admission struct {
	lines   chan serveCmd
	shed    atomic.Int64
	g       *graph.Graph
	policy  string
	version func() uint64
}

// admit queues one command, shedding it with a busy reply when the
// queue is full.
func (a *admission) admit(cmd serveCmd) {
	select {
	case a.lines <- cmd:
	default:
		a.shed.Add(1)
		cmd.reply("busy: admission queue full")
	}
}

// statsLine reports the serving state: the current graph version, the
// active stepping policy with its resolved parameter (e.g. delta(25),
// radius(32)), and the admission queue's depth and shed count.
func (a *admission) statsLine() string {
	return fmt.Sprintf("stats version=%d policy=%s queued=%d shed=%d",
		a.version(), a.policy, len(a.lines), a.shed.Load())
}

// printer serializes answer lines from concurrent slot workers.
type printer struct {
	mu sync.Mutex
	w  io.Writer
}

func (p *printer) println(line string) {
	p.mu.Lock()
	fmt.Fprintln(p.w, line)
	p.mu.Unlock()
}

// runServe is the -serve mode body, executed by every rank. The mesh is
// split into `slots` logical channels; each backs one sssp.RankServer
// slot on every rank, so up to `slots` queries run concurrently with
// per-slot failure isolation. Rank 0 is the front end: it admits
// requests from stdin (and -serve-listen connections) through a bounded
// queue, dispatches queries to whichever slot frees up first and
// updates to every slot in turn, and writes the answer lines; the other
// ranks' workers are driven entirely by the per-slot broadcasts.
//
// Per-slot protocol, in lockstep on every rank: (1) a [code, arg]
// Allreduce(Max) where rank 0 contributes the operation and everyone
// else zeros — code 0 is shutdown, code 1 a query (arg = source), code
// 2 an update (arg = target graph version); (2) the operation's body —
// for a query, the run and the distance gather to rank 0; for an
// update, an Exchange broadcasting rank 0's wire-encoded batch, then
// sssp.RankServer.ApplyUpdates (graph rebuilt once per process,
// finished trees repaired incrementally). An error ends that slot's
// workers everywhere (the abort poisons the slot's channel on every
// rank) and is reported to the caller whose request failed; the
// remaining slots keep serving. Shutdown is stdin EOF: each worker the
// dispatcher releases broadcasts the sentinel, and the process exits
// when every slot's worker has.
func runServe(t *tcptransport.Transport, g *graph.Graph, pd partition.Dist,
	opts sssp.Options, slots, queueCap int, listenAddr string, queryDeadline time.Duration) error {
	if slots < 1 {
		return fmt.Errorf("ssspd: -slots must be >= 1, got %d", slots)
	}
	if queueCap < 1 {
		return fmt.Errorf("ssspd: -queue must be >= 1, got %d", queueCap)
	}
	chans := make([]comm.Transport, slots)
	for s := 0; s < slots; s++ {
		ch, err := t.Channel(uint32(s + 1)) // channel 0 stays the root transport's
		if err != nil {
			return err
		}
		chans[s] = ch
	}
	server, err := sssp.NewRankServer(g, pd, opts, chans)
	if err != nil {
		return err
	}
	defer func() {
		server.Close()
	}()
	rank0 := t.Rank() == 0

	out := &printer{w: os.Stdout}
	var reqs chan serveReq
	var updChs []chan updateCmd
	done := make([]chan struct{}, slots) // done[s] closes when slot s's worker returns
	for s := range done {
		done[s] = make(chan struct{})
	}
	allDead := make(chan struct{})

	if rank0 {
		reqs = make(chan serveReq)
		updChs = make([]chan updateCmd, slots)
		for s := range updChs {
			updChs[s] = make(chan updateCmd)
		}
		adm := &admission{
			lines:   make(chan serveCmd, queueCap),
			g:       g,
			policy:  opts.PolicyString(),
			version: server.Version,
		}
		stdin, restore := pollableStdin()
		defer restore()
		var intake sync.WaitGroup
		intake.Add(1)
		go func() {
			defer intake.Done()
			admitRequests(stdin, adm, out.println)
		}()
		if listenAddr != "" {
			ln, lerr := net.Listen("tcp", listenAddr)
			if lerr != nil {
				return lerr
			}
			log.Printf("serving on %s", ln.Addr())
			// The listener intake never finishes on its own; with
			// -serve-listen the server runs until the process is killed.
			intake.Add(1)
			go func() {
				defer intake.Done()
				for {
					conn, aerr := ln.Accept()
					if aerr != nil {
						return
					}
					go func(conn net.Conn) {
						defer conn.Close()
						connOut := &printer{w: conn}
						admitRequests(conn, adm, connOut.println)
					}(conn)
				}
			}()
		}
		go func() {
			intake.Wait()
			close(adm.lines)
		}()
		go dispatch(adm.lines, reqs, updChs, done, allDead)
	}

	workerErrs := make([]error, slots)
	var wg sync.WaitGroup
	var live atomic.Int64
	live.Store(int64(slots))
	for s := 0; s < slots; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			var upd chan updateCmd
			if rank0 {
				upd = updChs[s]
			}
			workerErrs[s] = slotWorker(s, chans[s], server, g, pd, rank0, reqs, upd, out, queryDeadline)
			close(done[s])
			if live.Add(-1) == 0 {
				close(allDead)
			}
		}(s)
	}
	wg.Wait()
	if rank0 {
		// Every slot is gone (all failed, or shutdown won the race);
		// queries the dispatcher still forwards get an immediate refusal
		// through allDead, and the dispatcher drains until the intakes
		// close the queue.
		for req := range reqs {
			req.reply(fmt.Sprintf("error src=%d: no live query slots", req.src))
		}
	}
	return errors.Join(workerErrs...)
}

// dispatch serializes rank 0's admitted lines. Queries are handed to
// whichever slot's worker frees up first; an update is applied — and
// acknowledged — on every live slot before any later line is forwarded,
// so every subsequent query runs on the updated graph.
//
// Consecutive queued update lines are coalesced into one batch and one
// graph version before applying: each U line still costs a broadcast and
// an incremental repair on every slot, so a burst of updates admitted
// while an earlier one was being applied would otherwise pay that
// per-slot cost once per line. Coalescing stops at the first queued
// query, which keeps the serialized semantics exact — a query admitted
// between two updates still runs on a graph with only the earlier one
// applied. Every merged line is answered with the shared version it
// landed in. Closing reqs at the end releases the idle workers into
// their shutdown broadcast.
func dispatch(lines <-chan serveCmd, reqs chan<- serveReq,
	upd []chan updateCmd, done []chan struct{}, allDead <-chan struct{}) {
	version := uint64(0)
	forward := func(cmd serveCmd) {
		select {
		case reqs <- serveReq{src: cmd.src, reply: cmd.reply}:
		case <-allDead:
			cmd.reply(fmt.Sprintf("error src=%d: no live query slots", cmd.src))
		}
	}
	for cmd := range lines {
		if !cmd.update {
			forward(cmd)
			continue
		}
		batch := cmd.batch
		replies := []func(string){cmd.reply}
		var next *serveCmd
	coalesce:
		for {
			select {
			case nxt, ok := <-lines:
				if !ok {
					break coalesce
				}
				if !nxt.update {
					next = &nxt
					break coalesce
				}
				batch = append(append(sssp.UpdateBatch(nil), batch...), nxt.batch...)
				replies = append(replies, nxt.reply)
			default:
				break coalesce
			}
		}
		version++
		uc := updateCmd{
			target: version,
			enc:    sssp.EncodeUpdateBatch(batch),
			ack:    make(chan error, 1),
		}
		applied := 0
		var failures []string
		for s := range upd {
			select {
			case upd[s] <- uc:
			case <-done[s]:
				continue
			}
			if err := <-uc.ack; err != nil {
				failures = append(failures, fmt.Sprintf("slot %d: %v", s, err))
			} else {
				applied++
			}
		}
		var line string
		switch {
		case len(failures) > 0:
			line = fmt.Sprintf("error update version=%d: %s", version, strings.Join(failures, "; "))
		case applied == 0:
			line = fmt.Sprintf("error update version=%d: no live query slots", version)
		default:
			line = fmt.Sprintf("updated version=%d ops=%d slots=%d merged=%d",
				version, len(batch), applied, len(replies))
		}
		for _, reply := range replies {
			reply(line)
		}
		if next != nil {
			forward(*next)
		}
	}
	close(reqs)
}

// pollStdin is the netpoller-backed file over fd 0 while the server
// reads requests from it. It must stay reachable: the finalizer of an
// unreachable *os.File would close fd 0.
var pollStdin *os.File

// pollableStdin returns the reader rank 0's intake takes requests from,
// and a function that undoes what it changed. When stdin is a pipe or a
// socket it switches fd 0 to non-blocking mode and hands back a file the
// runtime's netpoller backs: a read with nothing to read then parks the
// intake goroutine instead of blocking its thread in read(2). Each
// server rank runs on one CPU (GOMAXPROCS=1), and a thread blocked in a
// syscall keeps the process's only P until the runtime's monitor
// retakes it — meanwhile the slot workers the network wakes wait, which
// showed as 13–22 ms stalls of queries that otherwise take 2 ms. Other
// kinds of stdin (a terminal, a regular file) are returned as they are.
func pollableStdin() (io.Reader, func()) {
	if f, restore, ok := pollable(0, "stdin"); ok {
		pollStdin = f
		return f, restore
	}
	return os.Stdin, func() {}
}

// admitRequests parses request lines off r, answering malformed lines
// and stats requests directly and queueing the rest through the bounded
// admission queue (see serveCmd for the grammar).
func admitRequests(r io.Reader, adm *admission, reply func(string)) {
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if strings.EqualFold(line, "stats") {
			reply(adm.statsLine())
			continue
		}
		fields := strings.Fields(line)
		if strings.EqualFold(fields[0], "U") {
			batch, err := parseUpdate(fields[1:], adm.g.NumVertices())
			if err != nil {
				reply(fmt.Sprintf("error: bad update %q: %v", line, err))
				continue
			}
			adm.admit(serveCmd{update: true, batch: batch, reply: reply})
			continue
		}
		src, err := strconv.ParseUint(line, 10, 32)
		if err != nil || int(src) >= adm.g.NumVertices() {
			reply(fmt.Sprintf("error: bad source %q", line))
			continue
		}
		adm.admit(serveCmd{src: graph.Vertex(src), reply: reply})
	}
}

// parseUpdate parses the fields after the leading "U" of an update
// line: "add u v w" inserts edge (u,v) with weight w, "del u v"
// deletes edge (u,v). The batch is validated against the vertex count
// before it is admitted, so a bad update is refused at the front door.
func parseUpdate(fields []string, n int) (sssp.UpdateBatch, error) {
	uintField := func(s string) (uint64, error) {
		v, err := strconv.ParseUint(s, 10, 32)
		if err != nil {
			return 0, fmt.Errorf("bad number %q", s)
		}
		return v, nil
	}
	if len(fields) == 0 {
		return nil, errors.New("missing op (add or del)")
	}
	var rec sssp.EdgeUpdate
	var nargs int
	switch {
	case strings.EqualFold(fields[0], "add"):
		rec.Op, nargs = sssp.OpInsert, 3
	case strings.EqualFold(fields[0], "del"):
		rec.Op, nargs = sssp.OpDelete, 2
	default:
		return nil, fmt.Errorf("unknown op %q (want add or del)", fields[0])
	}
	if len(fields)-1 != nargs {
		return nil, fmt.Errorf("%s takes %d arguments, got %d", strings.ToLower(fields[0]), nargs, len(fields)-1)
	}
	u, err := uintField(fields[1])
	if err != nil {
		return nil, err
	}
	v, err := uintField(fields[2])
	if err != nil {
		return nil, err
	}
	rec.U, rec.V = graph.Vertex(u), graph.Vertex(v)
	if rec.Op == sssp.OpInsert {
		w, err := uintField(fields[3])
		if err != nil {
			return nil, err
		}
		rec.W = graph.Weight(w)
	}
	batch := sssp.UpdateBatch{rec}
	if err := batch.Validate(n); err != nil {
		return nil, err
	}
	return batch, nil
}

// Slot-protocol operation codes; see runServe.
const (
	opShutdown = 0
	opQuery    = 1
	opUpdate   = 2
)

// slotWorker drives one slot's lockstep loop; see runServe for the
// protocol. Returns nil on clean shutdown and the slot-killing error
// otherwise (on the rank whose caller was answered in-band — rank 0 —
// the worker returns nil).
func slotWorker(s int, ch comm.Transport, server *sssp.RankServer, g *graph.Graph,
	pd partition.Dist, rank0 bool, reqs <-chan serveReq, updIn <-chan updateCmd, out *printer,
	queryDeadline time.Duration) error {
	for {
		contrib := [2]int64{opShutdown, 0}
		var req serveReq
		var upd updateCmd
		var admitted, isUpdate bool
		if rank0 {
			select {
			case upd, isUpdate = <-updIn:
				contrib = [2]int64{opUpdate, int64(upd.target)}
			case req, admitted = <-reqs:
				if admitted {
					contrib = [2]int64{opQuery, int64(req.src)}
				}
			}
		}
		vals, err := ch.AllreduceInt64(contrib[:], comm.Max)
		if err != nil {
			switch {
			case isUpdate:
				upd.ack <- err
				return nil
			case admitted:
				req.reply(fmt.Sprintf("error src=%d: %v", req.src, err))
				return nil
			default:
				return fmt.Errorf("slot %d: request broadcast: %w", s, err)
			}
		}

		switch vals[0] {
		case opShutdown:
			return nil

		case opQuery:
			src := graph.Vertex(vals[1])
			// Arm the per-query deadline: every rank bounds its own
			// participation in this one query on this one channel, so an
			// expiry poisons exactly this slot (the abort rides the slot's
			// channel) while the other slots keep serving. The timer is
			// disarmed the moment this rank's part of the answer is done —
			// the mesh-wide CollectiveTimeout stays off in serve mode (see
			// run), so idle waiting never trips anything.
			var deadline *time.Timer
			if queryDeadline > 0 {
				deadline = time.AfterFunc(queryDeadline, func() {
					comm.Abort(ch, fmt.Errorf("slot %d: query src=%d exceeded deadline %v", s, src, queryDeadline))
				})
			}
			rr, err := server.Query(s, src)
			if err == nil {
				var dist []graph.Dist
				dist, err = gatherDistances(ch, pd, rr)
				if err == nil && rank0 {
					var reached int64
					h := fnv.New64a()
					var buf [8]byte
					for _, d := range dist {
						if d < graph.Inf {
							reached++
						}
						binary.LittleEndian.PutUint64(buf[:], uint64(d))
						h.Write(buf[:])
					}
					req.reply(fmt.Sprintf("answer src=%d reached=%d checksum=%016x time=%v",
						src, reached, h.Sum64(), rr.Stats.Total))
				}
			}
			if deadline != nil {
				deadline.Stop()
			}
			if err != nil {
				if admitted {
					req.reply(fmt.Sprintf("error src=%d: %v", src, err))
					return nil
				}
				return fmt.Errorf("slot %d: query src=%d: %w", s, src, err)
			}

		case opUpdate:
			target := uint64(vals[1])
			err := applyUpdate(s, ch, server, g, target, upd.enc, rank0)
			if isUpdate { // rank 0: ack the dispatcher either way
				upd.ack <- err
				if err != nil {
					return nil
				}
			} else if err != nil {
				return fmt.Errorf("slot %d: update to version %d: %w", s, target, err)
			}

		default:
			err := fmt.Errorf("slot %d: protocol code %d", s, vals[0])
			comm.Abort(ch, err)
			return err
		}
	}
}

// applyUpdate runs the update body of the slot protocol: rank 0
// broadcasts the wire-encoded batch over the slot's channel, every rank
// decodes it (a damaged batch fails whole, applying nothing) and moves
// its slot to the target version, repairing its finished tree
// incrementally. Any failure aborts the slot's channel so no peer hangs
// in the collective.
func applyUpdate(s int, ch comm.Transport, server *sssp.RankServer,
	g *graph.Graph, target uint64, enc []byte, rank0 bool) error {
	bufs := make([][]byte, ch.Size())
	if rank0 {
		for d := range bufs {
			bufs[d] = enc
		}
	}
	in, err := ch.Exchange(bufs)
	if err != nil {
		return err
	}
	batch, err := sssp.DecodeUpdateBatch(in[0], g.NumVertices())
	if err != nil {
		err = fmt.Errorf("update batch from rank 0: %w", err)
		comm.Abort(ch, err)
		return err
	}
	if _, err := server.ApplyUpdates(s, target, batch); err != nil {
		// ApplyUpdates aborts on repair failures; abort again for the
		// pre-collective refusals (version skew) so peers never hang.
		comm.Abort(ch, err)
		return err
	}
	return nil
}

// gatherDistances sends every rank's local distances to rank 0, which
// assembles the global array (other ranks return nil).
func gatherDistances(t comm.Transport, pd partition.Dist, rr *sssp.RankResult) ([]graph.Dist, error) {
	payload := make([]byte, 8*len(rr.LocalDist))
	for i, d := range rr.LocalDist {
		binary.LittleEndian.PutUint64(payload[8*i:], uint64(d))
	}
	out := make([][]byte, t.Size())
	out[0] = payload
	in, err := t.Exchange(out)
	if err != nil {
		return nil, err
	}
	if t.Rank() != 0 {
		return nil, nil
	}
	dist := make([]graph.Dist, pd.NumVertices())
	for r, buf := range in {
		n := pd.Count(r)
		if len(buf) != 8*n {
			return nil, fmt.Errorf("gather: rank %d sent %d bytes, want %d", r, len(buf), 8*n)
		}
		for li := 0; li < n; li++ {
			dist[pd.Global(r, li)] = graph.Dist(binary.LittleEndian.Uint64(buf[8*li:]))
		}
	}
	return dist, nil
}
