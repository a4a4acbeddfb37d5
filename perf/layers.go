//go:build linux

package main

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"parsssp"
	"parsssp/internal/comm"
	"parsssp/internal/comm/memtransport"
	"parsssp/internal/comm/tcptransport"
	"parsssp/internal/partition"
	"parsssp/internal/sssp"
)

// The per-layer run (`-trace 1`). The workload's op stream is replayed
// in this process through the modules' public constructors, once with
// every rank's transport wrapped by a tracedTransport and once bare; the
// difference between the two is the tracing overhead. Beside the replay
// sit micro-measurements of single layers (a CSR sweep, a transport
// ping-pong, the update codec) and, for a serve workload, a short run
// against the real mesh for the numbers only the server has.

// variantQueries is how many queries time a non-default engine variant.
const variantQueries = 32

// counters are the engine's counts over one pass of a stream. They
// depend on the seed and the code only — never on timing — so they must
// repeat exactly from pass to pass and from the traced replay to the
// bare one.
type counters struct {
	queries, updates                      int64
	relax, phases, epochs                 int64
	exchanges, allreduces, bytes, records int64 // summed over ranks
	invalidated                           int64 // vertices the repairs reset
}

// replay is what one in-process replay of a stream measured.
type replay struct {
	rec     *recorder
	passes  []counters // per measured pass of the window
	updates counters   // the updates the metrics describe: the window's, or the idle stream's
	// Per query, from the traced transports: time inside transport
	// calls, mean and max over the ranks, ms.
	blockedMean, blockedMax []float64
	calls                   int64         // transport calls under queries, all ranks
	busy                    time.Duration // and the time inside them
	bkt, total              time.Duration // summed Stats.BktTime / Stats.Total
	imbalance               []float64
	repairMS                []float64
	meshUpMS, planeBuildMS  float64
	mallocs, allocBytes     uint64 // over the window
}

// newTransports builds the workload's machine fabric inside this
// process: a loopback TCP mesh for a serve workload, shared memory for
// the library one.
func newTransports(w workload) ([]comm.Transport, error) {
	if !w.serve {
		group, err := memtransport.New(numRanks)
		if err != nil {
			return nil, err
		}
		return group.Endpoints(), nil
	}
	addrs, err := freeAddrs(numRanks)
	if err != nil {
		return nil, err
	}
	ts := make([]comm.Transport, numRanks)
	errs := make([]error, numRanks)
	var wg sync.WaitGroup
	for r := range ts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			t, err := tcptransport.New(tcptransport.Config{Addrs: addrs, Rank: r, DialTimeout: 5 * time.Second})
			if err != nil {
				errs[r] = err
				return
			}
			ts[r] = t
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, errors.Join(err, closeAll(ts))
	}
	return ts, nil
}

func closeAll(ts []comm.Transport) error {
	var err error
	for _, t := range ts {
		if t != nil {
			err = errors.Join(err, t.Close())
		}
	}
	return err
}

// machine is an in-process machine over fresh transports.
type machine struct {
	*parsssp.Machine
	traced                 []*tracedTransport // the ranks' transports when tracing
	meshUpMS, planeBuildMS float64
}

// newMachine builds a machine with the given options in the workload's
// fabric, every rank's transport traced when tr is set.
func newMachine(w workload, in *inputs, opts parsssp.Options, tr *tracer) (*machine, error) {
	m := &machine{}
	start := time.Now()
	ts, err := newTransports(w)
	if err != nil {
		return nil, err
	}
	m.meshUpMS = ms(time.Since(start))
	if tr != nil {
		for r, t := range ts {
			tt, err := newTracedTransport(t, tr)
			if err != nil {
				return nil, errors.Join(err, closeAll(ts))
			}
			m.traced = append(m.traced, tt)
			ts[r] = tt
		}
	}
	pd, err := partition.New(partition.Block, in.g.NumVertices(), numRanks)
	if err != nil {
		return nil, errors.Join(err, closeAll(ts))
	}
	start = time.Now()
	if m.Machine, err = sssp.NewMachineWithTransports(in.g, pd, opts, ts); err != nil {
		return nil, errors.Join(err, closeAll(ts))
	}
	m.planeBuildMS = ms(time.Since(start))
	return m, nil
}

// runReplay replays the workload's stream on an in-process machine: a
// warm-up pass, whole passes until seconds have elapsed, and on a
// workload without updates in its stream the idle update stream.
func runReplay(w workload, in *inputs, seconds float64, tr *tracer) (rp *replay, err error) {
	m, err := newMachine(w, in, options(), tr)
	if err != nil {
		return nil, err
	}
	defer func() { err = errors.Join(err, m.Close()) }()
	rp = &replay{meshUpMS: m.meshUpMS, planeBuildMS: m.planeBuildMS}

	var repair *parsssp.RepairStats
	tgt := target{
		query: m.Query,
		update: func(b parsssp.UpdateBatch) (res *parsssp.Result, err error) {
			res, repair, err = m.ApplyUpdates(b)
			return res, err
		},
	}
	pass := passOps(w)
	exp := newExpected(in)
	warm := newRecorder(exp)
	if err := tgt.run(in, pass, warm); err != nil {
		return nil, err
	}

	var cur *counters
	var closeSpan func()
	busy := make([]time.Duration, len(m.traced)) // per rank, at the start of the operation
	var calls int64
	tgt.before = func(o op) {
		calls = 0
		for r, t := range m.traced {
			busy[r] = t.busy
			calls -= t.calls
		}
		if tr != nil {
			name := "query"
			if o.kind != opQuery {
				name = "update"
			}
			closeSpan = tr.begin(name)
		}
	}
	tgt.after = func(o op, res *parsssp.Result, took time.Duration) {
		if tr != nil {
			closeSpan()
		}
		if o.kind != opQuery {
			cur.updates++
			if repair != nil {
				cur.invalidated += repair.Invalidated
			}
			rp.repairMS = append(rp.repairMS, ms(took))
			return
		}
		if res == nil || cur == &rp.updates {
			return // a failed query (run returns its error), or one of the idle update stream's
		}
		st := &res.Stats
		cur.queries++
		cur.relax += st.Relax.Total()
		cur.phases += st.Phases
		cur.epochs += st.Epochs
		cur.exchanges += st.Traffic.ExchangeCalls
		cur.allreduces += st.Traffic.AllreduceCalls
		cur.bytes += st.Traffic.BytesSent
		cur.records += st.Traffic.RecordsSent
		rp.bkt += st.BktTime
		rp.total += st.Total
		rp.imbalance = append(rp.imbalance, st.Imbalance())
		if tr == nil {
			return
		}
		var sum, max time.Duration
		for r, t := range m.traced {
			d := t.busy - busy[r]
			sum += d
			if d > max {
				max = d
			}
			calls += t.calls
		}
		rp.busy += sum
		rp.calls += calls
		rp.blockedMean = append(rp.blockedMean, ms(sum)/numRanks)
		rp.blockedMax = append(rp.blockedMax, ms(max))
	}

	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	rp.rec = newRecorder(exp)
	for start := time.Now(); time.Since(start).Seconds() < seconds; {
		rp.passes = append(rp.passes, counters{})
		cur = &rp.passes[len(rp.passes)-1]
		if err := tgt.run(in, pass, rp.rec); err != nil {
			return nil, err
		}
	}
	runtime.ReadMemStats(&ms1)
	rp.mallocs, rp.allocBytes = ms1.Mallocs-ms0.Mallocs, ms1.TotalAlloc-ms0.TotalAlloc

	if w.mixed {
		rp.updates = rp.passes[0] // every pass counted the same updates
	} else {
		cur = &rp.updates
		idle := newRecorder(exp)
		if err := tgt.run(in, updateOps(), idle); err != nil {
			return nil, err
		}
		rp.rec.acks = idle.acks
		rp.rec.attempted += idle.attempted
		rp.rec.failed += idle.failed
	}
	rp.rec.attempted += warm.attempted
	rp.rec.failed += warm.failed
	return rp, nil
}

// variantMS is the median query time of an engine variant, in the
// workload's fabric, every answer checked.
func variantMS(w workload, in *inputs, opts parsssp.Options) (med float64, err error) {
	opts.Threads = 1
	m, err := newMachine(w, in, opts, nil)
	if err != nil {
		return 0, err
	}
	defer func() { err = errors.Join(err, m.Close()) }()
	var times []float64
	for i := 0; i < variantQueries; i++ {
		start := time.Now()
		res, err := m.Query(in.roots[i%numRoots])
		if err != nil {
			return 0, err
		}
		times = append(times, ms(time.Since(start)))
		if sum, _ := checksum(res.Dist); sum != in.sums[i%numRoots] {
			return 0, fmt.Errorf("%s: src=%d checksum %016x, oracle %016x", opts.PolicyString(), in.roots[i%numRoots], sum, in.sums[i%numRoots])
		}
	}
	return median(times), nil
}

// exchangeRounds times rounds lockstep Exchange calls in which every
// rank sends payload bytes to every other.
func exchangeRounds(ts []comm.Transport, rounds, payload int) (time.Duration, error) {
	errs := make([]error, len(ts))
	var wg sync.WaitGroup
	start := time.Now()
	for r, t := range ts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out := make([][]byte, len(ts))
			for p := range out {
				if p != r {
					out[p] = make([]byte, payload)
				}
			}
			for i := 0; i < rounds; i++ {
				if _, err := t.Exchange(out); err != nil {
					errs[r] = err
					comm.Abort(t, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	return time.Since(start), errors.Join(errs...)
}

// transportMicro measures the fabric alone: the latency of an empty
// Exchange on both transports and the loopback TCP stream rate.
func transportMicro() (tcpPingUS, tcpStreamMBs, memPingUS float64, err error) {
	const pings, streamRounds, streamBytes = 1000, 48, 1 << 20
	tcp, err := newTransports(workload{serve: true})
	if err != nil {
		return 0, 0, 0, err
	}
	defer func() { err = errors.Join(err, closeAll(tcp)) }()
	d, err := exchangeRounds(tcp, pings, 0)
	if err != nil {
		return 0, 0, 0, err
	}
	tcpPingUS = float64(d.Microseconds()) / pings
	if d, err = exchangeRounds(tcp, streamRounds, streamBytes); err != nil {
		return 0, 0, 0, err
	}
	tcpStreamMBs = float64(streamRounds*streamBytes) / 1e6 / d.Seconds() // per direction

	mem, err := newTransports(workload{})
	if err != nil {
		return 0, 0, 0, err
	}
	if d, err = exchangeRounds(mem, pings, 0); err != nil {
		return 0, 0, 0, err
	}
	return tcpPingUS, tcpStreamMBs, float64(d.Microseconds()) / pings, closeAll(mem)
}

// scanSink keeps the sweep's result live.
var scanSink uint64

// scanNS is the median time of a full Neighbors sweep over g per
// adjacency entry: 8 computed bytes each (a 4-byte vertex and a 4-byte
// weight), plus the 8-byte row offset per vertex.
func scanNS(g *parsssp.Graph) float64 {
	var sweeps []float64
	for rep := 0; rep < 7; rep++ {
		var acc uint64
		var entries int
		start := time.Now()
		for v := 0; v < g.NumVertices(); v++ {
			adj, wts := g.Neighbors(parsssp.Vertex(v))
			for i := range adj {
				acc += uint64(adj[i]) + uint64(wts[i])
			}
			entries += len(adj)
		}
		sweeps = append(sweeps, float64(time.Since(start).Nanoseconds())/float64(entries))
		scanSink += acc
	}
	return median(sweeps)
}

// graphMicro measures the graph layer's share of an update: the time of
// one Patched call per half-burst, and how much slower a sweep runs on
// the overlay-carrying graph a mixed stream queries than on the base.
func graphMicro(w workload, in *inputs) (scan, overlayRatio, patchedMS float64, err error) {
	scan = scanNS(in.g)
	cur := in.g
	var times []float64
	mixedPass := passOps(workload{mixed: true})
	for _, o := range append(mixedPass, mixedPass[:3]...) { // a whole pass, then up to the next insert
		if o.kind == opQuery {
			continue
		}
		var dels, ins []parsssp.Edge
		if o.kind == opAdd {
			ins = in.bursts[o.idx]
		} else {
			dels = in.bursts[o.idx]
		}
		start := time.Now()
		if cur, err = cur.Patched(dels, ins); err != nil {
			return 0, 0, 0, err
		}
		times = append(times, ms(time.Since(start)))
	}
	overlayRatio = 1
	if w.mixed {
		overlayRatio = scanNS(cur) / scan
	}
	return scan, overlayRatio, median(times), nil
}

// codecUS is the time to encode and decode one half-burst on the update
// wire codec, µs.
func codecUS(in *inputs) (float64, error) {
	const rounds = 2000
	b := in.batch(op{opAdd, 0})
	start := time.Now()
	for i := 0; i < rounds; i++ {
		if _, err := sssp.DecodeUpdateBatch(sssp.EncodeUpdateBatch(b), in.g.NumVertices()); err != nil {
			return 0, err
		}
	}
	return float64(time.Since(start).Nanoseconds()) / 1e3 / rounds, nil
}

// edgeCut is the fraction of edges whose endpoints the block partition
// puts on different ranks.
func edgeCut(g *parsssp.Graph) (float64, error) {
	pd, err := partition.New(partition.Block, g.NumVertices(), numRanks)
	if err != nil {
		return 0, err
	}
	var cut int64
	for v := 0; v < g.NumVertices(); v++ {
		adj, _ := g.Neighbors(parsssp.Vertex(v))
		for _, u := range adj {
			if int(u) > v && pd.Owner(u) != pd.Owner(parsssp.Vertex(v)) {
				cut++
			}
		}
	}
	return float64(cut) / float64(g.NumEdges()), nil
}

// runLayers is a `-trace 1` run.
func runLayers(w workload, cfg config) (*result, error) {
	in, err := makeInputs(w, cfg.seed)
	if err != nil {
		return nil, err
	}
	cal := calibration{before: calibrate()}
	res := &result{Metrics: map[string]metric{}}
	set := func(name string, v float64, unit, note string) { res.Metrics[name] = metric{v, unit, note} }
	fail := func(format string, args ...any) {
		res.Failed++
		fmt.Printf("# FAIL "+format+"\n", args...)
	}

	// The server's own numbers, from outside, tracing off.
	var overhead, coalesce, shed float64
	if w.serve {
		ext, err := serveEndToEnd(w, cfg, in, 1, cfg.seconds/4)
		if err != nil {
			return nil, err
		}
		res.Attempted, res.Failed = ext.attempted, ext.failed
		overhead, shed = median(ext.overhead), float64(ext.shed)
		if ext.version > 0 {
			coalesce = float64(ext.ulines) / float64(ext.version)
		}
	}
	set("ssspd.overhead_ms_p50", overhead, "ms", "client latency minus the answer's time=; 0 without a server")
	set("ssspd.coalesce_ratio", coalesce, "ratio", "update lines per graph version advanced")
	set("ssspd.shed_count", shed, "count", "")

	tr := newTracer()
	traced, err := runReplay(w, in, cfg.seconds/4, tr)
	if err != nil {
		return nil, err
	}
	path, err := tr.write(cfg.outDir, w.name, cfg.seed)
	if err != nil {
		return nil, err
	}
	fmt.Printf("# %s spans written to %s\n", w.name, path)
	bare, err := runReplay(w, in, cfg.seconds/8, nil)
	if err != nil {
		return nil, err
	}
	for _, rp := range []*replay{traced, bare} {
		res.Attempted += rp.rec.attempted
		res.Failed += rp.rec.failed
		for i, p := range rp.passes {
			if p != traced.passes[0] {
				fail("counts of pass %d differ from the traced replay's first pass:\n#   %+v\n#   %+v", i, p, traced.passes[0])
			}
		}
	}
	if bare.updates != traced.updates {
		fail("update counts differ between the traced and the bare replay:\n#   %+v\n#   %+v", traced.updates, bare.updates)
	}

	p := traced.passes[0]
	q := float64(p.queries)
	queryP50 := median(traced.rec.lat)
	set("sssp.query_ms_p50", queryP50, "ms", fmt.Sprintf("traced replay, n=%d", len(traced.rec.lat)))
	set("sssp.compute_ms_per_query", mean(traced.rec.lat)-mean(traced.blockedMean), "ms", "query span minus its transport children, mean over ranks")
	set("sssp.bkt_time_frac", float64(traced.bkt)/float64(traced.total), "ratio", "Stats.BktTime / Stats.Total")
	set("sssp.phases_per_query", float64(p.phases)/q, "count", "")
	set("sssp.epochs_per_query", float64(p.epochs)/q, "count", "")
	set("sssp.relax_per_query", float64(p.relax)/q, "count", "")
	set("sssp.relax_per_edge", float64(p.relax)/q/float64(in.g.NumEdges()), "ratio", fmt.Sprintf("relaxations per query over the graph's %d edges", in.g.NumEdges()))
	set("sssp.imbalance_max_over_mean", mean(traced.imbalance), "ratio", "per-rank relaxations, max over mean")
	set("sssp.allocs_per_query", float64(bare.mallocs)/float64(len(bare.rec.lat)), "count", "bare replay, runtime.MemStats")
	set("sssp.alloc_kb_per_query", float64(bare.allocBytes)/1024/float64(len(bare.rec.lat)), "KB", "bare replay")
	set("sssp.seq_dijkstra_ms", in.dijkstraMS, "ms", "parsssp.Dijkstra, median over the roots")
	set("sssp.speedup_vs_seq", in.dijkstraMS/queryP50, "ratio", "sssp.seq_dijkstra_ms over sssp.query_ms_p50")
	set("sssp.plane_build_ms", traced.planeBuildMS, "ms", "NewMachineWithTransports")
	set("sssp.repair_ms_per_batch", median(pairMeans(traced.repairMS)), "ms", fmt.Sprintf("Machine.ApplyUpdates, n=%d insert/delete pairs", len(traced.repairMS)/2))
	set("sssp.repair_touched_per_batch", float64(traced.updates.invalidated)/float64(traced.updates.updates), "count", "vertices a repair reset")
	set("comm.exchange_calls_per_query", float64(p.exchanges)/q/numRanks, "count", "per rank")
	set("comm.allreduce_calls_per_query", float64(p.allreduces)/q/numRanks, "count", "per rank")
	set("comm.us_per_collective", float64(traced.busy.Microseconds())/float64(traced.calls), "us", "time inside transport calls per call")
	set("comm.bytes_per_query", float64(p.bytes)/q, "B", "all ranks")
	set("comm.records_per_query", float64(p.records)/q, "count", "all ranks")
	perRecord := 0.0
	if p.records > 0 {
		perRecord = float64(p.bytes) / float64(p.records)
	}
	set("comm.bytes_per_record", perRecord, "B", "")
	set("comm.blocked_ms_per_query", mean(traced.blockedMean), "ms", "time inside transport calls, mean over ranks")
	set("comm.blocked_max_over_mean", mean(traced.blockedMax)/mean(traced.blockedMean), "ratio", "the rank that waits most over the mean")
	set("trace.overhead_frac", queryP50/median(bare.rec.lat)-1, "ratio", "traced over bare in-process query p50, minus 1")

	// Engine variants that are not the default path: their standing
	// against it, on this workload's graph and fabric.
	base, err := variantMS(w, in, options())
	if err != nil {
		return nil, err
	}
	async := options()
	async.ExecMode = parsssp.ExecAsync
	parallelApply := options()
	parallelApply.ParallelApply = true
	for _, v := range []struct {
		name string
		opts parsssp.Options
	}{
		{"async_x", async},
		{"rho_x", parsssp.RhoSteppingOptions(0)},
		{"radius_x", parsssp.RadiusSteppingOptions(0)},
		{"parallel_apply_x", parallelApply},
	} {
		t, err := variantMS(w, in, v.opts)
		if err != nil {
			return nil, err
		}
		set("sssp.variant."+v.name, t/base, "ratio", fmt.Sprintf("median of %d queries over the default's %.3f ms", variantQueries, base))
	}
	res.Attempted += 5 * variantQueries

	tcpPing, tcpStream, memPing, err := transportMicro()
	if err != nil {
		return nil, err
	}
	set("tcptransport.pingpong_us", tcpPing, "us", "empty Exchange, loopback")
	set("tcptransport.stream_mb_s", tcpStream, "MB/s", "1 MiB Exchange, per direction")
	set("memtransport.pingpong_us", memPing, "us", "empty Exchange")
	meshUp := 0.0
	if w.serve {
		meshUp = traced.meshUpMS
	}
	set("tcptransport.mesh_up_ms", meshUp, "ms", "both ranks' tcptransport.New; 0 without a mesh")

	scan, overlay, patched, err := graphMicro(w, in)
	if err != nil {
		return nil, err
	}
	set("graph.scan_ns_per_edge", scan, "ns", "full Neighbors sweep per adjacency entry, 8 B each")
	set("graph.overlay_scan_ratio", overlay, "ratio", "the sweep on the mid-burst patched graph over the base; 1 without updates in the stream")
	set("graph.patched_ms_per_batch", patched, "ms", "Graph.Patched per half-burst")
	codec, err := codecUS(in)
	if err != nil {
		return nil, err
	}
	set("sssp.update_codec_us_per_batch", codec, "us", "encode and decode")
	cut, err := edgeCut(in.g)
	if err != nil {
		return nil, err
	}
	set("partition.edge_cut_frac", cut, "ratio", "")
	rmatMS, gridMS := in.generateMS, 0.0
	if !w.serve {
		rmatMS, gridMS = 0, in.generateMS
	}
	set("rmat.generate_ms", rmatMS, "ms", "0 on the grid workload")
	set("gen.grid_ms", gridMS, "ms", "0 on the R-MAT workloads")
	set("validate.check_ms", in.checkMS, "ms", "one oracle answer: Dijkstra and checksum")

	cal.after = calibrate()
	cal.report()
	set("env.calib_ms", cal.before, "ms", fmt.Sprintf("after the run: %.1f", cal.after))
	res.Correct = res.Failed == 0
	return res, nil
}
