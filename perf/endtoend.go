//go:build linux

package main

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"syscall"
	"time"

	"parsssp"
)

// How many cold set-ups a run times; setup_s is their median, because a
// single cold spawn is bimodal (page cache, port reuse) on a shared box.
const (
	serveSetups = 7
	libSetups   = 21
)

// recorder collects what a client sees while it drives a stream.
type recorder struct {
	lat    []float64 // per query: request written (or call made) to matching answer, ms
	engine []float64 // per query: the system's own time for it, ms
	acks   []float64 // per burst: first line written to last ack, ms
	ulines int       // update lines sent
	marks  []mark    // block boundaries of a measured window; see window

	attempted, failed int
	exp               *expected // where the system under test is in its stream
}

func newRecorder(exp *expected) *recorder { return &recorder{exp: exp} }

// mark is a block boundary of a measured window: how many queries and
// acks the recorder held, the time, and the CPU time the system under
// test had used.
type mark struct {
	queries, acks int
	at            time.Time
	cpuMS         float64
}

// blockSeconds is the least length of a block. Every timing metric is
// computed per block, and the run reports the quiet quartile over its
// blocks: on a shared box a neighbour slows the machine for seconds at a
// time, interference only ever adds time, and the blocks it missed say
// what the code costs. A regression moves every block, the quiet ones
// too.
const blockSeconds = 1.0

// window is the measured part of a run: whole passes of the stream (one
// call of pass each) until seconds have elapsed, with a mark of the
// recorder after the first pass that ends a block.
func (r *recorder) window(seconds float64, cpuMS func() (float64, error), pass func() error) error {
	add := func() error {
		cpu, err := cpuMS()
		r.marks = append(r.marks, mark{len(r.lat), len(r.acks), time.Now(), cpu})
		return err
	}
	if err := add(); err != nil {
		return err
	}
	for start := r.marks[0].at; time.Since(start).Seconds() < seconds; {
		if err := pass(); err != nil {
			return err
		}
		if time.Since(r.marks[len(r.marks)-1].at).Seconds() >= blockSeconds {
			if err := add(); err != nil {
				return err
			}
		}
	}
	if last := &r.marks[len(r.marks)-1]; last.queries < len(r.lat) {
		r.marks = r.marks[:len(r.marks)-1] // fold the short tail into the last block
		if len(r.marks) == 0 {
			r.marks = append(r.marks, *last)
		}
		return add()
	}
	return nil
}

// summary is what a window's blocks say.
type summary struct {
	qps, p50, p99, cpuPerQuery float64 // the quiet quartile over blocks
	ackP50                     float64 // 0 when the window held no updates
	blocks                     int
	pooled                     string // the same numbers over the whole window, for the log
}

func (r *recorder) summarize() summary {
	var rates, medians, cpus, ackMedians []float64
	type block struct {
		rate float64
		lat  []float64
	}
	var blocks []block
	for i := 1; i < len(r.marks); i++ {
		a, b := r.marks[i-1], r.marks[i]
		lat := r.lat[a.queries:b.queries]
		rate := float64(len(lat)) / b.at.Sub(a.at).Seconds()
		rates = append(rates, rate)
		medians = append(medians, median(lat))
		cpus = append(cpus, (b.cpuMS-a.cpuMS)/float64(len(lat)))
		if b.acks > a.acks {
			ackMedians = append(ackMedians, median(pairMeans(r.acks[a.acks:b.acks])))
		}
		blocks = append(blocks, block{rate, lat})
	}
	// The tail is read off the faster half of the blocks: a p99 over the
	// whole window is the neighbour's p99, not the program's.
	sorted := append([]float64(nil), rates...)
	sort.Float64s(sorted)
	var fast []float64
	for _, b := range blocks {
		if b.rate >= sorted[len(sorted)/2] {
			fast = append(fast, b.lat...)
		}
	}
	first, last := r.marks[0], r.marks[len(r.marks)-1]
	return summary{
		qps:         percentile(rates, 0.75),
		p50:         percentile(medians, 0.25),
		p99:         percentile(fast, 0.99),
		cpuPerQuery: percentile(cpus, 0.25),
		ackP50:      percentile(ackMedians, 0.25),
		blocks:      len(blocks),
		pooled: fmt.Sprintf("qps=%.2f p50_ms=%.3f p99_ms=%.3f cpu_ms_per_query=%.3f",
			float64(len(r.lat))/last.at.Sub(first.at).Seconds(), percentile(r.lat, 0.5), percentile(r.lat, 0.99),
			(last.cpuMS-first.cpuMS)/float64(len(r.lat))),
	}
}

// quietMedian is the quiet quartile for samples that come in one short
// sequence (the idle update stream): the lower quartile of the medians
// of eight consecutive chunks.
func quietMedian(xs []float64) float64 {
	const chunks = 8
	var medians []float64
	for c := 0; c < chunks; c++ {
		if chunk := xs[c*len(xs)/chunks : (c+1)*len(xs)/chunks]; len(chunk) > 0 {
			medians = append(medians, median(chunk))
		}
	}
	return percentile(medians, 0.25)
}

func (r *recorder) fail(format string, args ...any) {
	r.failed++
	if r.failed <= 5 {
		fmt.Printf("# FAIL "+format+"\n", args...)
	}
}

// outcome is one workload's measured window and what surrounds it.
type outcome struct {
	rec      *recorder // the window
	setups   []float64 // seconds per cold set-up
	idleAcks []float64 // per burst of the idle update stream, ms
	rssMB    float64
	version  int // graph versions the server advanced through
	shed     int
	ulines   int // update lines sent over the whole run
	overhead []float64

	attempted, failed int
}

// drive runs ops against the mesh as w.slots closed-loop clients sharing
// one stream: up to that many queries are in flight, and the next is
// sent when an answer frees a place. Answers carry their source, and the
// queries in flight are consecutive roots of the list, hence distinct.
// An update burst waits for the queries before it, goes out as
// pipelined `U` lines in one write, and is acknowledged line by line.
func (m *mesh) drive(in *inputs, ops []op, window int, rec *recorder) error {
	type flight struct {
		sent time.Time
		want uint64
	}
	inflight := map[uint32]flight{}
	m.arm()
	for next := 0; next < len(ops) || len(inflight) > 0; {
		for next < len(ops) && ops[next].kind == opQuery && len(inflight) < window {
			idx := ops[next].idx
			rec.exp.apply(ops[next])
			next++
			rec.attempted++
			src := in.roots[idx]
			f := flight{time.Now(), rec.exp.sum(idx)}
			if err := m.send(fmt.Sprintf("%d\n", src)); err != nil {
				return err
			}
			inflight[src] = f
		}
		if len(inflight) > 0 {
			ln, err := m.recv()
			if err != nil {
				return err
			}
			a, err := parseAnswer(ln.text)
			if err != nil {
				// An error reply names its source; a busy reply does not.
				var src uint32
				if _, serr := fmt.Sscanf(ln.text, "error src=%d:", &src); serr != nil {
					return fmt.Errorf("unmatched reply %q", ln.text)
				}
				rec.fail("%s", ln.text)
				delete(inflight, src)
				continue
			}
			f, ok := inflight[a.src]
			if !ok {
				return fmt.Errorf("answer for a query not in flight: %q", ln.text)
			}
			delete(inflight, a.src)
			if a.sum != f.want {
				rec.fail("src=%d checksum %016x, oracle %016x", a.src, a.sum, f.want)
			}
			rec.lat = append(rec.lat, ms(ln.at.Sub(f.sent)))
			rec.engine = append(rec.engine, ms(a.engine))
			continue
		}
		o := ops[next]
		next++
		var b strings.Builder
		for _, e := range in.bursts[o.idx] {
			if o.kind == opAdd {
				fmt.Fprintf(&b, "U add %d %d %d\n", e.U, e.V, e.W)
			} else {
				fmt.Fprintf(&b, "U del %d %d\n", e.U, e.V)
			}
		}
		rec.attempted += burstOps
		rec.ulines += burstOps
		sent := time.Now()
		if err := m.send(b.String()); err != nil {
			return err
		}
		var last time.Time
		for i := 0; i < burstOps; i++ {
			ln, err := m.recv()
			if err != nil {
				return err
			}
			if !strings.HasPrefix(ln.text, "updated ") {
				rec.fail("%s", ln.text)
			}
			last = ln.at
		}
		rec.acks = append(rec.acks, ms(last.Sub(sent)))
		rec.exp.apply(o)
	}
	return nil
}

// coldMesh times one cold set-up: spawn the ranks, first `stats` reply.
func coldMesh(w workload, cfg config) (*mesh, float64, error) {
	start := time.Now()
	m, err := startMesh(cfg.ssspd, w, cfg.seed)
	if err != nil {
		return nil, 0, err
	}
	if _, _, err := m.stats(); err != nil {
		m.abort()
		return nil, 0, err
	}
	return m, time.Since(start).Seconds(), nil
}

// serveEndToEnd measures a serve workload from outside: setups cold
// set-ups (the last mesh is kept), a warm-up pass that also checks every
// root, whole passes of the stream until seconds have elapsed, then — on
// a workload without updates in its stream — the update stream on the
// idle server, and a clean shutdown.
func serveEndToEnd(w workload, cfg config, in *inputs, setups int, seconds float64) (*outcome, error) {
	out := &outcome{}
	var m *mesh
	for i := 0; i < setups; i++ {
		if m != nil {
			_, unclean, err := m.close()
			out.attempted += numRanks
			out.failed += unclean
			if err != nil {
				return nil, err
			}
		}
		var s float64
		var err error
		if m, s, err = coldMesh(w, cfg); err != nil {
			return nil, err
		}
		out.setups = append(out.setups, s)
	}
	ok := false
	defer func() {
		if !ok {
			m.abort()
		}
	}()

	pass := passOps(w)
	exp := newExpected(in)
	warm := newRecorder(exp)
	if err := m.drive(in, pass, w.slots, warm); err != nil {
		return nil, err
	}

	rec := newRecorder(exp)
	out.rec = rec
	if err := rec.window(seconds, m.cpuMS, func() error { return m.drive(in, pass, w.slots, rec) }); err != nil {
		return nil, err
	}

	idle := newRecorder(exp)
	if !w.mixed {
		if err := m.drive(in, updateOps(), w.slots, idle); err != nil {
			return nil, err
		}
		out.idleAcks = idle.acks
	}
	var err error
	if out.version, out.shed, err = m.stats(); err != nil {
		return nil, err
	}
	ok = true
	rssKB, unclean, err := m.close()
	if err != nil {
		fmt.Printf("# FAIL shutdown: %v\n", err)
	}
	out.rssMB = float64(rssKB) / 1024
	for i := range rec.lat {
		out.overhead = append(out.overhead, rec.lat[i]-rec.engine[i])
	}
	for _, r := range []*recorder{warm, rec, idle} {
		out.attempted += r.attempted
		out.failed += r.failed
		out.ulines += r.ulines
	}
	out.attempted += numRanks
	out.failed += unclean + out.shed
	return out, nil
}

// libTarget is the library entry point as a stream target. The pool
// applies a batch lazily: a slot repairs its tree when it is next asked
// for the same source. So that an update is timed up to the moment it is
// visible, as the server's ack is, update asks for the standing source
// again and returns the repaired answer.
func libTarget(pool *parsssp.QueryPool) target {
	standing, asked := parsssp.Vertex(0), false
	return target{
		query: func(src parsssp.Vertex) (*parsssp.Result, error) {
			standing, asked = src, true
			return pool.Query(src)
		},
		update: func(b parsssp.UpdateBatch) (*parsssp.Result, error) {
			if _, err := pool.ApplyUpdates(b); err != nil || !asked {
				return nil, err
			}
			return pool.Query(standing)
		},
	}
}

// libEndToEnd measures grid-lib: the same phases as serveEndToEnd with
// parsssp.NewQueryPool in this process as the system under test.
func libEndToEnd(w workload, cfg config, in *inputs, setups int, seconds float64) (*outcome, error) {
	out := &outcome{}
	newPool := func() (*parsssp.QueryPool, error) {
		g, err := parsssp.GenerateGrid(gridSide, gridSide, 1, 255, cfg.seed)
		if err != nil {
			return nil, err
		}
		pool, err := parsssp.NewQueryPool(g, numRanks, w.slots, options())
		if err != nil {
			return nil, err
		}
		if _, err := pool.Query(in.roots[0]); err != nil {
			return nil, errors.Join(err, pool.Close())
		}
		return pool, nil
	}
	var pool *parsssp.QueryPool
	for i := 0; i < setups; i++ {
		if pool != nil {
			if err := pool.Close(); err != nil {
				return nil, err
			}
		}
		start := time.Now()
		var err error
		if pool, err = newPool(); err != nil {
			return nil, err
		}
		out.setups = append(out.setups, time.Since(start).Seconds())
	}
	defer pool.Close()
	tgt := libTarget(pool)

	// The warm-up pass is also where every root's distances are checked
	// against Dijkstra in full, not only by checksum.
	pass := passOps(w)
	exp := newExpected(in)
	warm := newRecorder(exp)
	tgt.validate = func(src parsssp.Vertex, dist []parsssp.Dist) error {
		return parsssp.ValidateDistances(in.g, src, dist)
	}
	if err := tgt.run(in, pass, warm); err != nil {
		return nil, err
	}
	tgt.validate = nil

	rec := newRecorder(exp)
	out.rec = rec
	if err := rec.window(seconds, selfCPU, func() error { return tgt.run(in, pass, rec) }); err != nil {
		return nil, err
	}

	idle := newRecorder(exp)
	if err := tgt.run(in, updateOps(), idle); err != nil {
		return nil, err
	}
	out.idleAcks = idle.acks
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return nil, err
	}
	out.rssMB = float64(ru.Maxrss) / 1024
	for _, r := range []*recorder{warm, rec, idle} {
		out.attempted += r.attempted
		out.failed += r.failed
	}
	return out, nil
}

// selfCPU is this process's user+system CPU time so far, ms.
func selfCPU() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, err
	}
	return ms(time.Duration(ru.Utime.Nano() + ru.Stime.Nano())), nil
}

// runEndToEnd is a `-trace 0` run: tracing off, the numbers a user of
// the system sees.
func runEndToEnd(w workload, cfg config) (*result, error) {
	in, err := makeInputs(w, cfg.seed)
	if err != nil {
		return nil, err
	}
	cal := calibration{before: calibrate()}
	var out *outcome
	if w.serve {
		out, err = serveEndToEnd(w, cfg, in, serveSetups, cfg.seconds)
	} else {
		out, err = libEndToEnd(w, cfg, in, libSetups, cfg.seconds)
	}
	if err != nil {
		return nil, err
	}
	cal.after = calibrate()
	cal.report()
	fmt.Printf("# %s set-ups (s): %.4f\n", w.name, out.setups)

	sum := out.rec.summarize()
	fmt.Printf("# %s whole window: %s\n", w.name, sum.pooled)
	ack, acks := sum.ackP50, len(out.rec.acks)
	if !w.mixed {
		ack, acks = quietMedian(pairMeans(out.idleAcks)), len(out.idleAcks)
	}
	quiet := fmt.Sprintf("quiet quartile of %d blocks, n=%d", sum.blocks, len(out.rec.lat))
	res := &result{
		Correct:   out.failed == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics: map[string]metric{
			"setup_s":           {median(out.setups), "s", fmt.Sprintf("median of %d cold set-ups", len(out.setups))},
			"query_qps":         {sum.qps, "1/s", quiet},
			"query_p50_ms":      {sum.p50, "ms", quiet},
			"query_p99_ms":      {sum.p99, "ms", "over the faster half of the blocks"},
			"update_ack_p50_ms": {ack, "ms", fmt.Sprintf("quiet quartile, n=%d insert/delete pairs of %d-line bursts", acks/2, burstOps)},
			"cpu_ms_per_query":  {sum.cpuPerQuery, "ms", quiet},
			"rss_peak_mb":       {out.rssMB, "MB", ""},
		},
	}
	if w.serve {
		fmt.Printf("# %s ssspd.overhead_ms_p50=%.4f versions=%d update_lines=%d shed=%d\n",
			w.name, median(out.overhead), out.version, out.ulines, out.shed)
	}
	return res, nil
}
