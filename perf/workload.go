//go:build linux

package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand/v2"
	"time"

	"parsssp"
)

// workload is one set of inputs the benchmark runs. Everything is sized
// for two cores: two ranks, one worker thread each, at most two queries
// in flight, and a generator that is blocked while the ranks work.
type workload struct {
	name string
	// serve workloads drive a two-process `ssspd -serve` mesh over
	// loopback TCP; the other one calls the library in this process.
	serve bool
	scale int // R-MAT scale of a serve workload
	slots int // ssspd -slots, and the number of closed-loop clients
	// mixed puts an update burst after every second query of the
	// measured stream; elsewhere updates run only after the window.
	mixed bool
}

// The four workloads. BENCHMARK.json and README.md say why each exists.
var workloads = []workload{
	{name: "rmat-serve", serve: true, scale: 14, slots: 1},
	{name: "rmat-mixed", serve: true, scale: 14, slots: 1, mixed: true},
	{name: "small-burst", serve: true, scale: 10, slots: 2},
	{name: "grid-lib", slots: 1},
}

const (
	numRanks  = 2
	numRoots  = 64 // the query stream cycles this many seeded roots
	numBursts = 16 // distinct update bursts; a mixed pass uses each once
	burstOps  = 4  // edges per burst: one pipelined `U` line each
	gridSide  = 96
	delta     = 25 // Δ of the default policy, as ssspd's -delta default
)

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

// options is the engine configuration every workload runs: ssspd's
// default (OPT-Δ, Δ=25, BSP) with one worker thread per rank.
func options() parsssp.Options {
	o := parsssp.OptOptions(delta)
	o.Threads = 1
	return o
}

type opKind int

const (
	opQuery opKind = iota
	opAdd          // insert the edges of burst op.idx
	opDel          // delete them again
)

// op is one step of a workload's stream: a query from roots[idx] or one
// half of update burst idx.
type op struct {
	kind opKind
	idx  int
}

// passOps is one pass of the measured stream: every root once, in
// order, and on a mixed workload an update burst after every second
// query — alternately inserting a burst's edges and deleting them, so
// the edge set is back at the base graph every four queries and at the
// end of the pass.
func passOps(w workload) []op {
	var ops []op
	for i := 0; i < numRoots; i++ {
		ops = append(ops, op{opQuery, i})
		if w.mixed && i%2 == 1 {
			kind := opAdd
			if i%4 == 3 {
				kind = opDel
			}
			ops = append(ops, op{kind, i / 4})
		}
	}
	return ops
}

// updateOps is the stream that measures update-to-visible latency on an
// otherwise idle system: every burst inserted and deleted, four times
// over. A query before each pair moves the standing tree — the one the
// update repairs — to another root, so the cost is averaged over 32
// roots and does not hang on where one root lies relative to the new
// edges.
func updateOps() []op {
	var ops []op
	for k := 0; k < 4*numBursts; k++ {
		ops = append(ops, op{opQuery, 2 * k % numRoots}, op{opAdd, k % numBursts}, op{opDel, k % numBursts})
	}
	return ops
}

// inputs is everything generated from the seed, with the oracle's
// answers: the program under test receives only the graph parameters,
// the roots and the update lines.
type inputs struct {
	g     *parsssp.Graph
	roots []parsssp.Vertex
	// sums[i] is the FNV-1a checksum, as ssspd computes it, of the
	// Dijkstra distances from roots[i] on the base graph; reached[i] the
	// number of finite ones.
	sums    []uint64
	reached []int64
	bursts  [][]parsssp.Edge
	// midSums[{i, b}] is the checksum from roots[i] on the base graph
	// plus burst b, for every such pair the workload's streams ask for.
	midSums map[[2]int]uint64

	generateMS float64 // building the graph
	dijkstraMS float64 // median sequential Dijkstra over the roots
	checkMS    float64 // median oracle answer: Dijkstra plus checksum
}

// checksum is cmd/ssspd's answer checksum: FNV-1a over the distances as
// little-endian 64-bit words.
func checksum(dist []parsssp.Dist) (sum uint64, reached int64) {
	h := fnv.New64a()
	var buf [8]byte
	for _, d := range dist {
		if d < parsssp.Inf {
			reached++
		}
		binary.LittleEndian.PutUint64(buf[:], uint64(d))
		h.Write(buf[:])
	}
	return h.Sum64(), reached
}

// makeInputs generates a workload's graph, roots and update bursts from
// the seed and computes the oracle's answer to every query the stream
// will ask.
func makeInputs(w workload, seed uint64) (*inputs, error) {
	in := &inputs{midSums: map[[2]int]uint64{}}
	start := time.Now()
	var err error
	if w.serve {
		in.g, err = parsssp.GenerateRMAT1(w.scale, seed) // what `ssspd -family 1 -scale S -seed N` builds
	} else {
		in.g, err = parsssp.GenerateGrid(gridSide, gridSide, 1, 255, seed)
	}
	if err != nil {
		return nil, err
	}
	in.generateMS = ms(time.Since(start))

	// Roots: a uniformly random R-MAT vertex is often isolated, and a
	// query that reaches one vertex answers in microseconds, which would
	// make latency bimodal. Keep the seeded draws that reach a quarter
	// of the graph; the oracle run that decides it is the same one that
	// provides the expected checksum.
	n := in.g.NumVertices()
	rng := rand.New(rand.NewPCG(seed, 0x5353535044)) // stream constant: "SSSPD"
	seen := map[parsssp.Vertex]bool{}
	var dijkstra, check []float64
	var giant []parsssp.Vertex // finite-distance vertices of the first root: update endpoints come from here
	for draws := 0; len(in.roots) < numRoots; draws++ {
		if draws > 100*numRoots {
			return nil, fmt.Errorf("%s: no %d roots that reach a quarter of the graph", w.name, numRoots)
		}
		v := parsssp.Vertex(rng.IntN(n))
		if seen[v] || in.g.Degree(v) == 0 {
			continue
		}
		seen[v] = true
		t0 := time.Now()
		ref, err := parsssp.Dijkstra(in.g, v)
		if err != nil {
			return nil, err
		}
		t1 := time.Now()
		sum, reached := checksum(ref.Dist)
		if reached < int64(n/4) {
			continue
		}
		dijkstra = append(dijkstra, ms(t1.Sub(t0)))
		check = append(check, ms(time.Since(t0)))
		if giant == nil {
			for u, d := range ref.Dist {
				if d < parsssp.Inf {
					giant = append(giant, parsssp.Vertex(u))
				}
			}
		}
		in.roots = append(in.roots, v)
		in.sums = append(in.sums, sum)
		in.reached = append(in.reached, reached)
	}
	in.dijkstraMS, in.checkMS = median(dijkstra), median(check)

	// Update bursts: edges between reached vertices that the base graph
	// does not have, light enough (weight 1..4) that inserting one
	// shortens paths and deleting it again orphans a subtree, so the
	// repair has work to do.
	taken := map[[2]parsssp.Vertex]bool{}
	for b := 0; b < numBursts; b++ {
		var burst []parsssp.Edge
		for len(burst) < burstOps {
			u, v := giant[rng.IntN(len(giant))], giant[rng.IntN(len(giant))]
			if u > v {
				u, v = v, u
			}
			if u == v || taken[[2]parsssp.Vertex{u, v}] || adjacent(in.g, u, v) {
				continue
			}
			taken[[2]parsssp.Vertex{u, v}] = true
			burst = append(burst, parsssp.Edge{U: u, V: v, W: parsssp.Weight(1 + rng.IntN(4))})
		}
		in.bursts = append(in.bursts, burst)
	}

	// Mid-burst oracle. The streams ask the same (root, burst) pairs every
	// time round — a query while a burst is inserted, or the standing
	// tree an insert repairs — so every one of them is checked, not a
	// sample. Walk the streams once to learn the pairs.
	ops := passOps(w)
	if !w.mixed {
		ops = append(ops, updateOps()...)
	}
	exp := newExpected(in)
	need := make([][]int, numBursts) // per burst, the roots asked under it
	for _, o := range ops {
		exp.apply(o)
		if exp.inserted >= 0 && (o.kind == opQuery || o.kind == opAdd) {
			need[exp.inserted] = append(need[exp.inserted], exp.standing)
		}
	}
	for b, roots := range need {
		if len(roots) == 0 {
			continue
		}
		patched, err := in.g.Patched(nil, in.bursts[b])
		if err != nil {
			return nil, err
		}
		for _, i := range roots {
			ref, err := parsssp.Dijkstra(patched, in.roots[i])
			if err != nil {
				return nil, err
			}
			in.midSums[[2]int{i, b}], _ = checksum(ref.Dist)
		}
	}
	return in, nil
}

func adjacent(g *parsssp.Graph, u, v parsssp.Vertex) bool {
	adj, _ := g.Neighbors(u)
	for _, x := range adj {
		if x == v {
			return true
		}
	}
	return false
}

// expected follows a stream and knows which checksum the oracle gives
// the next answer: the base one, or the mid-burst one while a burst is
// inserted.
type expected struct {
	in       *inputs
	inserted int // index of the burst now in the graph, -1 for the base graph
	standing int // index of the root last queried, whose tree an update repairs; -1 before any
}

func newExpected(in *inputs) *expected { return &expected{in: in, inserted: -1, standing: -1} }

// apply moves past one op of the stream.
func (e *expected) apply(o op) {
	switch o.kind {
	case opQuery:
		e.standing = o.idx
	case opAdd:
		e.inserted = o.idx
	case opDel:
		e.inserted = -1
	}
}

// sum is the oracle's checksum from roots[root] on the current graph.
func (e *expected) sum(root int) uint64 {
	if e.inserted >= 0 {
		return e.in.midSums[[2]int{root, e.inserted}]
	}
	return e.in.sums[root]
}

// batch is the update batch of one half-burst.
func (in *inputs) batch(o op) parsssp.UpdateBatch {
	kind := parsssp.OpInsert
	if o.kind == opDel {
		kind = parsssp.OpDelete
	}
	b := make(parsssp.UpdateBatch, 0, burstOps)
	for _, e := range in.bursts[o.idx] {
		b = append(b, parsssp.EdgeUpdate{Op: kind, U: e.U, V: e.V, W: e.W})
	}
	return b
}
