package sssp

import (
	"fmt"
	"strings"
	"testing"

	"parsssp/internal/comm"
	"parsssp/internal/comm/memtransport"
	"parsssp/internal/gen"
	"parsssp/internal/graph"
)

// scheduleFromStats is the closed form of the Δ path's collective
// schedule (DESIGN.md "Collective schedule"), per rank, derived from a
// merged Stats alone (RecordPhases on):
//
//	Exchanges  = Σ over epochs (S_e + x_e)      short rounds
//	           + Epochs                         the settle exchange
//	           + Epochs + pullEpochs            long push, or pull's two
//	           + B + x_BF                       Bellman-Ford rounds
//	Allreduces = decisions                      one per epoch under Prune
//	           + Epochs − [hybrid switched]     the next-bucket Min
//
// S_e is the epoch's short-phase count (rounds, not local sub-rounds)
// and x_e is 1 when its last short round sent a record to another rank
// anywhere (the loop then needs one empty round to see the fixpoint),
// else 0; likewise x_BF for the B Bellman-Ford rounds, whose stage costs
// one empty round when B = 0. A round's PhaseLog.Sent is exactly the
// records it sent.
func scheduleFromStats(st *Stats, o Options) (exchanges, allreduces int64) {
	longPhase := o.EdgeClassification && o.Delta != BellmanFordDelta
	// Index the timeline: the last short phase's emission per epoch, and
	// the last Bellman-Ford round's.
	lastShort := make(map[int64]int64)
	lastBF := int64(-1)
	for _, p := range st.PhaseLog {
		switch p.Kind {
		case PhaseShort:
			lastShort[p.Bucket] = p.Sent
		case PhaseBellmanFord:
			lastBF = p.Sent
		}
	}
	for _, b := range st.Buckets {
		exchanges += int64(b.ShortPhases) + 1 // short rounds + settle
		if lastShort[b.Index] > 0 {
			exchanges++
		}
		if longPhase {
			exchanges++
			if b.Mode == ModePull {
				exchanges++
			}
			if o.Prune {
				allreduces++
			}
		}
	}
	allreduces += st.Epochs
	if st.HybridSwitched {
		allreduces--
		exchanges += st.BFPhases
		if st.BFPhases == 0 || lastBF > 0 {
			exchanges++
		}
	}
	return exchanges, allreduces
}

// TestCollectiveSchedulePinned asserts the closed-form collective count
// on both transports and both wire formats, so a stray (or missing)
// collective fails here rather than in a benchmark. It also pins the
// issue's bound: at most S+5 collectives per push epoch.
func TestCollectiveSchedulePinned(t *testing.T) {
	grid, err := gen.Grid(24, 24, 1, 255, 3)
	if err != nil {
		t.Fatal(err)
	}
	pull := ModePull
	configs := []struct {
		name string
		opts Options
	}{
		{"opt", OptOptions(25)},
		{"prune-pull", func() Options { o := PruneOptions(25); o.ForceMode = &pull; return o }()},
		{"del", DelOptions(25)},
		{"noclass", Options{Delta: 40}},
	}
	for _, gc := range []struct {
		name string
		g    *graph.Graph
	}{{"rmat", rmatTestGraph}, {"grid", grid}} {
		src := testRoot(gc.g)
		for _, cfg := range configs {
			for _, wf := range []WireFormat{WireV1, WireV2} {
				const ranks = 3
				opts := cfg.opts
				opts.WireFormat = wf
				opts.RecordPhases = true
				for _, fabric := range []string{"mem", "tcp"} {
					name := fmt.Sprintf("%s/%s/%v/%s", gc.name, cfg.name, wf, fabric)
					var res *Result
					if fabric == "mem" {
						res = mustRun(t, gc.g, ranks, src, opts)
					} else {
						if testing.Short() && gc.name == "grid" {
							continue
						}
						res = runOverTCP(t, gc.g, ranks, src, opts)
					}
					wantX, wantA := scheduleFromStats(&res.Stats, opts)
					gotX := res.Stats.Traffic.ExchangeCalls / ranks
					gotA := res.Stats.Traffic.AllreduceCalls / ranks
					if gotX != wantX || gotA != wantA {
						t.Errorf("%s: %d exchanges + %d allreduces per rank, closed form says %d + %d",
							name, gotX, gotA, wantX, wantA)
					}
					if res.Stats.Traffic.BarrierCalls != 0 {
						t.Errorf("%s: %d barriers", name, res.Stats.Traffic.BarrierCalls)
					}
					var bound int64
					for _, b := range res.Stats.Buckets {
						bound += int64(b.ShortPhases) + 5
						if b.Mode == ModePull {
							bound++
						}
					}
					bound += res.Stats.BFPhases + 1
					if gotX+gotA > bound {
						t.Errorf("%s: %d collectives per rank exceed the S+5 per epoch bound %d", name, gotX+gotA, bound)
					}
				}
			}
		}
	}
}

func TestRoundHeaderCodec(t *testing.T) {
	const limit = 1 << 40
	for _, h := range [][2]int64{{0, 0}, {1, 127}, {128, 300}, {1 << 20, limit}} {
		buf := appendHeader(nil, h[0], h[1])
		frame := append(append([]byte(nil), buf...), 0xAB, 0xCD)
		got, n, ok := readHeader(frame, limit)
		if !ok || got != h || n != len(buf) {
			t.Errorf("readHeader(%v) = %v, %d, %v; want the words and offset %d", h, got, n, ok, len(buf))
		}
		// Every truncation that cuts into the header is malformed.
		for k := 0; k < len(buf); k++ {
			if _, _, ok := readHeader(buf[:k], limit); ok {
				t.Errorf("header %v truncated to %d of %d bytes accepted", h, k, len(buf))
			}
		}
	}
	if _, _, ok := readHeader(appendHeader(nil, 5, limit+1), limit); ok {
		t.Error("oversized header word accepted")
	}
	overlong := append(make([]byte, 0, 12), 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01, 0x00)
	if _, _, ok := readHeader(overlong, ^uint64(0)); ok {
		t.Error("overlong varint accepted")
	}
}

// TestChaosDamagedHeaderFailsQuery aims payload faults at a frame that
// is nothing but a round header (an exchange that carried no record):
// truncating or corrupting it must fail the query as a corrupt header,
// in both wire formats — the header gets the record readers' treatment.
func TestChaosDamagedHeaderFailsQuery(t *testing.T) {
	g := rmatTestGraph
	for _, wf := range []WireFormat{WireV1, WireV2} {
		opts := chaosOpts()
		opts.WireFormat = wf
		run := func(faults ...comm.Fault) (*recordingTransport, error) {
			group, err := memtransport.New(chaosRanks)
			if err != nil {
				t.Fatal(err)
			}
			transports := group.Endpoints()
			rec := &recordingTransport{t: transports[1]}
			transports[1] = rec
			if len(faults) > 0 {
				f, err := comm.NewFaulty(transports[1], faults...)
				if err != nil {
					t.Fatal(err)
				}
				transports[1] = f
			}
			_, err = RunWithTransports(g, blockDist(g.NumVertices(), chaosRanks), testRoot(g), opts, transports)
			return rec, err
		}
		rec, err := run()
		if err != nil {
			t.Fatalf("%v: clean run: %v", wf, err)
		}
		// A header of two small words is two bytes per destination.
		idx := -1
		for i, k := range rec.kinds {
			if k == 'X' && rec.xBytes[i] == headerWords*(chaosRanks-1) {
				idx = i
				break
			}
		}
		if idx < 0 {
			t.Fatalf("%v: no header-only exchange in the clean run", wf)
		}
		for _, kind := range []comm.FaultKind{comm.FaultTruncate, comm.FaultCorrupt} {
			_, err := run(comm.Fault{Collective: idx, Kind: kind})
			if err == nil {
				t.Errorf("%v: %v of a header-only frame at collective %d went undetected", wf, kind, idx)
			} else if !strings.Contains(err.Error(), "corrupt header") {
				t.Errorf("%v: %v: error does not name the header: %v", wf, kind, err)
			}
		}
	}
}
