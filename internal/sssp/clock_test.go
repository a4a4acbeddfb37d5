package sssp

import (
	"sync/atomic"
	"testing"
	"time"

	"parsssp/internal/gen"
	"parsssp/internal/graph"
)

// TestClockReadsPinned swaps the package clock for a counter and pins
// the clock reads of one warm OPT-25 query per rank, on a grid (where
// the ranks drain locally, hundreds of sub-rounds) and on R-MAT. The
// reads follow the collective schedule alone — per rank,
//
//	2 + 26·Epochs + 6·pullEpochs + 3·R − 2·[hybrid switched]
//
// where R is the number of relaxRounds exchanges (every exchange but
// the settle and long-phase ones) — so local sub-rounds add none: they
// are charged from their round's boundary stamps.
func TestClockReadsPinned(t *testing.T) {
	var reads atomic.Int64
	defer func(old func() time.Time) { now = old }(now)
	now = func() time.Time { return time.Unix(0, reads.Add(1)) }

	grid, err := gen.Grid(48, 48, 1, 255, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		g     *graph.Graph
		reads int64 // per rank
	}{{"grid48", grid, 3495}, {"rmat11", rmatTestGraph, 159}} {
		const ranks = 2
		m, err := NewMachine(tc.g, ranks, OptOptions(25))
		if err != nil {
			t.Fatal(err)
		}
		src := testRoot(tc.g)
		if _, err := m.Query(src); err != nil { // warm
			t.Fatal(err)
		}
		reads.Store(0)
		res, err := m.Query(src)
		m.Close()
		if err != nil {
			t.Fatal(err)
		}
		st := &res.Stats
		got := reads.Load()
		var pulls, hybrid int64
		for _, b := range st.Buckets {
			if b.Mode == ModePull {
				pulls++
			}
		}
		if st.HybridSwitched {
			hybrid = 1
		}
		rounds := st.Traffic.ExchangeCalls/ranks - 2*st.Epochs - pulls
		want := 2 + 26*st.Epochs + 6*pulls + 3*rounds - 2*hybrid
		t.Logf("%s: %d reads per rank; %d phases, %d local rounds, %d epochs (%d pull)",
			tc.name, got/ranks, st.Phases, st.LocalRounds, st.Epochs, pulls)
		if got != ranks*want {
			t.Errorf("%s: %d clock reads, the schedule accounts for %d", tc.name, got, ranks*want)
		}
		if got != ranks*tc.reads {
			t.Errorf("%s: %d clock reads per rank, pinned %d", tc.name, got/ranks, tc.reads)
		}
		if tc.name == "grid48" && st.LocalRounds < st.Phases {
			t.Errorf("%s: only %d local rounds: the case does not exercise the drain", tc.name, st.LocalRounds)
		}
	}
}
