package sssp

import (
	"runtime/debug"
	"testing"

	"parsssp/internal/gen"
	"parsssp/internal/graph"
	"parsssp/internal/rmat"
)

// TestWarmQueryAllocs pins the exact steady-state allocation count of a
// query on a warm Machine over memtransport: what is left once every
// per-epoch, per-round and per-frame buffer is pooled — the bucket and
// sub-bucket stores included — is the per-query fixed cost (the rank
// goroutines' closures and wait group, the assembled Result), which does
// not grow with the number of epochs or local sub-rounds: the 32×32 grid
// runs dozens of each. The collector is off while counting: a collection
// empties the runtime's free goroutine list, and the next go statement
// then allocates.
func TestWarmQueryAllocs(t *testing.T) {
	grid, err := gen.Grid(32, 32, 1, 255, 1)
	if err != nil {
		t.Fatal(err)
	}
	rm, err := rmat.Generate(rmat.Family1(10, 1))
	if err != nil {
		t.Fatal(err)
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, tc := range []struct {
		name   string
		g      *graph.Graph
		allocs float64 // per query
	}{{"grid32", grid, 16}, {"rmat10", rm, 16}} {
		t.Run(tc.name, func(t *testing.T) {
			m, err := NewMachine(tc.g, 2, OptOptions(25))
			if err != nil {
				t.Fatal(err)
			}
			defer m.Close()
			roots, err := PickRoots(tc.g, 4, 1)
			if err != nil {
				t.Fatal(err)
			}
			var epochs, local int64
			query := func() {
				for _, root := range roots {
					res, err := m.Query(root)
					if err != nil {
						t.Fatal(err)
					}
					epochs, local = res.Stats.Epochs, res.Stats.LocalRounds
				}
			}
			// Warm every pooled buffer: the bucket store's recycled lists
			// take a few passes to reach the capacities these roots need.
			for i := 0; i < 8; i++ {
				query()
			}
			perQuery := testing.AllocsPerRun(5, query) / float64(len(roots))
			t.Logf("%.2f allocs/query (%d epochs, %d local rounds in the last one)", perQuery, epochs, local)
			if perQuery != tc.allocs {
				t.Errorf("warm query allocates %.2f times, pinned %v", perQuery, tc.allocs)
			}
		})
	}
}
