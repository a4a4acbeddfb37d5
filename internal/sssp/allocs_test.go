package sssp

import (
	"testing"

	"parsssp/internal/gen"
	"parsssp/internal/graph"
	"parsssp/internal/rmat"
)

// TestWarmQueryAllocs pins the steady-state allocation count of a query
// on a warm Machine over memtransport: what is left once every per-epoch
// and per-frame buffer is pooled is the per-query fixed cost (rank
// goroutines, the assembled Result), which does not grow with the number
// of epochs — the 32×32 grid runs well over a hundred.
func TestWarmQueryAllocs(t *testing.T) {
	const budget = 200
	grid, err := gen.Grid(32, 32, 1, 255, 1)
	if err != nil {
		t.Fatal(err)
	}
	rm, err := rmat.Generate(rmat.Family1(10, 1))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		g    *graph.Graph
	}{{"grid32", grid}, {"rmat10", rm}} {
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
			var epochs int64
			query := func() {
				for _, root := range roots {
					res, err := m.Query(root)
					if err != nil {
						t.Fatal(err)
					}
					epochs = res.Stats.Epochs
				}
			}
			query() // warm every pooled buffer
			perQuery := testing.AllocsPerRun(5, query) / float64(len(roots))
			t.Logf("%.1f allocs/query (%d epochs in the last one)", perQuery, epochs)
			if perQuery > budget {
				t.Errorf("warm query allocates %.1f times, budget %d", perQuery, budget)
			}
		})
	}
}
