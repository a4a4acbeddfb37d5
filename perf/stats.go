//go:build linux

package main

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// percentile returns the q-quantile (0..1) of xs by the nearest-rank
// rule; xs is not modified.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// pairMeans averages consecutive pairs. Update streams alternate a
// burst's insert with its delete, and the two cost differently; a median
// over the pooled halves would sit in the gap between two modes and jump
// from one to the other, while a median over pairs has one mode.
func pairMeans(xs []float64) []float64 {
	out := make([]float64, 0, len(xs)/2)
	for i := 0; i+1 < len(xs); i += 2 {
		out = append(out, (xs[i]+xs[i+1])/2)
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// calibration is the quiet-machine guard: a benchmark-owned kernel timed
// before and after a workload. It touches no code of the repository, so
// it moves only when the machine does.
type calibration struct{ before, after float64 }

// calibSink keeps the kernels' results live.
var calibSink atomic.Uint64

// calibrate runs the kernel on one goroutine per rank at once and
// returns the wall-clock in ms (about 200 ms on the box the benchmark
// was sized on). Each goroutine does a xorshift walk over its own 512 KiB
// table, so the kernel sees the cores' clock and cache — and, because the
// workloads keep both cores busy, whether both cores are there: on this
// box a neighbour takes one away for seconds to minutes at a time, which
// a single-thread kernel rides out on the other and hardly notices.
func calibrate() float64 {
	start := time.Now()
	var wg sync.WaitGroup
	for r := 0; r < numRanks; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			table := make([]uint64, 1<<16)
			x := uint64(88172645463325252)
			for i := 0; i < 22_000_000; i++ {
				x ^= x << 13
				x ^= x >> 7
				x ^= x << 17
				j := x & (1<<16 - 1)
				table[j] += x
				x += table[(j+1)&(1<<16-1)]
			}
			calibSink.Add(x)
		}()
	}
	wg.Wait()
	return ms(time.Since(start))
}

// report prints both timings and the drift line the all-workloads
// harness reads to decide on its one retry.
func (c calibration) report() {
	lo, hi := c.before, c.after
	if lo > hi {
		lo, hi = hi, lo
	}
	fmt.Printf("# calib before_ms=%.1f after_ms=%.1f\n", c.before, c.after)
	fmt.Printf("# calib drift=%.4f\n", hi/lo-1)
	if hi/lo-1 > 0.10 {
		fmt.Println("# calib: the machine was not quiet across this run; treat its timings with suspicion")
	}
}
