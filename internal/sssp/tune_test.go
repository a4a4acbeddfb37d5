package sssp

import (
	"testing"
	"time"

	"parsssp/internal/graph"
)

func TestTuneDelta(t *testing.T) {
	g := rmatTestGraph
	roots := []graph.Vertex{testRoot(g)}
	res, err := TuneDelta(g, 2, roots, OptOptions(25), []graph.Weight{5, 25, 100})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Trials) != 3 {
		t.Fatalf("trials = %v", res.Trials)
	}
	if _, ok := res.Trials[res.Best]; !ok {
		t.Errorf("best Δ %d not among trials", res.Best)
	}
	for delta, d := range res.Trials {
		if d <= 0 {
			t.Errorf("Δ=%d has non-positive time %v", delta, d)
		}
		if res.Trials[res.Best] > d {
			t.Errorf("best Δ %d slower than Δ %d", res.Best, delta)
		}
	}
}

func TestTuneDeltaDefaults(t *testing.T) {
	g := rmatTestGraph
	res, err := TuneDelta(g, 1, []graph.Vertex{testRoot(g)}, OptOptions(25), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Trials) != len(DefaultDeltaCandidates) {
		t.Errorf("default candidates not used: %v", res.Trials)
	}
}

func TestTuneDeltaValidation(t *testing.T) {
	g := rmatTestGraph
	if _, err := TuneDelta(g, 1, nil, OptOptions(25), nil); err == nil {
		t.Error("no roots accepted")
	}
	if _, err := TuneDelta(g, 1, []graph.Vertex{0}, OptOptions(25), []graph.Weight{0}); err == nil {
		t.Error("zero Δ candidate accepted")
	}
}

// scriptedDeploy is a deployFunc whose passes take scripted amounts of
// fake-clock time: costs[config] lists the durations of that
// configuration's successive passes across all its deployments (the
// last one repeats). It installs the fake clock behind clock.go's now
// for the duration of the test.
func scriptedDeploy(t *testing.T, costs map[string][]time.Duration) (deployFunc, map[string]int) {
	t.Helper()
	clock := time.Unix(0, 0)
	realNow := now
	now = func() time.Time { return clock }
	t.Cleanup(func() { now = realNow })
	passes := make(map[string]int)
	return func(trial Options) (func() error, func() error, error) {
		key := trial.PolicyString()
		pass := func() error {
			script := costs[key]
			i := passes[key]
			if i >= len(script) {
				i = len(script) - 1
			}
			passes[key]++
			clock = clock.Add(script[i])
			return nil
		}
		return pass, func() error { return nil }, nil
	}, passes
}

func TestTunePolicyWarmsUpBeforeTiming(t *testing.T) {
	// delta(25) has a terrible cold pass and the best warm one; a tuner
	// that times first queries would pick delta(100).
	const ms = time.Millisecond
	deploy, passes := scriptedDeploy(t, map[string][]time.Duration{
		"delta(25)":  {700 * ms, 20 * ms},
		"delta(100)": {60 * ms, 50 * ms},
	})
	cands := []PolicyCandidate{{Policy: PolicyDelta, Delta: 25}, {Policy: PolicyDelta, Delta: 100}}
	res, err := tunePolicy(OptOptions(25), cands, 10, deploy, true)
	if err != nil {
		t.Fatal(err)
	}
	if res.Best != cands[0] {
		t.Errorf("Best = %v, want %v (the warm winner)", res.Best, cands[0])
	}
	if got := res.Trials[0].Mean; got != 2*ms {
		t.Errorf("delta(25) mean = %v, want 2ms: the timed pass over 10 roots, cold pass excluded", got)
	}
	if len(res.Final) != 0 {
		t.Errorf("Final = %v, want none: the incumbent is the winner", res.Final)
	}
	if passes["delta(25)"] != 2 || passes["delta(100)"] != 2 {
		t.Errorf("passes = %v, want one warm-up and one timed pass each", passes)
	}
}

func TestTunePolicyNeverDeploysBelowIncumbent(t *testing.T) {
	const ms = time.Millisecond
	cands := []PolicyCandidate{{Policy: PolicyDelta, Delta: 5}, {Policy: PolicyRho, Rho: 512}}
	rhoOpts := cands[1].Apply(OptOptions(25))
	rho := rhoOpts.PolicyString()

	// The sweep's winner got lucky (its second deployment is slow); the
	// incumbent delta(25), not even a candidate, holds in the head-to-head.
	deploy, _ := scriptedDeploy(t, map[string][]time.Duration{
		"delta(5)":  {90 * ms, 80 * ms},
		rho:         {10 * ms, 10 * ms, 10 * ms, 70 * ms},
		"delta(25)": {30 * ms, 26 * ms},
	})
	res, err := tunePolicy(OptOptions(25), cands, 1, deploy, true)
	if err != nil {
		t.Fatal(err)
	}
	incumbent := PolicyCandidate{Policy: PolicyDelta, Delta: 25}
	if res.Best != incumbent {
		t.Errorf("Best = %v, want the incumbent %v", res.Best, incumbent)
	}
	if len(res.Final) != 2 || res.Final[0] != (PolicyTrial{cands[1], 70 * ms}) ||
		res.Final[1] != (PolicyTrial{incumbent, 26 * ms}) {
		t.Errorf("Final = %v, want rho re-measured at 70ms then the incumbent at 26ms", res.Final)
	}

	// A winner that also wins the head-to-head is deployed.
	deploy, _ = scriptedDeploy(t, map[string][]time.Duration{
		"delta(5)":  {90 * ms},
		rho:         {10 * ms},
		"delta(25)": {26 * ms},
	})
	if res, err = tunePolicy(OptOptions(25), cands, 1, deploy, true); err != nil {
		t.Fatal(err)
	}
	if res.Best != cands[1] || len(res.Final) != 2 {
		t.Errorf("Best = %v, Final = %v; want %v confirmed against the incumbent", res.Best, res.Final, cands[1])
	}

	// Options that are not a runnable configuration have no incumbent.
	if res, err = tunePolicy(Options{Threads: 2}, cands, 1, deploy, true); err != nil {
		t.Fatal(err)
	}
	if res.Best != cands[1] || len(res.Final) != 0 {
		t.Errorf("Best = %v, Final = %v; want the sweep's winner unverified", res.Best, res.Final)
	}
}
