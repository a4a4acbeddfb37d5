package sssp

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"parsssp/internal/graph"
	"parsssp/internal/partition"
)

// The paper selects Δ by offline sweeps (§IV.C: "we tested various
// values of Δ ... Δ values between 10 and 50 offer the best
// performance"). TunePolicy automates that sweep and widens it across
// the stepping-policy axis: it shortlists policy+parameter candidates
// from the request-estimator weight histograms, times trial queries for
// each over a QueryPool's slots, and returns the fastest configuration.
// This is the "future work" knob the paper leaves manual — no single Δ
// (or single policy; see PAPERS.md on ρ-stepping) wins across graph
// families.

// DefaultDeltaCandidates is the paper's tested range.
var DefaultDeltaCandidates = []graph.Weight{5, 10, 25, 40, 50, 100}

// PolicyCandidate is one policy+parameter configuration in a TunePolicy
// sweep. Only the parameter of the named policy is read: Delta for
// PolicyDelta, RadiusK for PolicyRadius, Rho for PolicyRho (zero meaning
// the engine default, as in Options).
type PolicyCandidate struct {
	Policy  SteppingPolicy
	Delta   graph.Weight
	RadiusK int
	Rho     int
}

// String renders the candidate as "delta(25)", "radius(32)", "rho(4096)".
func (c PolicyCandidate) String() string {
	o := Options{Policy: c.Policy, Delta: c.Delta, RadiusK: c.RadiusK, Rho: c.Rho}
	return o.PolicyString()
}

// Apply reconfigures opts for this candidate, preserving every
// policy-agnostic field. Switching to a non-Δ policy strips the paper's
// Δ-only heuristics (Options.Validate rejects them otherwise) — the
// tuner compares each policy in its valid configuration, not Δ's. This
// is also how a caller deploys the tuner's winner: TunePolicy's Best
// applied to the production options.
func (c PolicyCandidate) Apply(opts Options) Options {
	t := opts
	t.Policy = c.Policy
	switch c.Policy {
	case PolicyRadius, PolicyRho:
		t.RadiusK = c.RadiusK
		t.Rho = c.Rho
		t.Prune = false
		t.IOS = false
		t.Hybrid = false
		t.Census = false
		t.ForceMode = nil
		t.DecisionSequence = nil
		if t.Delta < 1 {
			t.Delta = 1
		}
	default:
		t.Delta = c.Delta
	}
	return t
}

// incumbentCandidate names the configuration opts already is, in the
// form Apply would reproduce it from.
func incumbentCandidate(opts Options) PolicyCandidate {
	c := PolicyCandidate{Policy: opts.Policy}
	switch opts.Policy {
	case PolicyRadius:
		c.RadiusK = opts.RadiusK
	case PolicyRho:
		c.Rho = opts.Rho
	default:
		c.Delta = opts.Delta
	}
	return c
}

// validate rejects out-of-range candidate parameters.
func (c PolicyCandidate) validate() error {
	switch c.Policy {
	case PolicyDelta:
		if c.Delta < 1 {
			return fmt.Errorf("sssp: candidate Δ %d invalid", c.Delta)
		}
	case PolicyRadius:
		if c.RadiusK < 0 {
			return fmt.Errorf("sssp: candidate radius k %d invalid", c.RadiusK)
		}
	case PolicyRho:
		if c.Rho < 0 {
			return fmt.Errorf("sssp: candidate ρ %d invalid", c.Rho)
		}
	default:
		return fmt.Errorf("sssp: unknown SteppingPolicy %d", int(c.Policy))
	}
	return nil
}

// PolicyTrial is one measured candidate of a TunePolicy sweep.
type PolicyTrial struct {
	Candidate PolicyCandidate
	// Mean is the batch wall-clock divided by the root count.
	Mean time.Duration
}

// PolicyTuneResult reports a cross-policy sweep.
type PolicyTuneResult struct {
	// Best is the configuration to deploy: the sweep's fastest candidate,
	// unless the closing head-to-head (Final) showed the caller's own
	// configuration to be at least as fast.
	Best PolicyCandidate
	// Trials lists every candidate's measurement in sweep order.
	Trials []PolicyTrial
	// Final is the closing head-to-head: the sweep's winner measured
	// again, then the incumbent — the caller's opts as given — measured
	// the same way, back to back. Empty when there is nothing to verify:
	// the incumbent is not a runnable configuration (a caller passing
	// only policy-agnostic fields), or it is the sweep's winner itself.
	Final []PolicyTrial
}

// TuneResult reports a Δ-only sweep (TuneDelta).
type TuneResult struct {
	// Best is the fastest candidate.
	Best graph.Weight
	// Trials maps each candidate to its mean query time.
	Trials map[graph.Weight]time.Duration
}

// tuneSlots bounds the per-candidate pool size: enough concurrency to
// overlap root queries, not enough to drown the measurement in scheduler
// noise.
const tuneSlots = 4

// TunePolicy measures opts under each candidate configuration over the
// given roots and returns the fastest. A nil candidates slice sweeps
// ShortlistPolicyCandidates(g).
//
// Candidates are measured one after another — the graph plane (edge
// classification, radii, quantums, histograms) depends on the policy and
// its parameter, so each candidate builds its own QueryPool — but within
// a candidate the root queries are independent and run concurrently over
// the pool's slots. Every measurement is one untimed warm-up pass over
// the roots followed by one timed pass: a pool's first queries grow
// every buffer from nothing, and timing them ranks candidates by their
// cold start rather than by the steady state a deployment runs in. Each
// trial's mean is the timed pass's wall-clock divided by the root count:
// the throughput a pool deployment of that configuration would see,
// which is the quantity a serving configuration wants tuned (per-query
// latencies under concurrency include scheduler interleaving and would
// double-count busy cores).
//
// The sweep's winner is then re-measured against the incumbent — opts
// exactly as the caller runs them today — and Best is the incumbent
// unless the winner beat it in that head-to-head, so deploying Best is
// never a step down from what the caller had (see PolicyTuneResult.Final).
func TunePolicy(g *graph.Graph, numRanks int, roots []graph.Vertex,
	opts Options, candidates []PolicyCandidate) (*PolicyTuneResult, error) {
	if candidates == nil {
		candidates = ShortlistPolicyCandidates(g)
	}
	deploy, err := poolDeployer(g, numRanks, roots)
	if err != nil {
		return nil, err
	}
	return tunePolicy(opts, candidates, len(roots), deploy, true)
}

// deployFunc stands up one configuration for measurement: pass runs
// every root once over it, done tears it down. TunePolicy's is a
// QueryPool; tests substitute a scripted one.
type deployFunc func(trial Options) (pass func() error, done func() error, err error)

// poolDeployer returns the deployFunc that measures a configuration on a
// QueryPool, the roots running concurrently over its slots.
func poolDeployer(g *graph.Graph, numRanks int, roots []graph.Vertex) (deployFunc, error) {
	if len(roots) == 0 {
		return nil, fmt.Errorf("sssp: tuning needs at least one root")
	}
	slots := tuneSlots
	if len(roots) < slots {
		slots = len(roots)
	}
	return func(trial Options) (func() error, func() error, error) {
		pool, err := NewQueryPool(g, numRanks, slots, trial)
		if err != nil {
			return nil, nil, err
		}
		pass := func() error {
			errs := make([]error, len(roots))
			var wg sync.WaitGroup
			for i, root := range roots {
				wg.Add(1)
				go func(i int, root graph.Vertex) {
					defer wg.Done()
					_, errs[i] = pool.Query(root)
				}(i, root)
			}
			wg.Wait()
			return errors.Join(errs...)
		}
		return pass, pool.Close, nil
	}, nil
}

// tunePolicy is the sweep and, when verify is set, the closing
// head-to-head against the incumbent; see TunePolicy.
func tunePolicy(opts Options, candidates []PolicyCandidate, nRoots int,
	deploy deployFunc, verify bool) (*PolicyTuneResult, error) {
	if len(candidates) == 0 {
		return nil, fmt.Errorf("sssp: TunePolicy needs at least one candidate")
	}
	// measure deploys trial and returns its warm per-root mean: one
	// untimed pass, then one timed pass.
	measure := func(c PolicyCandidate, trial Options) (PolicyTrial, error) {
		pass, done, err := deploy(trial)
		if err != nil {
			return PolicyTrial{}, fmt.Errorf("sssp: tuning %s: %w", c, err)
		}
		err = pass()
		var batch time.Duration
		if err == nil {
			start := now()
			err = pass()
			batch = since(start)
		}
		if err = errors.Join(err, done()); err != nil {
			return PolicyTrial{}, fmt.Errorf("sssp: tuning %s: %w", c, err)
		}
		return PolicyTrial{Candidate: c, Mean: batch / time.Duration(nRoots)}, nil
	}
	res := &PolicyTuneResult{Trials: make([]PolicyTrial, 0, len(candidates))}
	var best time.Duration
	for _, c := range candidates {
		if err := c.validate(); err != nil {
			return nil, err
		}
		trial, err := measure(c, c.Apply(opts))
		if err != nil {
			return nil, err
		}
		if len(res.Trials) == 0 || trial.Mean < best {
			best, res.Best = trial.Mean, c
		}
		res.Trials = append(res.Trials, trial)
	}
	incumbent := incumbentCandidate(opts)
	if !verify || opts.Validate() != nil || incumbent == res.Best {
		return res, nil
	}
	winner, err := measure(res.Best, res.Best.Apply(opts))
	if err != nil {
		return nil, err
	}
	held, err := measure(incumbent, opts)
	if err != nil {
		return nil, err
	}
	res.Final = []PolicyTrial{winner, held}
	if held.Mean <= winner.Mean {
		res.Best = incumbent
	}
	return res, nil
}

// ShortlistPolicyCandidates derives a candidate grid from the graph's
// weight distribution, read off the request-estimator histograms: it
// builds the one-rank Δ=1 histogram plane (bins then span the full
// weight range [1, maxW+1)), aggregates the per-vertex cumulative rows
// into a global weight CDF, and places Δ candidates at the CDF's
// quartile boundaries — a bucket width at the q-quantile weight makes
// roughly a q-fraction of edges short. The non-Δ policies contribute
// fixed parameter grids (their quantums already adapt to the graph
// through the plane's weight statistics).
//
// Degenerate weight ranges (maxW ≤ 1, or an empty graph) fall back to
// DefaultDeltaCandidates for the Δ entries.
func ShortlistPolicyCandidates(g *graph.Graph) []PolicyCandidate {
	var out []PolicyCandidate
	for _, d := range shortlistDeltas(g) {
		out = append(out, PolicyCandidate{Policy: PolicyDelta, Delta: d})
	}
	for _, k := range []int{8, 32} {
		out = append(out, PolicyCandidate{Policy: PolicyRadius, RadiusK: k})
	}
	for _, rho := range []int{1024, 4096} {
		out = append(out, PolicyCandidate{Policy: PolicyRho, Rho: rho})
	}
	return out
}

// shortlistDeltas reads Δ candidates off the global weight CDF.
func shortlistDeltas(g *graph.Graph) []graph.Weight {
	maxW := g.MaxWeight()
	if g.NumVertices() == 0 || maxW <= 1 {
		return DefaultDeltaCandidates
	}
	pd, err := partition.New(partition.Block, g.NumVertices(), 1)
	if err != nil {
		return DefaultDeltaCandidates
	}
	histOpts := Options{Delta: 1, Prune: true, Estimator: EstimatorHistogram}
	plane, err := newRankGraph(g, pd, 0, &histOpts, maxW)
	if err != nil {
		return DefaultDeltaCandidates
	}
	// Aggregate the per-vertex cumulative rows: cum[j] is the number of
	// edges with weight in [1, boundary_j), boundary_j = 1 + maxW·j/bins.
	var cum [histBins + 1]int64
	for li := 0; li < plane.nLocal; li++ {
		base := li * (histBins + 1)
		for j := 1; j <= histBins; j++ {
			cum[j] += int64(plane.hist[base+j])
		}
	}
	total := cum[histBins]
	if total == 0 {
		return DefaultDeltaCandidates
	}
	// The lowest quantile is deliberately sub-quartile: the paper's sweep
	// found Δ in [10, 50] best on its skewed families, and one bin width
	// (the smallest boundary the histogram resolves) lands in that range
	// for byte-valued weights.
	span := graph.Dist(maxW)
	var out []graph.Weight
	for _, q := range []float64{0.125, 0.25, 0.5, 1.0} {
		target := int64(float64(total) * q)
		j := 1
		for j < histBins && cum[j] < target {
			j++
		}
		d := graph.Weight(1 + span*graph.Dist(j)/histBins)
		if d < 1 {
			d = 1
		}
		if len(out) == 0 || out[len(out)-1] != d {
			out = append(out, d)
		}
	}
	return out
}

// TuneDelta measures opts with each candidate Δ over the given roots and
// returns the candidate with the lowest total time; the Δ-only
// compatibility form of TunePolicy. The opts' other fields (heuristics,
// threads) are preserved.
func TuneDelta(g *graph.Graph, numRanks int, roots []graph.Vertex,
	opts Options, candidates []graph.Weight) (*TuneResult, error) {
	if len(candidates) == 0 {
		candidates = DefaultDeltaCandidates
	}
	pcs := make([]PolicyCandidate, len(candidates))
	for i, d := range candidates {
		pcs[i] = PolicyCandidate{Policy: PolicyDelta, Delta: d}
	}
	deploy, err := poolDeployer(g, numRanks, roots)
	if err != nil {
		return nil, err
	}
	// No incumbent here: opts.Delta is only the carrier the candidates
	// overwrite, and Best must come from the candidate grid.
	pres, err := tunePolicy(opts, pcs, len(roots), deploy, false)
	if err != nil {
		return nil, err
	}
	res := &TuneResult{Best: pres.Best.Delta,
		Trials: make(map[graph.Weight]time.Duration, len(pres.Trials))}
	for _, tr := range pres.Trials {
		res.Trials[tr.Candidate.Delta] = tr.Mean
	}
	return res, nil
}
