package sssp

import (
	"time"

	"parsssp/internal/comm"
)

// RelaxCounts breaks the paper's "work done" metric — the number of relax
// operations — down by mechanism. Following the paper's accounting, an
// edge relaxed through the pull mechanism contributes its request and its
// response separately.
type RelaxCounts struct {
	// ShortPush counts short-edge relaxations performed in short phases.
	ShortPush int64
	// OuterShortPush counts outer-short relaxations (IOS) performed in
	// long-edge phases.
	OuterShortPush int64
	// LongPush counts long-edge relaxations performed in push-mode
	// long-edge phases.
	LongPush int64
	// PullRequests counts pull requests sent.
	PullRequests int64
	// PullResponses counts pull responses sent.
	PullResponses int64
	// BellmanFord counts relaxations performed after the hybrid switch.
	BellmanFord int64
	// AsyncPush counts full-adjacency relaxations performed by the
	// asynchronous execution mode (which has no short/long or push/pull
	// split; see async.go).
	AsyncPush int64
	// RadiusPush counts full-adjacency relaxations performed by the
	// Radius Stepping policy's threshold epochs (radius.go).
	RadiusPush int64
	// RhoPush counts full-adjacency relaxations performed by the
	// ρ-stepping policy's batched extractions (rho.go).
	RhoPush int64
	// Skipped counts IOS- or pull-condition-suppressed relaxations
	// (edges inspected but provably useless).
	Skipped int64
}

// Total returns the paper's total relaxation count: every push relaxation
// plus requests and responses (pull edges count twice, as in Figure 3b's
// fair comparison).
func (r RelaxCounts) Total() int64 {
	return r.ShortPush + r.OuterShortPush + r.LongPush +
		r.PullRequests + r.PullResponses + r.BellmanFord + r.AsyncPush +
		r.RadiusPush + r.RhoPush
}

// Add accumulates other into r.
func (r *RelaxCounts) Add(other RelaxCounts) {
	r.ShortPush += other.ShortPush
	r.OuterShortPush += other.OuterShortPush
	r.LongPush += other.LongPush
	r.PullRequests += other.PullRequests
	r.PullResponses += other.PullResponses
	r.BellmanFord += other.BellmanFord
	r.AsyncPush += other.AsyncPush
	r.RadiusPush += other.RadiusPush
	r.RhoPush += other.RhoPush
	r.Skipped += other.Skipped
}

// BucketStats records one epoch's census, as plotted in Figure 7 and used
// by the Figure 4 phase-wise analysis.
type BucketStats struct {
	// Index is the bucket index k of this epoch.
	Index int64
	// Mode is the long-edge mechanism chosen.
	Mode Mode
	// ShortPhases is the number of short-edge phases in this epoch.
	ShortPhases int
	// ShortRelax is the number of short-edge relaxations in this epoch.
	ShortRelax int64
	// LongRelax is the number of long-edge (or outer-short) relaxations
	// or responses in this epoch.
	LongRelax int64
	// Requests is the pull-request count for this epoch: actual requests
	// in pull mode, the heuristic's would-be count in push mode.
	Requests int64
	// SelfEdges, BackwardEdges, ForwardEdges categorize the long push
	// relaxations received by destination bucket (census mode only).
	SelfEdges, BackwardEdges, ForwardEdges int64
	// Settled is the number of vertices settled by the end of this epoch.
	Settled int64
	// PushCost and PullCost are the decision heuristic's cost estimates.
	PushCost, PullCost int64
}

// Stats is the aggregate outcome of a distributed run.
type Stats struct {
	// Relax are the relaxation counters summed over ranks.
	Relax RelaxCounts
	// Phases is the total number of bulk-synchronous phases (short
	// phases, long phases, Bellman-Ford rounds).
	Phases int64
	// Epochs is the number of bucket epochs processed before any hybrid
	// switch.
	Epochs int64
	// HybridSwitched reports whether the Bellman-Ford switch fired.
	HybridSwitched bool
	// BFPhases is the number of Bellman-Ford rounds after the switch.
	BFPhases int64
	// LocalRounds is the largest per-rank count of local sub-rounds: the
	// scans a rank ran between two exchanges of a short, Bellman-Ford or
	// Radius round on vertices its own records activated. They are not
	// collectives and not counted in Phases; the merge takes the max.
	LocalRounds int64
	// Reached is the number of vertices with finite distance.
	Reached int64
	// BktTime is the paper's bucket-processing overhead: identifying
	// bucket members/actives, computing the next bucket, termination
	// checks.
	BktTime time.Duration
	// OtherTime is relaxation processing and communication.
	OtherTime time.Duration
	// Total is the wall-clock of the whole query.
	Total time.Duration
	// MaxRankRelax is the largest per-rank total relaxation count — the
	// load-imbalance indicator.
	MaxRankRelax int64
	// RankRelax holds each rank's total relaxation count (index = rank).
	RankRelax []int64
	// Buckets holds the per-epoch census (always index and mode; full
	// categories in census mode).
	Buckets []BucketStats
	// Decisions is the push/pull decision made for each epoch.
	Decisions []Mode
	// PhaseLog is the per-phase execution timeline (only when
	// Options.RecordPhases is set).
	PhaseLog []PhaseRecord
	// AsyncRounds is the largest per-rank count of asynchronous
	// relax-drain rounds (async mode only). Rounds are rank-local — there
	// are no phase barriers to align them — so the merge takes the max.
	AsyncRounds int64
	// AsyncProbes is the number of termination-detection probe rounds the
	// async run settled over (async mode only; collective, so identical
	// on every rank).
	AsyncProbes int64
	// Traffic aggregates wire counters over all ranks.
	Traffic comm.TrafficStats
}

// TEPS returns the traversed-edges-per-second figure for a run over a
// graph with m undirected edges: m divided by the total wall-clock, as in
// Graph500.
func (s *Stats) TEPS(m int64) float64 {
	if s.Total <= 0 {
		return 0
	}
	return float64(m) / s.Total.Seconds()
}

// GTEPS is TEPS / 1e9.
func (s *Stats) GTEPS(m int64) float64 { return s.TEPS(m) / 1e9 }

// Imbalance returns the load-imbalance factor max/mean of the per-rank
// relaxation counts: 1.0 is perfect balance, P is the worst case (all
// work on one rank). Returns 1 for empty or single-rank runs.
func (s *Stats) Imbalance() float64 {
	if len(s.RankRelax) < 2 {
		return 1
	}
	var sum, max int64
	for _, r := range s.RankRelax {
		sum += r
		if r > max {
			max = r
		}
	}
	if sum == 0 {
		return 1
	}
	mean := float64(sum) / float64(len(s.RankRelax))
	return float64(max) / mean
}

// mergeTraffic accumulates wire counters from one rank.
func (s *Stats) mergeTraffic(t comm.TrafficStats) {
	s.Traffic.ExchangeCalls += t.ExchangeCalls
	s.Traffic.BytesSent += t.BytesSent
	s.Traffic.BytesReceived += t.BytesReceived
	s.Traffic.MessagesSent += t.MessagesSent
	s.Traffic.RecordsSent += t.RecordsSent
	s.Traffic.RecordsReceived += t.RecordsReceived
	s.Traffic.AllreduceCalls += t.AllreduceCalls
	s.Traffic.BarrierCalls += t.BarrierCalls
}
