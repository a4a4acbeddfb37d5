package sssp

import (
	"fmt"
	"time"
)

// PhaseKind labels one bulk-synchronous phase in the execution timeline.
type PhaseKind int

const (
	// PhaseShort is a short-edge relaxation phase.
	PhaseShort PhaseKind = iota
	// PhaseOuterShort is the IOS outer-short push at the start of a
	// long-edge phase.
	PhaseOuterShort
	// PhaseLongPush is a push-mode long-edge phase.
	PhaseLongPush
	// PhaseLongPull is a pull-mode long-edge phase (requests+responses).
	PhaseLongPull
	// PhaseBellmanFord is a post-hybrid-switch relaxation round.
	PhaseBellmanFord
	// PhaseAsync is one rank-local relax-drain round of the asynchronous
	// execution mode. Unlike the other kinds it is not a collective: each
	// rank's rounds run unaligned with its peers', so a merged timeline
	// concatenates rather than zips them (see mergePhaseLogs).
	PhaseAsync
	// PhaseRadius is one fixpoint round of a Radius Stepping threshold
	// epoch (the Bucket field holds the threshold M, not a bucket index).
	PhaseRadius
	// PhaseRho is one batched extraction round of the ρ-stepping policy.
	PhaseRho
	// PhaseLocal sums the rank-local sub-rounds of the round logged just
	// before it (a short, Bellman-Ford or Radius round): the vertices its
	// own records re-activated and their scans, which never met the
	// exchange. Every such round logs one, possibly empty, so merged
	// timelines stay aligned; its time is inside that round's Duration.
	PhaseLocal
)

// String returns the phase kind name.
func (k PhaseKind) String() string {
	switch k {
	case PhaseShort:
		return "short"
	case PhaseOuterShort:
		return "outer-short"
	case PhaseLongPush:
		return "long-push"
	case PhaseLongPull:
		return "long-pull"
	case PhaseBellmanFord:
		return "bellman-ford"
	case PhaseAsync:
		return "async-round"
	case PhaseRadius:
		return "radius"
	case PhaseRho:
		return "rho"
	case PhaseLocal:
		return "local"
	default:
		return fmt.Sprintf("PhaseKind(%d)", int(k))
	}
}

// PhaseRecord is one timeline entry. In a merged Stats, Active and Relax
// are summed over ranks (globals) and Duration is the per-rank maximum.
type PhaseRecord struct {
	// Bucket is the epoch's bucket index, or -1 for Bellman-Ford rounds.
	Bucket int64
	// Kind is the phase type.
	Kind PhaseKind
	// Active is the number of vertices scanned in this phase.
	Active int64
	// Relax is the number of relax operations (incl. requests/responses)
	// the phase performed.
	Relax int64
	// Sent is the number of relax records a short, Bellman-Ford or
	// Radius round sent to other ranks (zero on the other kinds).
	Sent int64
	// Duration is the wall-clock of the phase.
	Duration time.Duration
}

// logPhase appends a timeline record when Options.RecordPhases is set.
func (r *queryState) logPhase(bucket int64, kind PhaseKind, active int,
	before RelaxCounts, start time.Time) {
	if !r.opts.RecordPhases {
		return
	}
	after := r.relaxTotals()
	r.stats.PhaseLog = append(r.stats.PhaseLog, PhaseRecord{
		Bucket:   bucket,
		Kind:     kind,
		Active:   int64(active),
		Relax:    after.Total() - before.Total(),
		Duration: since(start),
	})
}

// mergePhaseLogs combines per-rank timelines. BSP timelines align
// exactly (phases are lockstep collectives) and are zipped: Active and
// Relax summed, Duration maxed. Async timelines are rank-local and do
// not align, so rank 0's log is kept as the representative timeline —
// zipping unrelated rounds would produce nonsense.
func mergePhaseLogs(out *Stats, ranks []*RankResult) {
	if len(ranks) == 0 || len(ranks[0].Stats.PhaseLog) == 0 {
		return
	}
	out.PhaseLog = make([]PhaseRecord, len(ranks[0].Stats.PhaseLog))
	copy(out.PhaseLog, ranks[0].Stats.PhaseLog)
	if len(out.PhaseLog) > 0 && out.PhaseLog[0].Kind == PhaseAsync {
		return
	}
	for _, rr := range ranks[1:] {
		log := rr.Stats.PhaseLog
		for i := range out.PhaseLog {
			if i >= len(log) {
				break
			}
			out.PhaseLog[i].Active += log[i].Active
			out.PhaseLog[i].Relax += log[i].Relax
			out.PhaseLog[i].Sent += log[i].Sent
			if log[i].Duration > out.PhaseLog[i].Duration {
				out.PhaseLog[i].Duration = log[i].Duration
			}
		}
	}
}
