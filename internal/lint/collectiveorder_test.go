package lint_test

import (
	"testing"

	"parsssp/internal/lint"
)

// The fixtures reuse fixtureComm (transporterr_test.go): a minimal comm
// package at the real import path, so the type-based collective
// detection sees the same interfaces as the repository.

func TestCollectiveOrderDivergenceKinds(t *testing.T) {
	src := `package sssp

import (
	"errors"

	"parsssp/internal/comm"
)

var errBad = errors.New("bad")

// Kind 1: collective on one arm of a rank-varying branch.
func branchDiverge(t comm.Transport) error {
	if t.Rank() == 0 {
		if err := t.Barrier(); err != nil {
			return err
		}
	}
	return nil
}

// Kind 2: a rank-varying arm exits early, skipping the collective after
// the join on some ranks.
func earlyExit(t comm.Transport) error {
	if t.Rank() == 0 {
		return nil
	}
	return t.Barrier()
}

// Kind 3: rank-varying loop bound — ranks disagree on the repetition
// count. Both the counted loop and the range over per-rank data count.
func loopDiverge(t comm.Transport) error {
	for i := 0; i < t.Rank(); i++ {
		if err := t.Barrier(); err != nil {
			return err
		}
	}
	return nil
}

func rangeDiverge(t comm.Transport, perRank [][]byte) error {
	local := perRank[t.Rank()]
	for range local {
		if err := t.Barrier(); err != nil {
			return err
		}
	}
	return nil
}

// Kind 4: collective inside a case of a rank-varying switch.
func switchDiverge(t comm.Transport) error {
	switch t.Rank() {
	case 0:
		return t.Barrier()
	default:
		return nil
	}
}

// Kind 5: collective inside a select case — which case runs is
// timing-dependent and differs across ranks.
func selectDiverge(t comm.Transport, ch chan int) error {
	select {
	case <-ch:
		return t.Barrier()
	default:
		return nil
	}
}

// Divergence through a summarized local callee is still divergence.
func helperBarrier(t comm.Transport) error { return t.Barrier() }

func indirectDiverge(t comm.Transport) error {
	if t.Rank() == 0 {
		return helperBarrier(t)
	}
	return nil
}
`
	got := runFixture(t, map[string]string{
		"internal/comm/comm.go": fixtureComm,
		"internal/sssp/e.go":    src,
	}, lint.CollectiveOrder)
	wantFindings(t, got, []string{
		"e.go:14:13 collectiveorder", // branchDiverge
		"e.go:27:9 collectiveorder",  // earlyExit
		"e.go:34:13 collectiveorder", // loopDiverge
		"e.go:44:13 collectiveorder", // rangeDiverge
		"e.go:55:10 collectiveorder", // switchDiverge
		"e.go:66:10 collectiveorder", // selectDiverge
		"e.go:77:10 collectiveorder", // indirectDiverge via helperBarrier
	})
}

func TestCollectiveOrderUniformAndFailFastAreClean(t *testing.T) {
	src := `package sssp

import (
	"errors"

	"parsssp/internal/comm"
)

var errCorrupt = errors.New("corrupt")

// Uniform loop bound, uniform conditions, error-only early exits: the
// canonical superstep shape must stay clean.
func uniformSupersteps(t comm.Transport, rounds int) error {
	for i := 0; i < rounds; i++ {
		in, err := t.Exchange(nil)
		if err != nil {
			return err
		}
		_ = in
	}
	return t.Barrier()
}

// A rank-varying branch whose only exits return non-nil errors is the
// fail-fast shape: every rank aborts the mesh together (comm.Abort), so
// the collective after the join is exempt.
func failFast(t comm.Transport, bad bool) error {
	if t.Rank() > 0 && bad {
		return errCorrupt
	}
	return t.Barrier()
}

// Allreduce results are uniform by construction: branching on them and
// then performing a collective is the paper's main loop.
func allreduceDriven(t comm.Transport) error {
	for {
		k, err := t.AllreduceInt64([]int64{1}, comm.ReduceOp(0))
		if err != nil {
			return err
		}
		if k[0] == 0 {
			break
		}
		if err := t.Barrier(); err != nil {
			return err
		}
	}
	return t.Close()
}

// The admit decision arrives as a parameter (the ssspd rank-0-admits
// pattern): parameters are uniform under context-insensitive analysis,
// and the collective itself runs unconditionally on every rank.
func rank0Admits(t comm.Transport, rank0 bool, work chan int) error {
	var contrib int64
	if rank0 {
		contrib = int64(<-work)
	}
	_, err := t.AllreduceInt64([]int64{contrib}, comm.ReduceOp(0))
	return err
}
`
	got := runFixture(t, map[string]string{
		"internal/comm/comm.go": fixtureComm,
		"internal/sssp/u.go":    src,
	}, lint.CollectiveOrder)
	wantFindings(t, got, nil)
}

// TestCollectiveOrderPolicyDispatch pins the stepping-policy seam's SPMD
// contract: dispatching between per-policy drivers with different
// collective sequences is clean when the policy is uniform (an options
// field every rank holds identically — the engine's run() switch), and
// flagged when the selection depends on the rank (exactly why ssspd has
// no per-rank policy autodetection).
func TestCollectiveOrderPolicyDispatch(t *testing.T) {
	src := `package sssp

import (
	"parsssp/internal/comm"
)

// Each driver has its own collective schedule, mirroring the real
// engine: Δ's settle loop, Radius's threshold loop with an inner
// fixpoint, ρ's extract-exchange epochs. All are allreduce-driven.
func deltaDriver(t comm.Transport) error {
	for {
		k, err := t.AllreduceInt64([]int64{1}, comm.ReduceOp(0))
		if err != nil {
			return err
		}
		if k[0] == 0 {
			break
		}
		if _, err := t.Exchange(nil); err != nil {
			return err
		}
	}
	return nil
}

func radiusDriver(t comm.Transport) error {
	for {
		m, err := t.AllreduceInt64([]int64{1}, comm.ReduceOp(0))
		if err != nil {
			return err
		}
		if m[0] == 0 {
			break
		}
		for {
			act, err := t.AllreduceInt64([]int64{1}, comm.ReduceOp(1))
			if err != nil {
				return err
			}
			if act[0] == 0 {
				break
			}
			if _, err := t.Exchange(nil); err != nil {
				return err
			}
		}
	}
	return nil
}

func rhoDriver(t comm.Transport) error {
	for {
		k, err := t.AllreduceInt64([]int64{1}, comm.ReduceOp(0))
		if err != nil {
			return err
		}
		if k[0] == 0 {
			break
		}
		if _, err := t.Exchange(nil); err != nil {
			return err
		}
	}
	return nil
}

// The engine's run() shape: the policy is an options field, identical on
// every rank, so the dispatch is uniform even though the drivers'
// collective schedules differ.
func uniformPolicyDispatch(t comm.Transport, policy int) error {
	switch policy {
	case 1:
		return radiusDriver(t)
	case 2:
		return rhoDriver(t)
	default:
		return deltaDriver(t)
	}
}

// A rank-derived policy diverges the schedule: flagged.
func rankDerivedPolicy(t comm.Transport) error {
	if t.Rank()%2 == 1 {
		return radiusDriver(t)
	}
	return deltaDriver(t)
}
`
	got := runFixture(t, map[string]string{
		"internal/comm/comm.go": fixtureComm,
		"internal/sssp/p.go":    src,
	}, lint.CollectiveOrder)
	wantFindings(t, got, []string{
		"p.go:84:10 collectiveorder", // rankDerivedPolicy via radiusDriver
	})
}

// TestCollectiveOrderHeaderDerivedExit pins the fused schedule's loop
// shape (sssp.relaxRounds): the round loop has no Allreduce, and decides
// to stop from header words every rank prefixed to its Exchange frames.
// A value reduced from every rank's header — this rank's own words plus
// each peer's — is the same on every rank, so the exit is uniform and
// must be accepted without an allow directive. Deciding from this rank's
// own header alone is the bug the analyzer exists for: ranks whose
// frontier empties first leave the loop while their peers exchange on.
func TestCollectiveOrderHeaderDerivedExit(t *testing.T) {
	src := `package sssp

import (
	"parsssp/internal/comm"
)

// Accepted: every rank sums the same set of header words — its own,
// which never travel, and one per peer frame.
func headerReducedExit(t comm.Transport, out [][]byte, own uint64) error {
	for {
		in, err := t.Exchange(out)
		if err != nil {
			return err
		}
		active := own
		for src, frame := range in {
			if src == t.Rank() {
				continue
			}
			active += uint64(frame[0])
		}
		if active == 0 {
			return nil
		}
	}
}

// Flagged: the exit looks only at the frame this rank sent itself.
func localFrameExit(t comm.Transport, out [][]byte) error {
	for {
		in, err := t.Exchange(out)
		if err != nil {
			return err
		}
		if in[t.Rank()][0] == 0 {
			return nil
		}
	}
}

// Flagged: the exit looks only at this rank's own frontier, the count it
// would have put in its header.
func localCountExit(t comm.Transport, out [][]byte, frontier [][]uint32) error {
	for {
		if len(frontier[t.Rank()]) == 0 {
			return nil
		}
		if _, err := t.Exchange(out); err != nil {
			return err
		}
	}
}
`
	got := runFixture(t, map[string]string{
		"internal/comm/comm.go": fixtureComm,
		"internal/sssp/h.go":    src,
	}, lint.CollectiveOrder)
	wantFindings(t, got, []string{
		"h.go:31:14 collectiveorder", // localFrameExit
		"h.go:48:16 collectiveorder", // localCountExit
	})
}
