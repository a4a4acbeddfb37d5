package sssp

import (
	"bytes"
	"strings"
	"testing"
)

func TestPhaseLogDisabledByDefault(t *testing.T) {
	g := rmatTestGraph
	res := mustRun(t, g, 2, testRoot(g), OptOptions(25))
	if len(res.Stats.PhaseLog) != 0 {
		t.Errorf("phase log recorded without RecordPhases: %d entries", len(res.Stats.PhaseLog))
	}
}

func TestPhaseLogTimeline(t *testing.T) {
	g := rmatTestGraph
	src := testRoot(g)
	opts := OptOptions(25)
	opts.RecordPhases = true
	opts.Threads = 2
	res := mustRun(t, g, 3, src, opts)
	log := res.Stats.PhaseLog
	// Relaxations across the timeline must account for the totals.
	var relax int64
	kinds := map[PhaseKind]int{}
	for _, p := range log {
		relax += p.Relax
		kinds[p.Kind]++
		if p.Active < 0 || p.Relax < 0 || p.Duration < 0 {
			t.Fatalf("degenerate record %+v", p)
		}
		if p.Kind == PhaseBellmanFord && p.Bucket != -1 {
			t.Fatalf("Bellman-Ford record carries bucket %d", p.Bucket)
		}
	}
	if relax != res.Stats.Relax.Total() {
		t.Errorf("timeline relax sum %d != total %d", relax, res.Stats.Relax.Total())
	}
	if kinds[PhaseShort] == 0 || kinds[PhaseOuterShort] == 0 {
		t.Errorf("timeline missing phase kinds: %v", kinds)
	}
	// The timeline is finer-grained than Stats.Phases: the IOS outer-short
	// pass of each epoch gets its own record while Phases counts the whole
	// long-edge phase once, and every short or Bellman-Ford round is
	// followed by the record of its local sub-rounds.
	if got, want := kinds[PhaseLocal], kinds[PhaseShort]+kinds[PhaseBellmanFord]; got != want {
		t.Errorf("%d local records for %d short and Bellman-Ford rounds", got, want)
	}
	if got, want := int64(len(log)), res.Stats.Phases+int64(kinds[PhaseOuterShort]+kinds[PhaseLocal]); got != want {
		t.Errorf("timeline has %d entries, want %d (phases %d + outer-short %d + local %d)",
			got, want, res.Stats.Phases, kinds[PhaseOuterShort], kinds[PhaseLocal])
	}
	if res.Stats.HybridSwitched && kinds[PhaseBellmanFord] == 0 {
		t.Errorf("hybrid run recorded no Bellman-Ford phases: %v", kinds)
	}
	// Buckets must be non-decreasing until the Bellman-Ford tail.
	prev := int64(-1)
	for _, p := range log {
		if p.Kind == PhaseBellmanFord {
			break
		}
		if p.Bucket < prev {
			t.Fatalf("bucket order violated: %d after %d", p.Bucket, prev)
		}
		prev = p.Bucket
	}
}

func TestPhaseKindString(t *testing.T) {
	want := map[PhaseKind]string{
		PhaseShort:       "short",
		PhaseOuterShort:  "outer-short",
		PhaseLongPush:    "long-push",
		PhaseLongPull:    "long-pull",
		PhaseBellmanFord: "bellman-ford",
		PhaseLocal:       "local",
	}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("%d.String() = %q, want %q", k, k.String(), s)
		}
	}
	if PhaseKind(99).String() == "" {
		t.Error("unknown kind stringer empty")
	}
}

func TestPhaseLogPullRecorded(t *testing.T) {
	g := rmatTestGraph
	src := testRoot(g)
	mode := ModePull
	opts := PruneOptions(25)
	opts.ForceMode = &mode
	opts.RecordPhases = true
	res := mustRun(t, g, 2, src, opts)
	found := false
	for _, p := range res.Stats.PhaseLog {
		if p.Kind == PhaseLongPull && p.Relax > 0 {
			found = true
		}
	}
	if !found {
		t.Error("forced-pull run recorded no pull phases with work")
	}
}

func TestFormatTimeline(t *testing.T) {
	g := rmatTestGraph
	opts := OptOptions(25)
	opts.RecordPhases = true
	res := mustRun(t, g, 2, testRoot(g), opts)
	var buf bytes.Buffer
	if err := FormatTimeline(&buf, res.Stats.PhaseLog); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"bucket", "short", "total phase time"} {
		if !strings.Contains(out, want) {
			t.Errorf("timeline output missing %q:\n%s", want, out)
		}
	}
	if lines := strings.Count(out, "\n"); lines != len(res.Stats.PhaseLog)+2 {
		t.Errorf("timeline has %d lines for %d phases", lines, len(res.Stats.PhaseLog))
	}
}

func TestFormatTimelineEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := FormatTimeline(&buf, nil); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "empty") {
		t.Errorf("empty timeline message missing: %q", buf.String())
	}
}
