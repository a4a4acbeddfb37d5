//go:build linux

package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"syscall"
	"testing"
	"time"

	"parsssp"
)

// binaries builds the harness and cmd/ssspd into a directory of the
// test's own, so that "an ssspd of ours" can be told from any other by
// its path.
func binaries(t *testing.T) (perf, ssspd string) {
	t.Helper()
	dir := t.TempDir()
	perf, ssspd = filepath.Join(dir, "perf"), filepath.Join(dir, "ssspd")
	for out, pkg := range map[string]string{perf: "parsssp/perf", ssspd: "parsssp/cmd/ssspd"} {
		if msg, err := exec.Command("go", "build", "-o", out, pkg).CombinedOutput(); err != nil {
			t.Fatalf("building %s: %v\n%s", pkg, err, msg)
		}
	}
	return perf, ssspd
}

// running lists the pids of processes started from the binary at path.
func running(t *testing.T, path string) []string {
	t.Helper()
	cmdlines, err := filepath.Glob("/proc/[0-9]*/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	var pids []string
	for _, f := range cmdlines {
		raw, err := os.ReadFile(f)
		if err != nil {
			continue // exited meanwhile
		}
		if argv0, _, _ := bytes.Cut(raw, []byte{0}); string(argv0) == path {
			pids = append(pids, filepath.Base(filepath.Dir(f)))
		}
	}
	return pids
}

// awaitRunning polls until the number of processes of path satisfies ok.
func awaitRunning(t *testing.T, path string, ok func(n int) bool, what string) {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for !ok(len(running(t, path))) {
		if time.Now().After(deadline) {
			t.Fatalf("%s: ssspd processes %v", what, running(t, path))
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestContract runs the smallest workload both ways through the real
// command line and holds the output to BENCHMARK.json: exit status 0, a
// result object last, exactly the declared metrics, every answer
// correct, and no ssspd left behind.
func TestContract(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns ssspd meshes")
	}
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &decl); err != nil {
		t.Fatal(err)
	}
	var declared []string
	for _, w := range decl.Workloads {
		declared = append(declared, w.Name)
	}
	if !reflect.DeepEqual(declared, workloadNames()) {
		t.Errorf("BENCHMARK.json workloads %v, harness %v", declared, workloadNames())
	}

	perf, ssspd := binaries(t)
	for trace, metrics := range [][]struct{ Name, Unit string }{decl.EndToEnd, decl.PerLayer} {
		cmd := exec.Command(perf, "--workload", "small-burst", "--seed", "7", "--seconds", "1",
			"--trace", string(rune('0'+trace)), "-ssspd", ssspd, "-out", t.TempDir())
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			t.Fatalf("trace %d: %v\n%s", trace, err, out)
		}
		lines := strings.Split(strings.TrimSpace(string(out)), "\n")
		var res result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatalf("trace %d: last line is not a result object: %v\n%s", trace, err, out)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
			t.Errorf("trace %d: correct=%v attempted=%d failed=%d\n%s", trace, res.Correct, res.Attempted, res.Failed, out)
		}
		want := map[string]string{}
		for _, m := range metrics {
			want[m.Name] = m.Unit
		}
		got := map[string]string{}
		for name, m := range res.Metrics {
			got[name] = m.Unit
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("trace %d: metrics differ from BENCHMARK.json\n got %v\nwant %v", trace, sortedKeys(got), sortedKeys(want))
		}
		if trace == 0 {
			for name, m := range res.Metrics {
				if m.Value <= 0 {
					t.Errorf("end-to-end metric %s = %v; the contract wants it never 0", name, m.Value)
				}
			}
		}
		awaitRunning(t, ssspd, func(n int) bool { return n == 0 }, "after a finished run")
	}
}

// TestKilledHarnessLeavesNoMesh kills the harness mid-run, the way a
// driver's timeout would, and requires its mesh to go away by itself.
func TestKilledHarnessLeavesNoMesh(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns ssspd meshes")
	}
	perf, ssspd := binaries(t)
	for _, sig := range []syscall.Signal{syscall.SIGKILL, syscall.SIGTERM} {
		cmd := exec.Command(perf, "-workload", "small-burst", "-seconds", "30", "-ssspd", ssspd, "-out", t.TempDir())
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		awaitRunning(t, ssspd, func(n int) bool { return n == numRanks }, "waiting for the mesh")
		time.Sleep(300 * time.Millisecond) // into the set-ups or the window; either must clean up
		if err := cmd.Process.Signal(sig); err != nil {
			t.Fatal(err)
		}
		_ = cmd.Wait() // killed: the status says nothing
		awaitRunning(t, ssspd, func(n int) bool { return n == 0 }, "after "+sig.String())
	}
}

// TestTracedTransportKeepsEnginePath compares a query over traced
// transports with the same query over bare ones, in both fabrics: had
// the wrapper dropped an optional interface, the engine would take
// another path and the counts would move. Async mode needs the batch
// interfaces forwarded to run at all.
func TestTracedTransportKeepsEnginePath(t *testing.T) {
	for _, name := range []string{"small-burst", "grid-lib"} {
		w, _ := findWorkload(name)
		in, err := makeInputs(w, 3)
		if err != nil {
			t.Fatal(err)
		}
		async := options()
		async.ExecMode = parsssp.ExecAsync
		for _, opts := range []parsssp.Options{options(), async} {
			query := func(tr *tracer) *parsssp.Result {
				m, err := newMachine(w, in, opts, tr)
				if err != nil {
					t.Fatal(err)
				}
				defer m.Close()
				res, err := m.Query(in.roots[0])
				if err != nil {
					t.Fatalf("%s %v traced=%v: %v", name, opts.ExecMode, tr != nil, err)
				}
				if sum, _ := checksum(res.Dist); sum != in.sums[0] {
					t.Errorf("%s %v traced=%v: wrong distances", name, opts.ExecMode, tr != nil)
				}
				return res
			}
			tr := newTracer()
			traced, bare := query(tr), query(nil)
			if len(tr.spans) == 0 {
				t.Errorf("%s %v: no spans recorded", name, opts.ExecMode)
			}
			if opts.ExecMode == parsssp.ExecAsync {
				continue // its counts depend on message timing
			}
			if traced.Stats.Relax != bare.Stats.Relax || traced.Stats.Phases != bare.Stats.Phases ||
				traced.Stats.Traffic != bare.Stats.Traffic {
				t.Errorf("%s: traced and bare runs differ\ntraced %+v %d %+v\n  bare %+v %d %+v", name,
					traced.Stats.Relax, traced.Stats.Phases, traced.Stats.Traffic,
					bare.Stats.Relax, bare.Stats.Phases, bare.Stats.Traffic)
			}
		}
	}
}

func TestQuietQuartile(t *testing.T) {
	// Eight one-second blocks of ten queries at 1 ms, every other one hit
	// by a neighbour: three times the wall-clock, CPU and latency.
	r := &recorder{}
	at := time.Now()
	cpu := 0.0
	r.marks = append(r.marks, mark{at: at})
	for b := 0; b < 8; b++ {
		slow := 1.0
		if b%2 == 0 {
			slow = 3
		}
		for q := 0; q < 10; q++ {
			r.lat = append(r.lat, slow)
		}
		at = at.Add(time.Duration(slow * float64(time.Second)))
		cpu += 20 * slow
		r.marks = append(r.marks, mark{queries: len(r.lat), at: at, cpuMS: cpu})
	}
	s := r.summarize()
	if s.qps != 10 || s.p50 != 1 || s.p99 != 1 || s.cpuPerQuery != 2 || s.blocks != 8 {
		t.Errorf("summary %+v, want the undisturbed blocks' 10/s, 1 ms, 1 ms, 2 ms", s)
	}
	if p50, p99 := percentile([]float64{5, 1, 4, 2, 3}, 0.5), percentile([]float64{5, 1, 4, 2, 3}, 0.99); p50 != 3 || p99 != 5 {
		t.Errorf("percentiles %v %v, want 3 5", p50, p99)
	}
}
