//go:build linux

// Command perf is the repository's benchmark: what a client of a real
// two-process `ssspd -serve` TCP mesh sees (and, for the long-diameter
// case ssspd cannot load, what a caller of parsssp.NewQueryPool sees),
// plus a traced in-process replay of the same op stream that attributes
// a query's time to the layers that spent it. See README.md.
//
// Two ways to run it, from the module root:
//
//	go run ./perf -seed 1             every workload, each in its own child process
//	go run ./perf -seed 1 -trace 1    the per-layer metrics and perf/out/trace-*.json
//	bash perf/run.sh --workload W --seed N --seconds S --trace 0|1
//
// The last form is the BENCHMARK.json contract: one workload, one JSON
// object as the last line of standard output.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
)

// metric is one reported number. Note carries what a reader needs beside
// it (a sample count, the base of a ratio); it is printed, not exported.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	note  string
}

// result is the object the benchmark contract asks for.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// config is what every workload run needs.
type config struct {
	seed    uint64
	seconds float64
	ssspd   string // path of the built cmd/ssspd binary
	outDir  string // where span files go
}

func main() {
	var (
		name    = flag.String("workload", "", "run one workload and print the result object (default: all, each in a child process)")
		seed    = flag.Uint64("seed", 1, "seed of every generated input: graph, roots, update endpoints")
		seconds = flag.Float64("seconds", 20, "length of the measured window; whole passes over the root list run until it has elapsed")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from the traced replay")
		ssspd   = flag.String("ssspd", "", "path of a built cmd/ssspd (default: build it into .bench_build/)")
		outDir  = flag.String("out", filepath.Join("perf", "out"), "directory of the trace-<workload>.json span files")
	)
	flag.Parse()
	if flag.NArg() > 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perf [-workload name] [-seed n] [-seconds s] [-trace 0|1]")
		os.Exit(2)
	}
	cfg := config{seed: *seed, seconds: *seconds, ssspd: *ssspd, outDir: *outDir}

	// A signal must not leave a mesh behind: every child lives in a
	// process group the handler kills (see mesh.go) before exiting.
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM, syscall.SIGHUP)
	go func() {
		<-sigs
		killChildren()
		os.Exit(1)
	}()

	if cfg.ssspd == "" {
		path, err := buildSsspd()
		if err != nil {
			fatal(err)
		}
		cfg.ssspd = path
	}
	if *name == "" {
		os.Exit(runAll(cfg, *trace))
	}
	w, ok := findWorkload(*name)
	if !ok {
		fatal(fmt.Errorf("unknown workload %q (have %s)", *name, strings.Join(workloadNames(), ", ")))
	}
	printEnv(cfg)
	var res *result
	var err error
	if *trace == 1 {
		res, err = runLayers(w, cfg)
	} else {
		res, err = runEndToEnd(w, cfg)
	}
	killChildren()
	if err != nil {
		fatal(err)
	}
	printMetrics(w.name, res)
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

func fatal(err error) {
	killChildren()
	fmt.Fprintln(os.Stderr, "perf:", err)
	os.Exit(1)
}

// buildSsspd builds cmd/ssspd from the checkout the harness runs in.
func buildSsspd() (string, error) {
	path, err := filepath.Abs(filepath.Join(".bench_build", "ssspd"))
	if err != nil {
		return "", err
	}
	out, err := exec.Command("go", "build", "-o", path, "./cmd/ssspd").CombinedOutput()
	if err != nil {
		return "", fmt.Errorf("building cmd/ssspd (run from the module root): %v\n%s", err, out)
	}
	return path, nil
}

// runAll runs every workload in its own child process, so that peak RSS
// and heap state belong to one workload, and returns the exit code.
// The quiet-machine guard lives here: a workload whose calibration
// kernel ran more than 10 % apart before and after it is run again,
// once per harness run.
func runAll(cfg config, trace int) int {
	self, err := os.Executable()
	if err != nil {
		fatal(err)
	}
	retried := false
	code := 0
	for _, w := range workloads {
		res, drift, err := runChild(self, w.name, cfg, trace)
		if err == nil && !retried && drift > 0.10 {
			retried = true
			fmt.Printf("# %s: calibration drifted %.0f %% across the run; running it once more\n", w.name, 100*drift)
			res, _, err = runChild(self, w.name, cfg, trace)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "perf: %s: %v\n", w.name, err)
			code = 1
			continue
		}
		if !res.Correct {
			fmt.Fprintf(os.Stderr, "perf: %s: %d of %d operations failed\n", w.name, res.Failed, res.Attempted)
			code = 1
		}
	}
	return code
}

// runChild runs one workload in a child and returns its result object
// and calibration drift, passing everything else the child prints
// straight through.
func runChild(self, name string, cfg config, trace int) (*result, float64, error) {
	cmd := exec.Command(self, "-workload", name, "-seed", fmt.Sprint(cfg.seed),
		"-seconds", fmt.Sprint(cfg.seconds), "-trace", fmt.Sprint(trace),
		"-ssspd", cfg.ssspd, "-out", cfg.outDir)
	cmd.Stderr = os.Stderr
	// SIGTERM on our death reaches the child's handler, which kills its mesh.
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGTERM}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, 0, err
	}
	if err := cmd.Start(); err != nil {
		return nil, 0, err
	}
	track(cmd.Process.Pid)
	defer untrack(cmd.Process.Pid)
	var last []byte
	var drift float64
	sc := bufio.NewScanner(stdout)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if bytes.HasPrefix(sc.Bytes(), []byte(`{"correct"`)) {
			last = append(last[:0], sc.Bytes()...)
			continue
		}
		// The child's own report of the guard; see calibration.report.
		_, _ = fmt.Sscanf(sc.Text(), "# calib drift=%g", &drift)
		fmt.Println(sc.Text())
	}
	_, _ = io.Copy(io.Discard, stdout) // a line over the scanner's limit: let the child finish
	if err := cmd.Wait(); err != nil {
		return nil, 0, err
	}
	var res result
	if err := json.Unmarshal(last, &res); err != nil {
		return nil, 0, fmt.Errorf("no result object: %v", err)
	}
	return &res, drift, nil
}

// printEnv records what the numbers depend on besides the code.
func printEnv(cfg config) {
	kernel, _ := os.ReadFile("/proc/sys/kernel/osrelease")
	fmt.Printf("# env nproc=%d GOMAXPROCS=%d go=%s kernel=%s seed=%d seconds=%g\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(),
		strings.TrimSpace(string(kernel)), cfg.seed, cfg.seconds)
}

// printMetrics prints every metric by name with its unit.
func printMetrics(name string, res *result) {
	for _, k := range sortedKeys(res.Metrics) {
		m := res.Metrics[k]
		fmt.Printf("%-12s %-36s %14.4f %-6s %s\n", name, k, m.Value, m.Unit, m.note)
	}
	frac := float64(res.Failed) / float64(res.Attempted)
	fmt.Printf("%-12s %-36s %14.4f %-6s %d failed of %d attempted\n", name, "fail_frac", frac, "ratio", res.Failed, res.Attempted)
}
