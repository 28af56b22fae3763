// Command perfbench is the repository benchmark. It runs one named
// workload against the system from outside, through its public calls,
// checks every output against sequential references, and prints every
// metric with its unit. The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}. With -trace 0
// the metrics are the end-to-end metrics; with -trace 1 the run is
// traced and the metrics are the per-layer ones.
//
// Usage, from the checkout root (normally through run.py, which builds
// this program first):
//
//	perfbench -workload local-pagerank -seed 1 -seconds 15 -trace 0
//
// See README.md for the workloads and the metric map.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// setupReps is how many times a run repeats its set-up; setup_s and the
// set-up layer timings are medians over them.
const setupReps = 3

// Paths relative to the checkout root, the working directory.
const (
	specFile = "BENCHMARK.json"    // names the metrics to report
	workDir  = ".bench_build/work" // scratch files, results and traces
)

type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	dir      string // scratch directory for this run's files
	source   string // digest of the source tree the binary was built from
	revision string // VCS revision of the checkout, if any
}

type metric struct {
	Name    string  `json:"name"`
	Unit    string  `json:"unit"`
	Value   float64 `json:"value"`
	Samples int     `json:"samples"`
}

// spec is the part of BENCHMARK.json this program reports against.
type spec struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func loadSpec(path string) (spec, error) {
	var s spec
	b, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(b, &s); err != nil {
		return s, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// reconcile checks ms against the metrics the spec names: each must be
// present with the spec's unit, and no other may appear. With
// fillMissing, a missing metric (a layer this workload does not
// exercise) is reported as 0 with no samples instead.
func reconcile(ms []metric, want []struct{ Name, Unit string }, fillMissing bool) ([]metric, error) {
	got := make(map[string]metric, len(ms))
	for _, m := range ms {
		if _, dup := got[m.Name]; dup {
			return nil, fmt.Errorf("metric %s reported twice", m.Name)
		}
		got[m.Name] = m
	}
	var out []metric
	for _, w := range want {
		m, ok := got[w.Name]
		switch {
		case !ok && !fillMissing:
			return nil, fmt.Errorf("metric %s not measured", w.Name)
		case !ok:
			m = metric{Name: w.Name, Unit: w.Unit}
		case m.Unit != w.Unit:
			return nil, fmt.Errorf("metric %s in %s, spec says %s", w.Name, m.Unit, w.Unit)
		}
		delete(got, w.Name)
		out = append(out, m)
	}
	for name := range got {
		return nil, fmt.Errorf("metric %s is not in the spec", name)
	}
	return out, nil
}

// env carries one run's configuration, tracer and report.
type env struct {
	cfg       config
	tr        *tracer
	e2e       []metric
	layer     []metric
	attempted int
	failed    int
	errs      []string
}

func (e *env) addE2E(name, unit string, v float64, n int) {
	e.e2e = append(e.e2e, metric{name, unit, v, n})
}

func (e *env) addLayer(name, unit string, v float64, n int) {
	e.layer = append(e.layer, metric{name, unit, v, n})
}

// fail records a failed or wrong operation.
func (e *env) fail(format string, args ...any) {
	e.failed++
	msg := fmt.Sprintf(format, args...)
	if len(e.errs) < 10 {
		e.errs = append(e.errs, msg)
	}
	fmt.Fprintln(os.Stderr, "perfbench: FAIL:", msg)
}

// path returns a file name inside the run's scratch directory.
func (e *env) path(name string) string { return filepath.Join(e.cfg.dir, name) }

// addPhase emits the end-to-end metrics of an untraced timed phase.
func (e *env) addPhase(setup []float64, p phase) {
	jobs, steps := p.jobs(), p.steps()
	e.addE2E("setup_s", "s", median(setup), len(setup))
	e.addE2E("msgs_per_s", "msg/s", ratio(float64(p.messages()), p.wall().Seconds()), len(p.used))
	e.addE2E("superstep_ms_p50", "ms", median(steps), len(steps))
	e.addE2E("job_ms_p50", "ms", median(jobs), len(jobs))
	e.addE2E("cpu_ms_per_job", "ms", p.cpuPerJob(), len(jobs))
	e.addE2E("peak_rss_mb", "MiB", median(p.peakRSS), len(p.peakRSS))
	var steal []float64
	for _, r := range p.rounds {
		steal = append(steal, r.steal)
	}
	fmt.Printf("rounds: %d run, %d clean, %d used; host steal share per round: median %.3f, max %.3f\n",
		len(p.rounds), countClean(p.rounds), len(p.used), median(steal), percentile(steal, 100))
}

// addOverhead reports what tracing cost: traced minus untraced.
func (e *env) addOverhead(plain, traced phase) {
	rate := func(p phase) float64 { return ratio(float64(p.messages()), p.wall().Seconds()) }
	e.addLayer("trace.overhead.msgs_per_s", "msg/s", rate(traced)-rate(plain), 2)
	e.addLayer("trace.overhead.job_ms_p50", "ms", median(traced.jobs())-median(plain.jobs()), 2)
}

var workloads = map[string]func(*env) error{
	"local-pagerank":   runLocal,
	"cluster-pagerank": runCluster,
	"serve-frontier":   runServe,
}

func main() {
	cfg, err := parseFlags()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func parseFlags() (config, error) {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload: local-pagerank, cluster-pagerank or serve-frontier")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed for every generated input")
	flag.IntVar(&cfg.seconds, "seconds", 10, "nominal length of the timed phase, in seconds")
	flag.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.StringVar(&cfg.source, "source", "unknown", "digest of the source tree")
	flag.StringVar(&cfg.revision, "revision", "unknown", "VCS revision of the checkout")
	flag.Parse()
	cfg.trace = trace == 1
	if _, ok := workloads[cfg.workload]; !ok || cfg.seconds < 1 || (trace != 0 && trace != 1) {
		return cfg, fmt.Errorf("bad arguments (workload %q, seconds %d, trace %d)", cfg.workload, cfg.seconds, trace)
	}
	return cfg, nil
}

// run executes the configured workload and prints its report, the JSON
// result line last.
func run(cfg config) error {
	sp, err := loadSpec(specFile)
	if err != nil {
		return err
	}
	cfg.dir = filepath.Join(workDir, cfg.workload)
	if err := os.RemoveAll(cfg.dir); err != nil {
		return err
	}
	if err := os.MkdirAll(cfg.dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(cfg.dir)

	runID := fmt.Sprintf("%s-seed%d-%d", cfg.workload, cfg.seed, time.Now().UnixNano())
	e := &env{cfg: cfg, tr: newTracer(runID)}
	e.tr.setEnabled(cfg.trace)
	if err := workloads[cfg.workload](e); err != nil {
		return err
	}

	host := fmt.Sprintf("nproc=%d gomaxprocs=%d go=%s revision=%s source=%s",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), cfg.revision, cfg.source)
	if e.e2e, err = reconcile(e.e2e, sp.EndToEnd, false); err != nil {
		return err
	}
	out := e.e2e
	if cfg.trace {
		self := e.tr.selfTimes()
		for _, l := range []string{"gen", "graph", "core", "vertexfile", "actor", "diskio", "cluster", "serve"} {
			e.addLayer("trace.self_s."+l, "s", self[l].Seconds(), 1)
		}
		e.addLayer("trace.spans", "count", float64(e.tr.count()), 1)
		tracePath := filepath.Join(workDir, "traces", runID+".json")
		if err := os.MkdirAll(filepath.Dir(tracePath), 0o755); err != nil {
			return err
		}
		if err := e.tr.write(tracePath); err != nil {
			return err
		}
		fmt.Printf("trace: %d spans written to %s\n", e.tr.count(), tracePath)
		if e.layer, err = reconcile(e.layer, sp.PerLayer, true); err != nil {
			return err
		}
		out = e.layer
	}

	fmt.Printf("host: %s\n", host)
	fmt.Printf("workload: %s seed=%d seconds=%d trace=%t attempted=%d failed=%d\n",
		cfg.workload, cfg.seed, cfg.seconds, cfg.trace, e.attempted, e.failed)
	for _, m := range e.e2e {
		fmt.Printf("end-to-end %-22s %16.6g %-6s (n=%d)\n", m.Name, m.Value, m.Unit, m.Samples)
	}
	for _, m := range e.layer {
		fmt.Printf("per-layer  %-38s %16.6g %-6s (n=%d)\n", m.Name, m.Value, m.Unit, m.Samples)
	}
	if len(e.errs) > 0 {
		fmt.Printf("failures: %s\n", strings.Join(e.errs, "; "))
	}

	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(out))
	for _, m := range out {
		metrics[m.Name] = value{m.Value, m.Unit}
	}
	result := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{e.failed == 0 && e.attempted > 0, e.attempted, e.failed, metrics}
	line, err := json.Marshal(result)
	if err != nil {
		return err
	}
	record := struct {
		Host   string          `json:"host"`
		Run    string          `json:"run"`
		Seed   int64           `json:"seed"`
		E2E    []metric        `json:"end_to_end"`
		Layer  []metric        `json:"per_layer"`
		Result json.RawMessage `json:"result"`
	}{host, runID, cfg.seed, e.e2e, e.layer, line}
	rec, err := json.MarshalIndent(record, "", "  ")
	if err != nil {
		return err
	}
	resultPath := filepath.Join(workDir, "results", runID+".json")
	if err := os.MkdirAll(filepath.Dir(resultPath), 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(resultPath, rec, 0o644); err != nil {
		return fmt.Errorf("writing result record: %w", err)
	}
	fmt.Println(string(line))
	return nil
}
