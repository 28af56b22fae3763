package main

import (
	"fmt"
	"time"

	gpsa "repro"
	"repro/internal/metrics"
)

// engineRun is one gpsa.RunOn call as the benchmark observed it.
type engineRun struct {
	wall  time.Duration
	cpu   time.Duration
	alloc uint64
	res   *gpsa.Result
	steps []gpsa.StepStats
}

// runOn executes prog on g through the facade with a persistent value file
// at vpath, closing the values afterwards. The run and each superstep
// (rebuilt from the Progress callback as end - StepStats.Duration) are
// traced under parent.
func (e *env) runOn(g *gpsa.Graph, prog gpsa.Program, supersteps int, vpath string, parent int64) (engineRun, error) {
	var r engineRun
	id := e.tr.begin("core", "gpsa.RunOn", parent)
	opts := gpsa.RunOptions{
		Supersteps: supersteps,
		ValuesPath: vpath,
		Progress: func(st gpsa.StepStats) {
			end := time.Now()
			e.tr.add("core", "superstep", id, end.Add(-st.Duration), end)
			r.steps = append(r.steps, st)
		},
	}
	alloc0, cpu0, t0 := totalAlloc(), metrics.ProcessCPUTime(), time.Now()
	vals, res, err := gpsa.RunOn(g, prog, opts)
	if err == nil {
		err = vals.Close()
	}
	r.wall, r.cpu = time.Since(t0), metrics.ProcessCPUTime()-cpu0
	r.alloc = totalAlloc() - alloc0
	r.res = res
	e.tr.end(id)
	if err != nil {
		return r, fmt.Errorf("gpsa.RunOn: %w", err)
	}
	return r, nil
}

// coreLayer derives the core per-layer metrics from engine runs made by
// the traced phase. numVertices sets the idle-superstep threshold.
func (e *env) coreLayer(runs []engineRun, numVertices int64, counters map[string]int64) {
	var dense, sparse, idle, overhead, dsk, csk []float64
	var msgs, delivered int64
	var alloc uint64
	var wall, cpu time.Duration
	for _, r := range runs {
		var stepSum time.Duration
		for _, st := range r.steps {
			d := ms(st.Duration)
			stepSum += st.Duration
			switch st.Accum.String() {
			case "dense":
				dense = append(dense, d)
			case "sparse":
				sparse = append(sparse, d)
			}
			if float64(st.Messages) < 0.01*float64(numVertices) {
				idle = append(idle, d)
			}
		}
		overhead = append(overhead, ms(r.wall-stepSum))
		msgs += r.res.Messages
		delivered += r.res.Delivered
		alloc += r.alloc
		wall += r.wall
		cpu += r.cpu
		dsk = append(dsk, skew(r.res.DispatcherMessages))
		csk = append(csk, skew(r.res.ComputerUpdates))
	}
	e.addLayer("core.step_ms_dense_p50", "ms", median(dense), len(dense))
	e.addLayer("core.step_ms_sparse_p50", "ms", median(sparse), len(sparse))
	e.addLayer("core.idle_step_ms_p50", "ms", median(idle), len(idle))
	e.addLayer("core.combine_ratio", "ratio", ratio(float64(delivered), float64(msgs)), len(runs))
	e.addLayer("core.alloc_bytes_per_msg", "B/msg", ratio(float64(alloc), float64(msgs)), len(runs))
	e.addLayer("core.busy_cores", "cores", ratio(cpu.Seconds(), wall.Seconds()), len(runs))
	e.addLayer("core.dispatcher_skew", "ratio", median(dsk), len(dsk))
	e.addLayer("core.computer_skew", "ratio", median(csk), len(csk))
	for _, c := range []string{metrics.CtrAccumFolded, metrics.CtrAccumDenseSegs, metrics.CtrAccumSparseSegs} {
		e.addLayer(c, "count", float64(counters[c]), 1)
	}
	e.addLayer("core.run_overhead_ms", "ms", median(overhead), len(overhead))
}

// counterDeltas snapshots the named counters; calling the returned
// function gives each counter's growth since the snapshot.
func counterDeltas(names ...string) func() map[string]int64 {
	before := make(map[string]int64, len(names))
	for _, n := range names {
		before[n] = metrics.Counter(n)
	}
	return func() map[string]int64 {
		out := make(map[string]int64, len(names))
		for _, n := range names {
			out[n] = metrics.Counter(n) - before[n]
		}
		return out
	}
}
