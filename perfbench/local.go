package main

import (
	"fmt"
	"math"
	"time"

	gpsa "repro"
	"repro/internal/algorithms"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/vertexfile"
)

// local-pagerank: gpsa.OpenGraph + gpsa.RunOn(PageRank) for 5
// supersteps on R-MAT 2^18 V / 2^22 E with a persistent value file, so
// every superstep ends in a durable commit. Dense dispatch, the
// accumulator fold and BulkApply dominate. Jobs are short so that a run
// holds enough of them for medians.
const (
	localScale      = 18
	localEdgeFactor = 16
	localSteps      = 5
	localNominalRun = time.Second // one job on the reference 2-CPU host
)

// graphSetup is the set-up shared by every workload: generate, save and
// open an R-MAT graph, timing each layer call.
type graphSetup struct {
	csr              *graph.CSR
	path             string
	g                *gpsa.Graph
	gen, write, open []float64 // per repetition: s, s, ms
}

// setupGraph generates the workload's R-MAT graph, saves it to path and
// opens it, setupReps times; the last repetition's graph stays open.
// extra, when non-nil, runs at the end of each repetition, inside its
// timing.
func (e *env) setupGraph(scale, edgeFactor int, weighted bool, path string, extra func(rep int, csr *graph.CSR) error) (*graphSetup, []float64, error) {
	s := &graphSetup{path: path}
	var setup []float64
	for rep := 0; rep < setupReps; rep++ {
		if s.g != nil {
			if err := s.g.Close(); err != nil {
				return nil, nil, err
			}
			s.g, s.csr = nil, nil
		}
		id := e.tr.begin("setup", "setup", 0)
		t0 := time.Now()
		cfg := gen.RMATConfig{Vertices: 1 << scale, Edges: int64(edgeFactor) << scale, Seed: e.cfg.seed, Weighted: weighted}
		sp := e.tr.begin("gen", "gen.RMATGraph", id)
		csr, err := gen.RMATGraph(cfg)
		e.tr.end(sp)
		t1 := time.Now()
		if err != nil {
			return nil, nil, err
		}
		if err := e.tr.do("graph", "gpsa.SaveGraph", id, func(int64) error { return gpsa.SaveGraph(path, csr) }); err != nil {
			return nil, nil, err
		}
		t2 := time.Now()
		var g *gpsa.Graph
		if err := e.tr.do("graph", "gpsa.OpenGraph", id, func(int64) (err error) { g, err = gpsa.OpenGraph(path); return err }); err != nil {
			return nil, nil, err
		}
		t3 := time.Now()
		s.csr, s.g = csr, g
		if extra != nil {
			if err := extra(rep, csr); err != nil {
				return nil, nil, err
			}
		}
		setup = append(setup, time.Since(t0).Seconds())
		e.tr.end(id)
		s.gen = append(s.gen, t1.Sub(t0).Seconds())
		s.write = append(s.write, t2.Sub(t1).Seconds())
		s.open = append(s.open, ms(t3.Sub(t2)))
	}
	return s, setup, nil
}

func (e *env) addSetupLayer(s *graphSetup) {
	e.addLayer("gen.rmat_s", "s", median(s.gen), len(s.gen))
	e.addLayer("graph.write_s", "s", median(s.write), len(s.write))
	e.addLayer("graph.open_ms", "ms", median(s.open), len(s.open))
}

// plannedOps sizes a timed phase: the number of operations that take
// about --seconds on the reference host, at least min. A fixed amount of
// work per run keeps the rates comparable across commits.
func (e *env) plannedOps(nominal time.Duration, min int) int {
	n := int(math.Round(float64(e.cfg.seconds) * float64(time.Second) / float64(nominal)))
	return max(n, min)
}

func runLocal(e *env) error {
	s, setup, err := e.setupGraph(localScale, localEdgeFactor, false, e.path("local.gpsa"), nil)
	if err != nil {
		return err
	}
	defer s.g.Close()
	planned := e.plannedOps(localNominalRun, 2)

	// phaseRun runs the timed PageRank jobs, one per round; each gets its
	// own value file so every result can be checked after the phase.
	var files []string
	phaseRun := func(traced bool) (phase, []engineRun, error) {
		e.tr.setEnabled(traced)
		defer e.tr.setEnabled(e.cfg.trace)
		var rounds []round
		var out []engineRun
		rp := e.plan(planned)
		for rp.more(rounds) {
			vpath := e.path(fmt.Sprintf("local-%t-%d.gpvf", traced, len(rounds)))
			if err := resetPeakRSS(); err != nil {
				return phase{}, nil, err
			}
			e.attempted++
			var rd round
			m := startMeter()
			r, err := e.runOn(s.g, algorithms.PageRank{}, localSteps, vpath, 0)
			m.stop(&rd)
			if err != nil {
				return phase{}, nil, err
			}
			if rd.peakRSS, err = peakRSSMiB(); err != nil {
				return phase{}, nil, err
			}
			files = append(files, vpath)
			out = append(out, r)
			rd.messages = r.res.Messages
			rd.jobs = []float64{ms(rd.wall)}
			for _, st := range r.steps {
				rd.steps = append(rd.steps, ms(st.Duration))
			}
			rounds = append(rounds, rd)
		}
		return rp.finish(rounds), out, nil
	}

	plain, _, err := phaseRun(false)
	if err != nil {
		return err
	}
	e.addPhase(setup, plain)
	if e.cfg.trace {
		e.addSetupLayer(s)
		deltas := counterDeltas(metrics.CtrAccumFolded, metrics.CtrAccumDenseSegs, metrics.CtrAccumSparseSegs, metrics.CtrDiskWriteErrors)
		traced, tracedRuns, err := phaseRun(true)
		if err != nil {
			return err
		}
		d := deltas()
		e.addOverhead(plain, traced)
		e.coreLayer(tracedRuns, s.g.NumVertices(), d)
		if err := e.probeLayers(s.g, s.path, e.cfg.dir); err != nil {
			return err
		}
		e.addLayer("diskio.write_errors_per_job", "1/job", ratio(float64(d[metrics.CtrDiskWriteErrors]), float64(len(tracedRuns))), len(tracedRuns))
	}

	want := refPageRank(s.csr, localSteps)
	for _, f := range files {
		if err := checkValueFile(f, func(get func(int64) uint64) error { return checkPageRank(get, want) }); err != nil {
			e.fail("%s: %v", f, err)
		}
	}
	return nil
}

// checkValueFile opens a sealed value file and runs check on its newest
// payloads.
func checkValueFile(path string, check func(get func(int64) uint64) error) error {
	vf, err := vertexfile.Open(path)
	if err != nil {
		return err
	}
	err = check(vf.Value)
	if cerr := vf.Close(); err == nil {
		err = cerr
	}
	return err
}
