package main

import (
	"fmt"
	"time"

	gpsa "repro"
	"repro/internal/algorithms"
	"repro/internal/metrics"
)

// cluster-pagerank: gpsa.RunDistributed(PageRank) on a 2-node loopback
// cluster for 3 supersteps on R-MAT 2^16 V / 2^20 E. Node-side combining
// and wire frames dominate. One untimed gpsa.RunOn of the same job is the
// local timing reference. Jobs are short so that a run holds enough of
// them for medians.
const (
	clusterScale      = 16
	clusterEdgeFactor = 16
	clusterSteps      = 3
	clusterNodes      = 2
	clusterNominalRun = 1400 * time.Millisecond // one job on the reference 2-CPU host
)

func runCluster(e *env) error {
	s, setup, err := e.setupGraph(clusterScale, clusterEdgeFactor, false, e.path("cluster.gpsa"), nil)
	if err != nil {
		return err
	}
	defer s.g.Close()
	planned := e.plannedOps(clusterNominalRun, 2)
	prog := algorithms.PageRank{}

	type clusterRun struct {
		wall, cpu time.Duration
		res       *gpsa.ClusterResult
	}
	var outputs [][]uint64
	// phaseRun runs the timed cluster jobs, one per round.
	phaseRun := func(traced bool) (phase, []clusterRun, error) {
		e.tr.setEnabled(traced)
		defer e.tr.setEnabled(e.cfg.trace)
		var rounds []round
		var out []clusterRun
		rp := e.plan(planned)
		for rp.more(rounds) {
			if err := resetPeakRSS(); err != nil {
				return phase{}, nil, err
			}
			e.attempted++
			var rd round
			id := e.tr.begin("cluster", "gpsa.RunDistributed", 0)
			m := startMeter()
			res, vals, err := gpsa.RunDistributed(s.path, prog, gpsa.ClusterOptions{Nodes: clusterNodes, Supersteps: clusterSteps})
			m.stop(&rd)
			e.tr.end(id)
			if err != nil {
				return phase{}, nil, fmt.Errorf("gpsa.RunDistributed: %w", err)
			}
			if rd.peakRSS, err = peakRSSMiB(); err != nil {
				return phase{}, nil, err
			}
			outputs = append(outputs, vals)
			out = append(out, clusterRun{rd.wall, rd.cpu, res})
			rd.messages = res.Messages
			rd.jobs = []float64{ms(rd.wall)}
			for _, st := range res.Steps {
				rd.steps = append(rd.steps, ms(st.Duration))
			}
			rounds = append(rounds, rd)
		}
		return rp.finish(rounds), out, nil
	}

	// localRef runs the same job on the local engine, untimed.
	var refFiles []string
	localRef := func() (engineRun, error) {
		vpath := e.path(fmt.Sprintf("cluster-local-%d.gpvf", len(refFiles)))
		e.attempted++
		r, err := e.runOn(s.g, prog, clusterSteps, vpath, 0)
		if err == nil {
			refFiles = append(refFiles, vpath)
		}
		return r, err
	}

	plain, _, err := phaseRun(false)
	if err != nil {
		return err
	}
	e.addPhase(setup, plain)
	if _, err := localRef(); err != nil {
		return err
	}
	if e.cfg.trace {
		e.addSetupLayer(s)
		deltas := counterDeltas(metrics.CtrClusterRollbacks, metrics.CtrClusterRedials, metrics.CtrClusterChecksumFailures,
			metrics.CtrAccumFolded, metrics.CtrAccumDenseSegs, metrics.CtrAccumSparseSegs, metrics.CtrDiskWriteErrors)
		traced, tracedRuns, err := phaseRun(true)
		if err != nil {
			return err
		}
		ref, err := localRef()
		if err != nil {
			return err
		}
		d := deltas()
		e.addOverhead(plain, traced)
		e.coreLayer([]engineRun{ref}, s.g.NumVertices(), d)
		var walls []float64
		var msgs, delivered int64
		var wall, cpu time.Duration
		for _, r := range tracedRuns {
			walls = append(walls, ms(r.wall))
			msgs += r.res.Messages
			delivered += r.res.Delivered
			wall += r.wall
			cpu += r.cpu
		}
		e.addLayer("cluster.vs_local_x", "ratio", median(walls)/ms(ref.wall), len(walls))
		e.addLayer("cluster.combine_ratio", "ratio", ratio(float64(delivered), float64(msgs)), len(walls))
		e.addLayer("cluster.busy_cores", "cores", ratio(cpu.Seconds(), wall.Seconds()), len(walls))
		for _, c := range []string{metrics.CtrClusterRollbacks, metrics.CtrClusterRedials, metrics.CtrClusterChecksumFailures} {
			e.addLayer(c, "count", float64(d[c]), 1)
		}
		if err := e.probeLayers(s.g, s.path, e.cfg.dir); err != nil {
			return err
		}
		e.addLayer("diskio.write_errors_per_job", "1/job", ratio(float64(d[metrics.CtrDiskWriteErrors]), float64(len(tracedRuns)+1)), len(tracedRuns)+1)
	}

	want := refPageRank(s.csr, clusterSteps)
	for i, vals := range outputs {
		if int64(len(vals)) != s.csr.NumVertices {
			e.fail("cluster run %d: %d values for %d vertices", i, len(vals), s.csr.NumVertices)
			continue
		}
		if err := checkPageRank(func(v int64) uint64 { return vals[v] }, want); err != nil {
			e.fail("cluster run %d: %v", i, err)
		}
	}
	for _, f := range refFiles {
		if err := checkValueFile(f, func(get func(int64) uint64) error { return checkPageRank(get, want) }); err != nil {
			e.fail("%s: %v", f, err)
		}
	}
	return nil
}
