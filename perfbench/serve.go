package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	gpsa "repro"
	"repro/internal/algorithms"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/serve"
)

// serve-frontier: an in-process serve.NewServer on 127.0.0.1:0 over a
// weighted R-MAT 2^16 V / 2^20 E. A closed loop of two HTTP clients each
// POST /v1/jobs and poll GET /v1/jobs/{id} until the job is terminal. The
// seeded stream is 75% fresh BFS and SSSP jobs (3:1) rooted at vertices
// with out-degree > 0 and 25% exact repeats of the client's own completed
// specs, which the result cache answers in the POST itself.
// Low-frontier traversals make the fixed per-superstep cost dominate.
const (
	serveScale      = 16
	serveEdgeFactor = 16
	serveClients    = 2
	serveNominalJob = 90 * time.Millisecond // closed-loop job completion interval on the reference host
	serveWindow     = time.Second           // one round of the stream
	servePoll       = 2 * time.Millisecond
	serveGraph      = "g.gpsa"
)

type jobItem struct {
	spec   serve.JobSpec
	repeat int // index+1 of the client's earlier fresh spec to repeat; 0 = fresh
}

// rootSource hands out distinct roots, so no two fresh specs coincide.
type rootSource struct {
	roots []int64
	next  int
}

func newRootSource(g *graph.CSR, rng *rand.Rand) *rootSource {
	var roots []int64
	for v := int64(0); v < g.NumVertices; v++ {
		if g.Indptr[v+1] > g.Indptr[v] {
			roots = append(roots, v)
		}
	}
	rng.Shuffle(len(roots), func(i, j int) { roots[i], roots[j] = roots[j], roots[i] })
	return &rootSource{roots: roots}
}

func (r *rootSource) take() int64 {
	v := r.roots[r.next%len(r.roots)]
	r.next++
	return v
}

// makeStreams builds each client's seeded job stream, n jobs in all. The
// mix is exact rather than drawn per job, so seeds differ only in roots
// and order: every block of 4 jobs holds one repeat, and every block of 4
// fresh jobs one SSSP.
func makeStreams(rng *rand.Rand, roots *rootSource, n int) [][]jobItem {
	streams := make([][]jobItem, serveClients)
	for c := range streams {
		fresh, ssspAt, repeatAt := 0, rng.Intn(4), 0
		for i := 0; i < n/serveClients; i++ {
			if i%4 == 0 {
				// The block's repeat slot; never before the first fresh job.
				repeatAt = i + rng.Intn(4)
				if i == 0 {
					repeatAt = 1 + rng.Intn(3)
				}
			}
			if i == repeatAt {
				streams[c] = append(streams[c], jobItem{repeat: rng.Intn(fresh) + 1})
				continue
			}
			algo := "bfs"
			if fresh%4 == ssspAt {
				algo = "sssp"
			}
			streams[c] = append(streams[c], jobItem{spec: serve.JobSpec{Graph: serveGraph, Algo: algo, Root: roots.take()}})
			fresh++
			if fresh%4 == 0 {
				ssspAt = rng.Intn(4)
			}
		}
	}
	return streams
}

// jobRecord is one job as the client saw it.
type jobRecord struct {
	spec      serve.JobSpec
	hit       bool    // answered from the result cache in the POST
	latency   float64 // ms, POST until a terminal status was seen
	submit    float64 // ms, POST round trip
	queue     float64 // ms, POST until the first "running" poll; -1 if never seen
	status    string
	values    string
	result    *serve.JobResult
	errorText string
}

type client struct {
	base string
	hc   *http.Client
	tr   *tracer
}

func (c *client) do(method, path string, body []byte, parent int64) (int, serve.Job, error) {
	id := c.tr.begin("serve", "http."+method, parent)
	defer c.tr.end(id)
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return 0, serve.Job{}, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, serve.Job{}, err
	}
	defer resp.Body.Close()
	var job serve.Job
	b, err := io.ReadAll(resp.Body)
	if err == nil && (resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusAccepted) {
		err = json.Unmarshal(b, &job)
	}
	return resp.StatusCode, job, err
}

func terminal(status string) bool {
	switch status {
	case serve.StatusQueued, serve.StatusRunning:
		return false
	}
	return true
}

// runJob submits spec and polls it to a terminal status.
func (c *client) runJob(spec serve.JobSpec) jobRecord {
	rec := jobRecord{spec: spec, queue: -1}
	id := c.tr.begin("serve", "serve.job", 0)
	defer c.tr.end(id)
	body, err := json.Marshal(spec)
	if err != nil {
		rec.errorText = err.Error()
		return rec
	}
	t0 := time.Now()
	code, job, err := c.do(http.MethodPost, "/v1/jobs", body, id)
	rec.submit = ms(time.Since(t0))
	switch {
	case err != nil:
		rec.errorText = err.Error()
		return rec
	case code == http.StatusOK && job.Cached:
		rec.hit = true
	case code != http.StatusAccepted:
		rec.errorText = fmt.Sprintf("POST /v1/jobs: status %d", code)
		return rec
	}
	jobID := job.ID
	for !terminal(job.Status) {
		time.Sleep(servePoll)
		code, job, err = c.do(http.MethodGet, "/v1/jobs/"+jobID, nil, id)
		if err != nil || code != http.StatusOK {
			rec.errorText = fmt.Sprintf("GET /v1/jobs/%s: status %d: %v", jobID, code, err)
			return rec
		}
		if job.Status == serve.StatusRunning && rec.queue < 0 {
			rec.queue = ms(time.Since(t0))
		}
	}
	rec.latency = ms(time.Since(t0))
	rec.status, rec.values, rec.result, rec.errorText = job.Status, job.ValuesPath, job.Result, job.Error
	return rec
}

// stream is a closed loop in flight: each client runs its job stream
// until stopped and appends every finished job to done.
type stream struct {
	mu     sync.Mutex
	done   []jobRecord
	active int // clients still running
	stop   atomic.Bool
	wg     sync.WaitGroup
}

// startStreams starts one client goroutine per stream.
func (c *client) startStreams(streams [][]jobItem) *stream {
	st := &stream{active: len(streams)}
	for _, items := range streams {
		st.wg.Add(1)
		go func(items []jobItem) {
			defer st.wg.Done()
			defer func() { st.mu.Lock(); st.active--; st.mu.Unlock() }()
			var fresh []serve.JobSpec
			for _, it := range items {
				if st.stop.Load() {
					return
				}
				spec := it.spec
				if it.repeat > 0 {
					spec = fresh[it.repeat-1]
				} else {
					fresh = append(fresh, spec)
				}
				rec := c.runJob(spec)
				st.mu.Lock()
				st.done = append(st.done, rec)
				st.mu.Unlock()
			}
		}(items)
	}
	return st
}

// since returns the jobs finished after the first n, and whether any
// client is still running.
func (st *stream) since(n int) ([]jobRecord, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	return append([]jobRecord(nil), st.done[n:]...), st.active > 0
}

// halt stops the clients after their current jobs and returns every job
// they finished.
func (st *stream) halt() []jobRecord {
	st.stop.Store(true)
	st.wg.Wait()
	return st.done
}

func runServe(e *env) error {
	graphDir := e.path("graphs")
	cl := &client{hc: &http.Client{Timeout: time.Minute}, tr: e.tr}
	defer cl.hc.CloseIdleConnections()
	// servers holds the server of every set-up repetition; the last one
	// serves the timed phases. stopServers drains all but the newest keep.
	var servers []*serve.Server
	stopServers := func(keep int) error {
		var err error
		for len(servers) > keep {
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			if serr := servers[0].Shutdown(ctx); serr != nil && err == nil {
				err = serr
			}
			cancel()
			servers = servers[1:]
		}
		return err
	}
	defer stopServers(0)
	rng := rand.New(rand.NewSource(e.cfg.seed))
	var roots *rootSource
	var jobsDir string
	var warm int64

	// Each set-up repetition starts a fresh server over a fresh jobs dir
	// and runs one warm-up job that makes the graph resident.
	startServer := func(rep int) error {
		jobsDir = e.path(fmt.Sprintf("jobs-%d", rep))
		srv, err := serve.NewServer(context.Background(), serve.Options{Addr: "127.0.0.1:0", GraphDir: graphDir, JobsDir: jobsDir})
		if err != nil {
			return err
		}
		srv.Start()
		servers = append(servers, srv)
		cl.base = "http://" + srv.Addr()
		rec := cl.runJob(serve.JobSpec{Graph: serveGraph, Algo: "bfs", Root: warm})
		if rec.status != serve.StatusCompleted {
			return fmt.Errorf("warm-up job: status %q: %s", rec.status, rec.errorText)
		}
		return nil
	}
	if err := os.MkdirAll(graphDir, 0o755); err != nil {
		return err
	}
	s, setup, err := e.setupGraph(serveScale, serveEdgeFactor, true, filepath.Join(graphDir, serveGraph), func(rep int, csr *graph.CSR) error {
		if roots == nil {
			// Every repetition generates the same graph: draw roots once.
			roots = newRootSource(csr, rng)
			warm = roots.take()
		}
		return startServer(rep)
	})
	if err != nil {
		return err
	}
	defer s.g.Close()
	if err := stopServers(1); err != nil {
		return fmt.Errorf("server shutdown: %w", err)
	}
	planned := e.plannedOps(serveWindow, 2)
	// Streams long enough for the longest phase, at twice the reference
	// host's job rate.
	njobs := 2 * extendFactor * e.plannedOps(serveNominalJob, 100)

	var records []jobRecord
	// phaseRun runs the closed loop and cuts it into windows, the rounds.
	// A job belongs to the window it finished in; jobs still running when
	// the last window closes finish untimed but are checked like the rest.
	phaseRun := func(traced bool) (phase, []jobRecord, error) {
		e.tr.setEnabled(traced)
		defer e.tr.setEnabled(e.cfg.trace)
		streams := makeStreams(rng, roots, njobs)
		if err := resetPeakRSS(); err != nil {
			return phase{}, nil, err
		}
		var rounds []round
		seen := 0
		st := cl.startStreams(streams)
		rp := e.plan(planned)
		for rp.more(rounds) {
			var rd round
			m := startMeter()
			time.Sleep(serveWindow)
			m.stop(&rd)
			recs, running := st.since(seen)
			seen += len(recs)
			for _, r := range recs {
				if r.status != serve.StatusCompleted {
					continue
				}
				rd.jobs = append(rd.jobs, r.latency)
				if !r.hit && r.result != nil {
					rd.messages += r.result.Messages
					if r.result.Supersteps > 0 {
						rd.steps = append(rd.steps, float64(r.result.DurationMS)/float64(r.result.Supersteps))
					}
				}
			}
			rounds = append(rounds, rd)
			if !running {
				break
			}
		}
		recs := st.halt()
		rss, err := peakRSSMiB()
		if err != nil {
			return phase{}, nil, err
		}
		p := rp.finish(rounds)
		p.peakRSS = []float64{rss}
		for _, r := range recs {
			e.attempted++
			if r.status != serve.StatusCompleted {
				e.fail("job %s/%d: status %q: %s", r.spec.Algo, r.spec.Root, r.status, r.errorText)
			}
		}
		records = append(records, recs...)
		return p, recs, nil
	}

	plain, _, err := phaseRun(false)
	if err != nil {
		return err
	}
	e.addPhase(setup, plain)
	if e.cfg.trace {
		e.addSetupLayer(s)
		deltas := counterDeltas(metrics.CtrServeShed, metrics.CtrServeRetries, metrics.CtrServeFailed,
			metrics.CtrServeAdmitted, metrics.CtrDiskWriteErrors)
		traced, recs, err := phaseRun(true)
		if err != nil {
			return err
		}
		d := deltas()
		e.addOverhead(plain, traced)
		e.serveLayer(recs, d)
		e.addLayer("serve.job_ms_p90", "ms", percentile(plain.jobs(), 90), len(plain.jobs()))
		e.addLayer("diskio.write_errors_per_job", "1/job",
			ratio(float64(d[metrics.CtrDiskWriteErrors]), float64(d[metrics.CtrServeAdmitted])), int(d[metrics.CtrServeAdmitted]))
		if err := e.serveCoreProbe(s, roots, jobsDir); err != nil {
			return err
		}
		if err := e.probeLayers(s.g, s.path, jobsDir); err != nil {
			return err
		}
	}
	if err := stopServers(0); err != nil {
		return fmt.Errorf("server shutdown: %w", err)
	}
	e.checkServeJobs(s.csr, records)
	return nil
}

// serveLayer reports the serve per-layer metrics of the traced stream.
func (e *env) serveLayer(recs []jobRecord, d map[string]int64) {
	var submit, queue, engine, overhead, hits []float64
	for _, r := range recs {
		submit = append(submit, r.submit)
		if r.hit {
			hits = append(hits, r.submit)
			continue
		}
		if r.queue >= 0 {
			queue = append(queue, r.queue)
		}
		if r.result != nil {
			engine = append(engine, float64(r.result.DurationMS))
			overhead = append(overhead, r.latency-float64(r.result.DurationMS))
		}
	}
	e.addLayer("serve.submit_ms_p50", "ms", median(submit), len(submit))
	e.addLayer("serve.queue_ms_p50", "ms", median(queue), len(queue))
	e.addLayer("serve.engine_ms_p50", "ms", median(engine), len(engine))
	e.addLayer("serve.overhead_ms_p50", "ms", median(overhead), len(overhead))
	e.addLayer("serve.hit_ms_p50", "ms", median(hits), len(hits))
	e.addLayer("serve.cache_hit_ratio", "ratio", ratio(float64(len(hits)), float64(len(recs))), len(recs))
	for _, c := range []string{metrics.CtrServeShed, metrics.CtrServeRetries, metrics.CtrServeFailed} {
		e.addLayer(c, "count", float64(d[c]), 1)
	}
}

// serveCoreProbe runs a few of the stream's kind of job directly through
// gpsa.RunOn on the resident graph, with value files in the jobs dir, so
// the core per-layer metrics see the low-frontier supersteps the server
// runs but cannot expose.
func (e *env) serveCoreProbe(s *graphSetup, roots *rootSource, dir string) error {
	return e.tr.do("probe", "core-probe", 0, func(id int64) error {
		deltas := counterDeltas(metrics.CtrAccumFolded, metrics.CtrAccumDenseSegs, metrics.CtrAccumSparseSegs)
		var runs []engineRun
		for i := 0; i < 8; i++ {
			root := graph.VertexID(roots.take())
			var prog gpsa.Program = algorithms.BFS{Root: root}
			if i%4 == 3 {
				prog = algorithms.SSSP{Source: root}
			}
			r, err := e.runOn(s.g, prog, 0, filepath.Join(dir, fmt.Sprintf("core-probe-%d.gpvf", i)), id)
			if err != nil {
				return err
			}
			runs = append(runs, r)
		}
		e.coreLayer(runs, s.g.NumVertices(), deltas())
		return nil
	})
}

// checkServeJobs verifies every completed job's value file, cache hits
// included, against the sequential BFS and SSSP references, computing
// each spec's reference once.
func (e *env) checkServeJobs(g *graph.CSR, recs []jobRecord) {
	bySpec := make(map[serve.JobSpec][]jobRecord)
	var specs []serve.JobSpec
	for _, r := range recs {
		if r.status != serve.StatusCompleted {
			continue
		}
		if _, seen := bySpec[r.spec]; !seen {
			specs = append(specs, r.spec)
		}
		bySpec[r.spec] = append(bySpec[r.spec], r)
	}
	for _, spec := range specs {
		var want []uint64
		if spec.Algo == "sssp" {
			want = refSSSP(g, spec.Root)
		} else {
			want = refBFS(g, spec.Root)
		}
		for _, r := range bySpec[spec] {
			if err := checkValueFile(r.values, func(get func(int64) uint64) error { return checkExact(spec.Algo, get, want) }); err != nil {
				e.fail("job %s/%d (cached=%t): %v", spec.Algo, spec.Root, r.hit, err)
			}
		}
	}
}
