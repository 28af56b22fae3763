package servetest

import (
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/torture"
)

var graphsDir string

// TestMain generates the torture graphs once for the whole package;
// gpsa-serve is built on the first server start. Skipped under -short.
func TestMain(m *testing.M) {
	torture.Main(m, func(dir string) (err error) {
		if testing.Short() {
			return nil
		}
		graphsDir = filepath.Join(dir, "graphs")
		_, _, err = torture.WriteERGraphs(graphsDir)
		return err
	})
}

// tortureSpecs are the concurrent jobs of the kill/resume scenarios:
// mixed programs over both graphs, dispatchers pinned to 1 so the
// float-valued programs commit bit-identical values run over run.
func tortureSpecs() []map[string]any {
	return []map[string]any{
		{"graph": "torture.gpsa", "algo": "pagerank", "supersteps": 5, "dispatchers": 1},
		{"graph": "torture.gpsa", "algo": "deltapagerank", "supersteps": 5, "dispatchers": 1},
		{"graph": "torture.gpsa", "algo": "bfs", "root": 0, "dispatchers": 1},
		{"graph": "torture-sym.gpsa", "algo": "cc", "dispatchers": 1},
		{"graph": "torture-sym.gpsa", "algo": "pagerank", "supersteps": 5, "dispatchers": 1},
		{"graph": "torture.gpsa", "algo": "bfs", "root": 1, "dispatchers": 1},
	}
}

// stallFault keeps every job slow enough that kills and drains land
// mid-run: each computer message sleeps 20ms (results are unaffected —
// stalls delay, they do not perturb).
const stallFault = "site=core.computer.stall,count=-1,delay=20ms"

// submitAll submits specs in order and returns the job IDs.
func submitAll(t *testing.T, s *torture.Server, specs []map[string]any) []string {
	t.Helper()
	var ids []string
	for i, spec := range specs {
		code, j, _, err := s.Submit(spec)
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		if code != 202 {
			t.Fatalf("submit %d = %d, want 202", i, code)
		}
		ids = append(ids, j.ID)
	}
	return ids
}

// runBaseline runs the torture specs on an undisturbed server and
// returns each job's sealed file state — the bits every tortured
// schedule must reproduce exactly.
func runBaseline(t *testing.T, specs []map[string]any) map[string]torture.State {
	t.Helper()
	jobsDir := filepath.Join(t.TempDir(), "jobs-baseline")
	s, err := torture.StartServer(torture.ServerConfig{GraphDir: graphsDir, JobsDir: jobsDir})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Kill()
	ids := submitAll(t, s, specs)
	byID := s.WaitAllTerminal(t, ids, 120*time.Second)
	states := make(map[string]torture.State, len(ids))
	for _, id := range ids {
		j := byID[id]
		if j.Status != "completed" {
			t.Fatalf("baseline job %s finished %q (%s)", id, j.Status, j.Error)
		}
		st, err := torture.ReadState(j.Values)
		if err != nil {
			t.Fatal(err)
		}
		states[id] = st
	}
	if code, err := s.Terminate(); err != nil || code != 0 {
		t.Fatalf("baseline drain exit = %d (%v)", code, err)
	}
	return states
}

// TestServeSmoke is the make-check slice: submit, complete, cache-hit,
// drain with exit 0. No kills, no faults.
func TestServeSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("servetest harness skipped in -short mode")
	}
	jobsDir := filepath.Join(t.TempDir(), "jobs")
	s, err := torture.StartServer(torture.ServerConfig{GraphDir: graphsDir, JobsDir: jobsDir})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Kill()

	spec := map[string]any{"graph": "torture.gpsa", "algo": "pagerank", "supersteps": 5, "dispatchers": 1}
	ids := submitAll(t, s, []map[string]any{spec, {"graph": "torture.gpsa", "algo": "bfs", "root": 0, "dispatchers": 1}})
	byID := s.WaitAllTerminal(t, ids, 60*time.Second)
	for _, id := range ids {
		if byID[id].Status != "completed" {
			t.Fatalf("job %s finished %q (%s)", id, byID[id].Status, byID[id].Error)
		}
	}
	// Identical resubmission is a cache hit.
	code, j, _, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if code != 200 || !j.Cached {
		t.Fatalf("resubmission = %d cached=%v, want 200 from cache", code, j.Cached)
	}
	if ready, _ := s.Status("/readyz"); ready != 200 {
		t.Fatalf("/readyz = %d", ready)
	}
	m, err := s.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if m["serve.admitted"] < 2 || m["serve.completed"] < 2 || m["serve.cache.hits"] < 1 {
		t.Fatalf("metrics %v missing admitted/completed/cache.hits", m)
	}
	if code, err := s.Terminate(); err != nil || code != 0 {
		t.Fatalf("drain exit = %d (%v); stderr:\n%s", code, err, s.Stderr())
	}
	if !strings.Contains(s.Stderr(), "drained cleanly") {
		t.Fatalf("drain not confirmed; stderr:\n%s", s.Stderr())
	}
}

// TestServeTortureKillResume is the headline durability scenario:
// SIGKILL the server with >= 4 jobs in flight, twice over (the second
// kill lands during resume), and require the third generation to finish
// every job bit-identical to an undisturbed run.
func TestServeTortureKillResume(t *testing.T) {
	if testing.Short() {
		t.Skip("servetest harness skipped in -short mode")
	}
	specs := tortureSpecs()
	baseline := runBaseline(t, specs)

	jobsDir := filepath.Join(t.TempDir(), "jobs")

	// Generation 1: stalled jobs, SIGKILL with >= 4 running.
	s1, err := torture.StartServer(torture.ServerConfig{GraphDir: graphsDir, JobsDir: jobsDir, Fault: stallFault})
	if err != nil {
		t.Fatal(err)
	}
	ids := submitAll(t, s1, specs)
	s1.WaitRunning(t, 4, 30*time.Second)
	s1.Kill()
	t.Log("generation 1 SIGKILLed with >= 4 jobs in flight")

	// Generation 2: resume under the same stall, SIGKILL again mid-resume
	// — recovery must itself be recoverable.
	s2, err := torture.StartServer(torture.ServerConfig{GraphDir: graphsDir, JobsDir: jobsDir, Resume: true, Fault: stallFault})
	if err != nil {
		t.Fatal(err)
	}
	s2.WaitRunning(t, 1, 30*time.Second)
	m2, err := s2.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if m2["serve.resumed"] < 4 {
		t.Fatalf("generation 2 resumed %d jobs, want >= 4 (the in-flight kills)", m2["serve.resumed"])
	}
	s2.Kill()
	t.Log("generation 2 SIGKILLed mid-resume")

	// Generation 3: undisturbed resume runs everything to completion.
	s3, err := torture.StartServer(torture.ServerConfig{GraphDir: graphsDir, JobsDir: jobsDir, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Kill()
	byID := s3.WaitAllTerminal(t, ids, 120*time.Second)
	m3, err := s3.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if m3["serve.resumed"] < 1 {
		t.Fatalf("generation 3 resumed %d jobs, want >= 1", m3["serve.resumed"])
	}
	for _, id := range ids {
		j := byID[id]
		if j.Status != "completed" {
			t.Fatalf("job %s finished %q (%s) after double kill + resume", id, j.Status, j.Error)
		}
		st, err := torture.ReadState(j.Values)
		if err != nil {
			t.Fatal(err)
		}
		if !st.Equal(baseline[id]) {
			t.Fatalf("job %s: resumed values differ from undisturbed baseline (epoch %d vs %d)",
				id, st.Epoch, baseline[id].Epoch)
		}
	}
	if code, err := s3.Terminate(); err != nil || code != 0 {
		t.Fatalf("final drain exit = %d (%v)", code, err)
	}
}

// TestServeTortureOverloadDrain floods a capacity-2 queue behind one
// worker: the burst must shed with 429 + Retry-After (bounded memory),
// the SIGTERM drain must exit 0, and the next generation must resume
// the journaled backlog to completion.
func TestServeTortureOverloadDrain(t *testing.T) {
	if testing.Short() {
		t.Skip("servetest harness skipped in -short mode")
	}
	jobsDir := filepath.Join(t.TempDir(), "jobs")
	s, err := torture.StartServer(torture.ServerConfig{
		GraphDir: graphsDir, JobsDir: jobsDir, Fault: stallFault,
		Extra: []string{"-queue-cap", "2", "-workers", "1"},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Kill()

	var admitted []string
	shed := 0
	for i := 0; i < 12; i++ {
		// Distinct epsilons keep every submission out of the result cache.
		code, j, hdr, err := s.Submit(map[string]any{
			"graph": "torture.gpsa", "algo": "pagerank", "supersteps": 5,
			"dispatchers": 1, "epsilon": float64(i+1) / 1000,
		})
		if err != nil {
			t.Fatal(err)
		}
		switch code {
		case 202:
			admitted = append(admitted, j.ID)
		case 429:
			shed++
			if hdr.Get("Retry-After") == "" {
				t.Fatal("429 without Retry-After")
			}
		default:
			t.Fatalf("burst submit %d = %d", i, code)
		}
	}
	if shed == 0 {
		t.Fatal("12-job burst into a capacity-2 queue behind one stalled worker shed nothing")
	}
	t.Logf("burst: %d admitted, %d shed", len(admitted), shed)

	m, err := s.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if m["serve.admitted"] != int64(len(admitted)) || m["serve.shed"] != int64(shed) {
		t.Fatalf("metrics admitted=%d shed=%d, want %d/%d",
			m["serve.admitted"], m["serve.shed"], len(admitted), shed)
	}

	// SIGTERM drains: exit 0, journal keeps the backlog.
	code, err := s.Terminate()
	if err != nil || code != 0 {
		t.Fatalf("drain exit = %d (%v); stderr:\n%s", code, err, s.Stderr())
	}

	s2, err := torture.StartServer(torture.ServerConfig{GraphDir: graphsDir, JobsDir: jobsDir, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Kill()
	byID := s2.WaitAllTerminal(t, admitted, 120*time.Second)
	for _, id := range admitted {
		if byID[id].Status != "completed" {
			t.Fatalf("backlog job %s finished %q (%s)", id, byID[id].Status, byID[id].Error)
		}
	}
	m2, err := s2.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if m2["serve.resumed"] < 1 {
		t.Fatalf("drained backlog not resumed: metrics %v", m2)
	}
	if code, err := s2.Terminate(); err != nil || code != 0 {
		t.Fatalf("second drain exit = %d (%v)", code, err)
	}
}

// TestServeTortureDeadline gives a stalled job a 150ms budget: it must
// end deadline_exceeded with a cleanly sealed, resumable value file — a
// checkpoint, not a zombie or a corpse.
func TestServeTortureDeadline(t *testing.T) {
	if testing.Short() {
		t.Skip("servetest harness skipped in -short mode")
	}
	jobsDir := filepath.Join(t.TempDir(), "jobs")
	s, err := torture.StartServer(torture.ServerConfig{GraphDir: graphsDir, JobsDir: jobsDir, Fault: stallFault})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Kill()

	code, j, _, err := s.Submit(map[string]any{
		"graph": "torture.gpsa", "algo": "pagerank", "supersteps": 5,
		"dispatchers": 1, "deadline_ms": 50,
	})
	if err != nil || code != 202 {
		t.Fatalf("submit = %d (%v)", code, err)
	}
	cur := s.WaitAllTerminal(t, []string{j.ID}, 60*time.Second)[j.ID]
	if cur.Status != "deadline_exceeded" {
		t.Fatalf("job finished %q (%s), want deadline_exceeded", cur.Status, cur.Error)
	}
	if _, err := torture.ReadState(cur.Values); err != nil {
		t.Fatalf("deadline did not leave a sealed checkpoint: %v", err)
	}
	m, err := s.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if m["serve.deadline_exceeded"] < 1 {
		t.Fatalf("serve.deadline_exceeded not counted: %v", m)
	}
	if code, err := s.Terminate(); err != nil || code != 0 {
		t.Fatalf("drain exit = %d (%v)", code, err)
	}
}
