package disktest

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	gpsa "repro"
	"repro/internal/algorithms"
	"repro/internal/cluster"
	"repro/internal/diskio"
	"repro/internal/fault"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/mmap"
	"repro/internal/scrub"
	"repro/internal/torture"
	"repro/internal/vertexfile"
)

// engineOpts is the storm runs' engine shape: PageRank's fixed budget
// with one dispatcher, the configuration under which the engine's
// bit-identical recovery claim is strongest (order-sensitive floats).
func engineOpts(ctx context.Context, valuesPath string) gpsa.RunOptions {
	return gpsa.RunOptions{
		Supersteps:  5,
		Dispatchers: 1,
		ValuesPath:  valuesPath,
		Context:     ctx,
	}
}

var scratchDir string // torture.Main's per-process directory

// baseline runs PageRank once on an undisturbed disk and memoizes the
// sealed outcome every storm run is judged against.
var baseline = sync.OnceValues(func() (torture.State, error) {
	if fault.Enabled() {
		return torture.State{}, errors.New("baseline requested while a fault plan is active")
	}
	csr, err := tortureGraph(false)
	if err != nil {
		return torture.State{}, err
	}
	gp := filepath.Join(scratchDir, "baseline.gpsa")
	if err := graph.WriteFile(gp, csr); err != nil {
		return torture.State{}, err
	}
	vp := filepath.Join(scratchDir, "baseline.gpvf")
	vals, _, err := gpsa.Run(gp, algorithms.PageRank{}, engineOpts(context.Background(), vp))
	if err != nil {
		return torture.State{}, err
	}
	if err := vals.Close(); err != nil {
		return torture.State{}, err
	}
	return torture.ReadState(vp)
})

func baselineState(t *testing.T) torture.State {
	t.Helper()
	st, err := baseline()
	if err != nil {
		t.Fatalf("disktest baseline: %v", err)
	}
	return st
}

func TestMain(m *testing.M) {
	torture.Main(m, func(dir string) error {
		scratchDir = dir
		return nil
	})
}

// assertTypedDiskErr fails unless err carries one of the three diskio
// error classes AND the injected-fault marker — the "typed, actionable
// error" half of the hostile-disk invariant. An untyped error (or a
// watchdog/context timeout standing in for a wedge) fails here.
func assertTypedDiskErr(t *testing.T, site string, err error) {
	t.Helper()
	if !errors.Is(err, diskio.ErrDiskFull) && !errors.Is(err, diskio.ErrIOFailure) && !errors.Is(err, diskio.ErrCorrupt) {
		t.Fatalf("site %s: error not typed as a diskio class: %v", site, err)
	}
	if !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("site %s: error lost the injected-fault marker: %v", site, err)
	}
}

// stormSites are the write-path disk faults the engine storm matrix
// arms, each as a persistent storm (count=-1: every hit fails until the
// disk "heals" via Deactivate).
var stormSites = []string{
	fault.SiteDiskENOSPCCreate,
	fault.SiteDiskENOSPCWrite,
	fault.SiteDiskENOSPCSync,
	fault.SiteDiskEIOWrite,
	fault.SiteDiskEIOSync,
	fault.SiteDiskShortWrite,
	fault.SiteDiskTornSync,
}

// TestDiskTortureEngineStorms is the core hostile-disk matrix: for
// every write-path disk.* site and a set of onset offsets, build the
// CSR through the real writer and run the engine under a persistent
// storm. Required outcome per cell: either the run completes with a
// value file bit-identical to the undisturbed baseline, or it fails
// with a typed diskio error and — after the disk heals — resumes or
// rebuilds to the bit-identical result. Anything else (silent
// corruption, untyped failure, wedge past the context deadline) fails.
func TestDiskTortureEngineStorms(t *testing.T) {
	base := baselineState(t)
	metrics.ResetCounters()
	fired := make(map[string]int64)
	var reports []stormReport
	for _, site := range stormSites {
		for _, after := range []int64{0, 3} {
			t.Run(fmt.Sprintf("%s/after=%d", site, after), func(t *testing.T) {
				rep := runStorm(t, site, after, base)
				fired[site] += rep.Fired
				reports = append(reports, rep)
			})
		}
	}
	if t.Failed() {
		return
	}
	// Vacuity guard: a storm matrix whose faults never fired proves
	// nothing. Every site must have hit at least once across its cells.
	torture.RequireFired(t, func(site string) int64 { return fired[site] }, stormSites...)
	// The storage layer must have counted what it survived: every
	// injected failure classifies into the exported disk.* counters.
	if metrics.Counter(metrics.CtrDiskWriteErrors) == 0 {
		t.Error("disk.write_errors never incremented across the storm matrix")
	}
	if metrics.Counter(metrics.CtrDiskENOSPC) == 0 {
		t.Error("disk.enospc never incremented despite the ENOSPC storms")
	}
	if err := writeStormReport(reports); err != nil {
		t.Errorf("writing storm report artifact: %v", err)
	}
}

// runStorm executes one (site, onset) cell of the matrix and returns
// its outcome record.
func runStorm(t *testing.T, site string, after int64, base torture.State) stormReport {
	t.Helper()
	csr, err := tortureGraph(false)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	gp := filepath.Join(dir, "g.gpsa")
	vp := filepath.Join(dir, "v.gpvf")
	rep := stormReport{Site: site, After: after}

	plan := fault.NewPlan(1, fault.Injection{Site: site, After: after, Count: -1})
	fault.Activate(plan)
	defer fault.Deactivate()

	// Stage 1: the CSR build. A failed build must be typed; a healed
	// disk rebuilds from the in-memory seed, and the storm re-arms so
	// stage 2 faces it too (otherwise create-site cells would only ever
	// torture the writer, never the engine).
	if werr := graph.WriteFile(gp, csr); werr != nil {
		assertTypedDiskErr(t, site, werr)
		fault.Deactivate()
		if werr := graph.WriteFile(gp, csr); werr != nil {
			t.Fatalf("site %s: CSR rebuild on healed disk failed: %v", site, werr)
		}
		rep.Fired += plan.Fired(site)
		plan = fault.NewPlan(1, fault.Injection{Site: site, After: after, Count: -1})
		fault.Activate(plan)
	}

	// Stage 2: the engine run under the storm. Bound by a deadline so a
	// wedge is a failure, not a hang.
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	vals, _, runErr := gpsa.Run(gp, algorithms.PageRank{}, engineOpts(ctx, vp))
	rep.Fired += plan.Fired(site)
	if runErr == nil {
		if err := vals.Close(); err != nil {
			t.Fatalf("site %s: closing values: %v", site, err)
		}
		st, err := torture.ReadState(vp)
		if err != nil {
			t.Fatalf("site %s: run reported success but the file does not verify: %v", site, err)
		}
		if !st.Equal(base) {
			t.Fatalf("site %s: run reported success with values NOT bit-identical to baseline (epoch %d vs %d) — silent corruption", site, st.Epoch, base.Epoch)
		}
		rep.Outcome = "completed"
		return rep
	}

	assertTypedDiskErr(t, site, runErr)
	rep.Err = runErr.Error()
	fault.Deactivate()

	// The disk has healed. The sealed file — when one exists — must be
	// resumable to the bit-identical result; a run that died before
	// creating durable state rebuilds from scratch.
	if gpsa.Resumable(vp) {
		rep.Recovered = "resume"
		vals, _, err = gpsa.Resume(gp, vp, algorithms.PageRank{}, engineOpts(context.Background(), vp))
	} else {
		rep.Recovered = "rebuild"
		os.Remove(vp) //nolint:errcheck — may not exist
		vals, _, err = gpsa.Run(gp, algorithms.PageRank{}, engineOpts(context.Background(), vp))
	}
	if err != nil {
		t.Fatalf("site %s: recovery (%s) on healed disk failed: %v", site, rep.Recovered, err)
	}
	if err := vals.Close(); err != nil {
		t.Fatalf("site %s: closing recovered values: %v", site, err)
	}
	st, err := torture.ReadState(vp)
	if err != nil {
		t.Fatalf("site %s: recovered file does not verify: %v", site, err)
	}
	if !st.Equal(base) {
		t.Fatalf("site %s: recovered values NOT bit-identical to baseline", site)
	}
	rep.Outcome = "typed-error+recovered"
	return rep
}

// TestDiskReadFaultsTyped pins the read-side taxonomy on the scrubber's
// verification paths: an EIO read keeps its I/O class (and is NOT
// reported as corruption — a failing disk is not evidence against the
// data), while at-rest bit-rot surfaces as detection, never as a clean
// verdict over corrupt bytes.
func TestDiskReadFaultsTyped(t *testing.T) {
	dir := t.TempDir()
	vp := filepath.Join(dir, "v.gpvf")
	vf, err := vertexfile.Create(vp, 64, func(v int64) (uint64, bool) { return uint64(v * 3), true })
	if err != nil {
		t.Fatal(err)
	}
	if err := vf.Begin(0, true); err != nil {
		t.Fatal(err)
	}
	if err := vf.Commit(0, true, true); err != nil {
		t.Fatal(err)
	}
	if err := vf.Close(); err != nil {
		t.Fatal(err)
	}
	if err := vertexfile.Verify(vp); err != nil {
		t.Fatalf("healthy file does not verify: %v", err)
	}

	// EIO on the verification read: typed I/O failure, not corruption.
	fault.Activate(fault.NewPlan(1, fault.Injection{Site: fault.SiteDiskEIORead}))
	err = vertexfile.Verify(vp)
	fault.Deactivate()
	if !errors.Is(err, diskio.ErrIOFailure) || !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("EIO verify error not typed: %v", err)
	}
	if errors.Is(err, diskio.ErrCorrupt) {
		t.Fatalf("EIO misclassified as corruption: %v", err)
	}

	// Bit-rot on the verification read: the flip must be detected —
	// either as a typed corruption error or as a not-sealed state —
	// never accepted as a healthy seal.
	fault.Activate(fault.NewPlan(1, fault.Injection{Site: fault.SiteDiskBitrot}))
	state, err := vertexfile.VerifyState(vp)
	fault.Deactivate()
	if err == nil && state == "sealed" {
		t.Fatalf("bit-rot read verified as cleanly sealed — silent corruption")
	}
	// The detection comes from the digest check downstream of the rot,
	// so the error is the verifier's typed corruption verdict (it need
	// not carry the injector's marker).
	if err != nil && !errors.Is(err, diskio.ErrCorrupt) {
		t.Fatalf("bit-rot detection not typed as corruption: %v", err)
	}

	// Disarmed, the file is still pristine: the bit-rot site corrupts
	// the read, not the disk.
	if state, err := vertexfile.VerifyState(vp); err != nil || state != "sealed" {
		t.Fatalf("file damaged by read-side bit-rot injection: state %q, %v", state, err)
	}
}

// TestDiskServeDegradedEnterExit is the serving-tier scenario against
// the real gpsa-serve binary: a failing jobs disk flips the server into
// read-only degraded mode (503 + Retry-After on POST, /readyz reports
// it, the gauge is up), the background probe notices the disk healing
// (the injection plan's firing budget runs out), and admissions resume
// — all without a restart.
func TestDiskServeDegradedEnterExit(t *testing.T) {
	dir := t.TempDir()
	graphDir := filepath.Join(dir, "graphs")
	jobsDir := filepath.Join(dir, "jobs")
	for _, d := range []string{graphDir, jobsDir} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	csr, err := tortureGraph(false)
	if err != nil {
		t.Fatal(err)
	}
	if err := graph.WriteFile(filepath.Join(graphDir, "t.gpsa"), csr); err != nil {
		t.Fatal(err)
	}

	// Four EIO write firings: the submit's journal append (1) plus three
	// failed probes, then the disk "heals" on its own — exactly the
	// transient-outage shape degraded mode exists for.
	srv, err := torture.StartServer(torture.ServerConfig{
		GraphDir: graphDir, JobsDir: jobsDir, Fault: "site=disk.eio.write,count=4",
		Extra: []string{"-probe-interval", "50ms", "-workers", "2"},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Kill()

	spec := map[string]any{"graph": "t.gpsa", "algo": "pagerank"}
	code, _, hdr, err := srv.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if code != 503 {
		t.Fatalf("submit on failing disk = %d, want 503; stderr:\n%s", code, srv.Stderr())
	}
	if hdr.Get("Retry-After") == "" {
		t.Fatal("degraded 503 carries no Retry-After")
	}
	if code, err := srv.Status("/readyz"); err != nil || code != 503 {
		t.Fatalf("/readyz while degraded = %d, %v; want 503", code, err)
	}
	snap, err := srv.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if snap["serve.disk.degraded"] != 1 {
		t.Fatalf("serve.disk.degraded = %d, want 1", snap["serve.disk.degraded"])
	}
	if snap["disk.write_errors"] == 0 {
		t.Fatal("disk.write_errors did not count the journal failure")
	}

	// The probe exhausts the injection budget and readmits.
	deadline := time.Now().Add(10 * time.Second)
	for {
		code, err := srv.Status("/readyz")
		if err == nil && code == 200 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("/readyz never recovered; stderr:\n%s", srv.Stderr())
		}
		time.Sleep(25 * time.Millisecond)
	}

	code, j, _, err := srv.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if code != 202 {
		t.Fatalf("submit after recovery = %d, want 202; stderr:\n%s", code, srv.Stderr())
	}
	if got := srv.WaitAllTerminal(t, []string{j.ID}, 30*time.Second)[j.ID]; got.Status != "completed" {
		t.Fatalf("post-recovery job ended %s: %s", got.Status, got.Error)
	}
	snap, err = srv.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if snap["serve.disk.degraded"] != 0 {
		t.Fatalf("serve.disk.degraded = %d after recovery, want 0", snap["serve.disk.degraded"])
	}
}

// TestDiskClusterBitrotRepairBitIdentical is the replica-repair
// scenario: a 3-node cluster job's sealed per-node value files act as
// the replica set for a combined value-file artifact. Bit-rot lands in
// the artifact's sealed dispatch column; the scrubber detects it,
// quarantines the corrupt bytes, and rebuilds the file from the live
// cluster replicas via cluster.RepairValuesFile — and the repaired file
// is bit-identical to the gathered cluster result.
func TestDiskClusterBitrotRepairBitIdentical(t *testing.T) {
	metrics.ResetCounters()
	csr, err := tortureGraph(true)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	gp := filepath.Join(dir, "g.gpsa")
	if err := graph.WriteFile(gp, csr); err != nil {
		t.Fatal(err)
	}
	work := filepath.Join(dir, "work")
	if err := os.MkdirAll(work, 0o755); err != nil {
		t.Fatal(err)
	}
	const nodes, splits = 3, 2
	prog := algorithms.ConnectedComponents{}
	_, values, err := cluster.Run(gp, prog, cluster.Config{
		Nodes: nodes, Splits: splits, MaxSupersteps: 50, WorkDir: work,
		HeartbeatInterval: 100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Reproduce the run's interval partition and ownership offline.
	gf, err := graph.OpenFile(gp, mmap.ModeAuto)
	if err != nil {
		t.Fatal(err)
	}
	intervals := gf.Partition(nodes * splits)
	if err := gf.Close(); err != nil {
		t.Fatal(err)
	}
	owners := cluster.StaticOwners(len(intervals), nodes)
	nodePath := func(id int) string { return filepath.Join(work, fmt.Sprintf("node-%d.gpvf", id)) }
	epochSt, err := torture.ReadState(nodePath(0))
	if err != nil {
		t.Fatal(err)
	}
	sources := make([]cluster.IntervalSource, len(intervals))
	for i, iv := range intervals {
		sources[i] = cluster.IntervalSource{
			First: iv.FirstVertex, End: iv.EndVertex, Path: nodePath(owners[i]),
		}
	}

	// Build the combined artifact from the replicas; it must reproduce
	// the coordinator's gathered values bit for bit.
	combined := filepath.Join(dir, "combined.gpvf")
	n := int64(len(values))
	repair := func() error {
		return cluster.RepairValuesFile(combined, n, epochSt.Epoch, prog.Init, sources)
	}
	if err := repair(); err != nil {
		t.Fatalf("building combined artifact: %v", err)
	}
	st, err := torture.ReadState(combined)
	if err != nil {
		t.Fatal(err)
	}
	for v := int64(0); v < n; v++ {
		if st.Values[v] != values[v] {
			t.Fatalf("combined artifact differs from gathered values at vertex %d: %d vs %d", v, st.Values[v], values[v])
		}
	}

	// Rot a sealed dispatch-column payload, where the column digest —
	// not the header checksum — must catch it.
	rotOff := 128 + 8*((n+63)/64) + 8*(2*150+int64(vertexfile.DispatchCol(st.Epoch)))
	if err := diskio.Rot(combined, rotOff); err != nil {
		t.Fatal(err)
	}
	if err := vertexfile.Verify(combined); !errors.Is(err, diskio.ErrCorrupt) {
		t.Fatalf("planted rot not detected as corruption: %v", err)
	}

	s := scrub.New(scrub.Options{ReportDir: filepath.Join(dir, "reports")})
	for id := 0; id < nodes; id++ {
		s.Add(scrub.Target{Path: nodePath(id), Kind: scrub.KindValues})
	}
	s.Add(scrub.Target{Path: combined, Kind: scrub.KindValues, Repair: repair})
	rep := s.RunOnce()
	if len(rep.Findings) != 1 {
		t.Fatalf("scrub findings: %+v", rep)
	}
	f := rep.Findings[0]
	if f.Path != combined || !f.Repaired || f.Action != "repaired" || f.Quarantined == "" {
		t.Fatalf("finding: %+v", f)
	}
	if _, err := os.Stat(f.Quarantined); err != nil {
		t.Fatalf("quarantined bytes missing: %v", err)
	}
	if rep.Scrubbed != nodes+1 {
		t.Fatalf("scrubbed %d artifacts, want %d (3 healthy replicas + 1 repaired)", rep.Scrubbed, nodes+1)
	}
	if metrics.Counter(metrics.CtrDiskRepairs) != 1 || metrics.Counter(metrics.CtrDiskQuarantines) != 1 {
		t.Fatalf("repair metrics: repairs=%d quarantines=%d",
			metrics.Counter(metrics.CtrDiskRepairs), metrics.Counter(metrics.CtrDiskQuarantines))
	}
	if got := metrics.Counter(metrics.CtrDiskScrubs); got < int64(nodes+1) {
		t.Fatalf("disk.scrubs = %d, want >= %d", got, nodes+1)
	}

	// The repaired artifact is bit-identical to the cluster result.
	st, err = torture.ReadState(combined)
	if err != nil {
		t.Fatalf("repaired artifact does not verify: %v", err)
	}
	for v := int64(0); v < n; v++ {
		if st.Values[v] != values[v] {
			t.Fatalf("repaired artifact differs at vertex %d: %d vs %d", v, st.Values[v], values[v])
		}
	}
}

// TestDiskSmoke is the make-check slice: one storm cell end to end plus
// the read-fault taxonomy — fast enough for every pre-merge run.
func TestDiskSmoke(t *testing.T) {
	base := baselineState(t)
	rep := runStorm(t, fault.SiteDiskEIOSync, 0, base)
	if rep.Outcome == "" {
		t.Fatal("smoke storm produced no outcome")
	}
	if !strings.HasPrefix(rep.Outcome, "completed") && rep.Fired == 0 {
		t.Fatal("smoke storm never fired")
	}
}
