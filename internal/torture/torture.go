// Package torture is the plumbing shared by GPSA's four torture
// harnesses — internal/crashtest (the gpsa CLI under SIGKILL),
// internal/chaostest (clusters under network faults), internal/disktest
// (storage under disk faults) and internal/servetest (gpsa-serve under
// SIGKILL, overload and drain). It builds the cmd/ binaries once per
// test process, drives them as subprocesses (GPSA_FAULT export, output
// capture, SIGKILL/SIGINT/SIGTERM on timers or on demand), drives a
// running gpsa-serve over HTTP, writes the torture graphs, compares
// sealed value files bit for bit, and fails a schedule whose armed
// faults never fired.
//
// The harnesses keep only their scenarios; every one holds the system
// to the same contract: a disturbed run ends bit-identical to an
// undisturbed one. Only the harness test packages import this package.
package torture

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"sync"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/vertexfile"
)

// scratch is the per-process directory Main creates; Binary builds
// into it.
var scratch struct {
	sync.Mutex
	dir  string
	bins map[string]string // cmd name -> built binary
}

// Main is a harness package's TestMain. It parses the test flags, runs
// setup with a fresh scratch directory, runs the tests, then removes
// the directory — with every binary Binary built — and exits with the
// tests' code. A setup error exits 1 before any test runs.
func Main(m *testing.M, setup func(dir string) error) {
	flag.Parse()
	dir, err := os.MkdirTemp("", "gpsa-torture-*")
	if err == nil {
		scratch.Lock()
		scratch.dir, scratch.bins = dir, make(map[string]string)
		scratch.Unlock()
		err = setup(dir)
	}
	if err != nil {
		os.RemoveAll(dir)
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// Binary returns the path of cmd/<name>, compiled on first use and
// reused for the rest of the test process. It must run under Main.
func Binary(name string) (string, error) {
	scratch.Lock()
	defer scratch.Unlock()
	if bin, ok := scratch.bins[name]; ok {
		return bin, nil
	}
	if scratch.dir == "" {
		return "", fmt.Errorf("torture: building %s outside torture.Main", name)
	}
	root, err := moduleRoot()
	if err != nil {
		return "", err
	}
	bin := filepath.Join(scratch.dir, name)
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/"+name)
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("torture: building %s: %v\n%s", name, err, out)
	}
	scratch.bins[name] = bin
	return bin, nil
}

// moduleRoot walks up from the working directory to the directory
// holding go.mod, which is where `go build ./cmd/...` must run.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("torture: go.mod not found above working directory")
		}
		dir = parent
	}
}

// WriteGraphs writes g to dir/<name>.gpsa and its symmetrized twin (the
// input CC needs) to dir/<name>-sym.gpsa, creating dir, and returns
// both paths.
func WriteGraphs(dir, name string, g *graph.CSR) (directed, symmetric string, err error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", "", err
	}
	directed = filepath.Join(dir, name+".gpsa")
	if err := graph.WriteFile(directed, g); err != nil {
		return "", "", err
	}
	symmetric = filepath.Join(dir, name+"-sym.gpsa")
	if err := graph.WriteFile(symmetric, g.Symmetrize()); err != nil {
		return "", "", err
	}
	return directed, symmetric, nil
}

// WriteERGraphs writes the subprocess harnesses' torture pair under
// dir: a fixed-seed Erdős–Rényi graph (300 vertices, 1500 edges, seed
// 42) as torture.gpsa and its symmetrized twin as torture-sym.gpsa.
func WriteERGraphs(dir string) (directed, symmetric string, err error) {
	edges, err := gen.ErdosRenyi(300, 1500, 42, false)
	if err != nil {
		return "", "", err
	}
	g, err := graph.FromEdges(edges, 300, false)
	if err != nil {
		return "", "", err
	}
	return WriteGraphs(dir, "torture", g)
}

// State is the durable outcome of a run: every vertex payload plus the
// sealed progress counters, the exact data bit-identical recovery is
// judged on.
type State struct {
	Values    []uint64
	Epoch     int64
	Converged bool
}

// ReadState opens a value file and snapshots its payloads and header.
// The file must be cleanly sealed — reading an in-progress file would
// compare half-finished state.
func ReadState(path string) (State, error) {
	vf, err := vertexfile.Open(path)
	if err != nil {
		return State{}, err
	}
	defer vf.Close()
	if vf.InProgress() {
		return State{}, fmt.Errorf("torture: %s not cleanly sealed", path)
	}
	return State{Values: vf.Values(), Epoch: vf.Epoch(), Converged: vf.Converged()}, nil
}

// Equal reports whether two states are bit-identical.
func (s State) Equal(o State) bool {
	return s.Epoch == o.Epoch && s.Converged == o.Converged && slices.Equal(s.Values, o.Values)
}

// RequireFired marks t failed, without stopping it, for every site
// whose fired count is zero — a schedule whose faults never fired
// tested nothing — and reports whether every site fired. fired is
// typically a fault.Plan's Fired method.
func RequireFired(t testing.TB, fired func(site string) int64, sites ...string) bool {
	t.Helper()
	ok := true
	for _, site := range sites {
		if fired(site) == 0 {
			t.Errorf("fault site %s armed but never fired; the torture is vacuous for it", site)
			ok = false
		}
	}
	return ok
}
