package torture

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/vertexfile"
)

// TestHelperProcess is the child the subprocess tests re-exec: the
// test binary run with -test.run=TestHelperProcess and a command after
// "--". Without a command — an ordinary test run — it does nothing.
func TestHelperProcess(t *testing.T) {
	args := flag.Args()
	if len(args) == 0 {
		return
	}
	switch args[0] {
	case "exit":
		fmt.Fprintf(os.Stderr, "fault=%s\n", os.Getenv("GPSA_FAULT"))
		fmt.Fprintln(os.Stdout, "out")
		code, _ := strconv.Atoi(args[1])
		os.Exit(code)
	case "listen":
		fmt.Fprint(os.Stderr, "starting\nserve: listening on 127.0.0.1:4321 (graphs g)\n")
		time.Sleep(30 * time.Second)
	case "sleep":
		time.Sleep(30 * time.Second)
	}
	os.Exit(0)
}

// child returns the argument list that re-execs this test binary as the
// helper process running cmd.
func child(cmd ...string) []string {
	return append([]string{"-test.run=^TestHelperProcess$", "--"}, cmd...)
}

// TestRunReportsExitCodeVersusSIGKILL pins the exit decode: an exit
// code is reported as such, SIGKILL as Killed, and another fatal signal
// (SIGINT, unhandled by the child) as neither.
func TestRunReportsExitCodeVersusSIGKILL(t *testing.T) {
	self := os.Args[0]
	res, err := Run(self, child("exit", "3"), "site=x", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Code != 3 || res.Killed {
		t.Fatalf("exit 3: got code %d killed %v", res.Code, res.Killed)
	}
	if res.Stderr != "fault=site=x\n" || res.Stdout != "out\n" {
		t.Fatalf("captured stdout %q stderr %q, want the child's output and GPSA_FAULT", res.Stdout, res.Stderr)
	}
	if res, err = Run(self, child("exit", "0"), "", 0, 0); err != nil || res.Code != 0 || res.Killed {
		t.Fatalf("exit 0: got code %d killed %v (%v)", res.Code, res.Killed, err)
	}
	if res, err = Run(self, child("sleep"), "", 20*time.Millisecond, 0); err != nil || !res.Killed || res.Code != -1 {
		t.Fatalf("SIGKILL: got code %d killed %v (%v)", res.Code, res.Killed, err)
	}
	if res, err = Run(self, child("sleep"), "", 0, 20*time.Millisecond); err != nil || res.Killed || res.Code != -1 {
		t.Fatalf("SIGINT: got code %d killed %v (%v)", res.Code, res.Killed, err)
	}
}

// TestAwaitLineFindsServerAddress covers the wait StartServer uses for
// gpsa-serve's "listening on" line, and the on-demand signals.
func TestAwaitLineFindsServerAddress(t *testing.T) {
	p, err := start(os.Args[0], child("listen"), "")
	if err != nil {
		t.Fatal(err)
	}
	rest, ok := p.awaitLine("listening on ", 10*time.Second)
	if !ok || rest != "127.0.0.1:4321 (graphs g)" {
		t.Fatalf("awaitLine = %q, %v", rest, ok)
	}
	if code, err := p.Terminate(); err != nil || code != -1 {
		t.Fatalf("SIGTERM: code %d (%v), want -1 for a signal death", code, err)
	}

	p, err = start(os.Args[0], child("exit", "0"), "")
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if _, ok := p.awaitLine("listening on ", 10*time.Second); ok {
		t.Fatal("awaitLine found a marker the child never printed")
	}
	if waited := time.Since(start); waited > 5*time.Second {
		t.Fatalf("awaitLine waited %v for a child that had exited", waited)
	}
	p.Kill() // reaped already: must not block
}

// writeValues creates a sealed value file of n vertices holding payload
// v*3 at epoch 1, then — when inProgress — begins superstep 1 without
// committing it.
func writeValues(t *testing.T, path string, n int64, inProgress bool) {
	t.Helper()
	vf, err := vertexfile.Create(path, n, func(v int64) (uint64, bool) { return uint64(v * 3), true })
	if err != nil {
		t.Fatal(err)
	}
	if err := vf.Begin(0, true); err != nil {
		t.Fatal(err)
	}
	if err := vf.Commit(0, true, true); err != nil {
		t.Fatal(err)
	}
	if inProgress {
		if err := vf.Begin(1, true); err != nil {
			t.Fatal(err)
		}
	}
	if err := vf.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestReadStateRefusesInProgressFile(t *testing.T) {
	dir := t.TempDir()
	sealed := filepath.Join(dir, "sealed.gpvf")
	writeValues(t, sealed, 16, false)
	st, err := ReadState(sealed)
	if err != nil {
		t.Fatal(err)
	}
	if st.Epoch != 1 || len(st.Values) != 16 || st.Values[5] != 15 {
		t.Fatalf("sealed state = epoch %d, %d values, values[5] = %d", st.Epoch, len(st.Values), st.Values[5])
	}

	running := filepath.Join(dir, "running.gpvf")
	writeValues(t, running, 16, true)
	if _, err := ReadState(running); err == nil || !strings.Contains(err.Error(), "not cleanly sealed") {
		t.Fatalf("ReadState of an in-progress file = %v, want a not-sealed error", err)
	}
}

func TestStateEqualIsBitExact(t *testing.T) {
	base := State{Values: []uint64{1, 2, 3}, Epoch: 4, Converged: true}
	same := State{Values: []uint64{1, 2, 3}, Epoch: 4, Converged: true}
	if !base.Equal(same) {
		t.Fatal("identical states compare unequal")
	}
	for name, o := range map[string]State{
		"payload":   {Values: []uint64{1, 2, 3 ^ 1<<62}, Epoch: 4, Converged: true},
		"length":    {Values: []uint64{1, 2}, Epoch: 4, Converged: true},
		"epoch":     {Values: []uint64{1, 2, 3}, Epoch: 5, Converged: true},
		"converged": {Values: []uint64{1, 2, 3}, Epoch: 4, Converged: false},
	} {
		if base.Equal(o) || o.Equal(base) {
			t.Errorf("states differing in %s compare equal", name)
		}
	}
}

func TestRequireFired(t *testing.T) {
	fired := map[string]int64{"a": 2}
	if !RequireFired(t, func(s string) int64 { return fired[s] }, "a") {
		t.Fatal("a fired site reported as vacuous")
	}
	rec := &recorder{TB: t}
	if RequireFired(rec, func(s string) int64 { return fired[s] }, "a", "b") || rec.errors != 1 {
		t.Fatalf("a site that never fired passed the vacuity check (%d errors)", rec.errors)
	}
}

// recorder counts the failures reported to it instead of failing.
type recorder struct {
	testing.TB
	errors int
}

func (r *recorder) Helper()               {}
func (r *recorder) Errorf(string, ...any) { r.errors++ }
