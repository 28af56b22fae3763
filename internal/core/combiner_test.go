package core

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/mmap"
	"repro/internal/vertexfile"
)

// ccCombining is ccProg plus a min-combiner.
type ccCombining struct{ ccProg }

func (ccCombining) CombineMsg(a, b uint64) uint64 {
	if a < b {
		return a
	}
	return b
}

func TestCombiningPreservesResults(t *testing.T) {
	g := randomGraph(t, 31, 200, 1200).Symmetrize()
	want := refRun(g, ccProg{}, 100)

	eng, vf := setup(t, g, ccCombining{}, Config{BatchSize: 64})
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	for v := int64(0); v < g.NumVertices; v++ {
		if vf.Value(v) != want[v] {
			t.Fatalf("vertex %d: %d, want %d", v, vf.Value(v), want[v])
		}
	}
	if res.Delivered >= res.Messages {
		t.Fatalf("combining delivered %d of %d generated messages; expected a reduction on a dense symmetric graph",
			res.Delivered, res.Messages)
	}
}

func TestDisableCombining(t *testing.T) {
	g := randomGraph(t, 32, 100, 600)
	eng, _ := setup(t, g, ccCombining{}, Config{DisableCombining: true})
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered != res.Messages {
		t.Fatalf("combining disabled but delivered %d != generated %d", res.Delivered, res.Messages)
	}
}

func TestNonCombinableProgramDeliversEverything(t *testing.T) {
	g := randomGraph(t, 33, 100, 600)
	eng, _ := setup(t, g, ccProg{}, Config{})
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered != res.Messages {
		t.Fatalf("no combiner but delivered %d != generated %d", res.Delivered, res.Messages)
	}
}

func TestPerWorkerStatsSumToTotals(t *testing.T) {
	g := randomGraph(t, 37, 300, 1800)
	eng, _ := setup(t, g, prProg{}, Config{MaxSupersteps: 3, Dispatchers: 3, Computers: 4})
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.DispatcherMessages) == 0 || len(res.ComputerUpdates) != 4 {
		t.Fatalf("per-worker stats missing: %d dispatchers, %d computers",
			len(res.DispatcherMessages), len(res.ComputerUpdates))
	}
	var msgs, upds int64
	for _, m := range res.DispatcherMessages {
		msgs += m
	}
	for _, u := range res.ComputerUpdates {
		upds += u
	}
	if msgs != res.Messages {
		t.Fatalf("dispatcher stats sum %d, total %d", msgs, res.Messages)
	}
	if upds != res.Updates {
		t.Fatalf("computer stats sum %d, total %d", upds, res.Updates)
	}
}

func TestDisableSyncStillCorrect(t *testing.T) {
	g := randomGraph(t, 36, 150, 800)
	want := refRun(g, bfsProg{root: 1}, 100)
	eng, vf := setup(t, g, bfsProg{root: 1}, Config{DisableSync: true})
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	for v := int64(0); v < g.NumVertices; v++ {
		if vf.Value(v) != want[v]&vertexfile.PayloadMask {
			t.Fatalf("vertex %d mismatch with sync disabled", v)
		}
	}
}

func TestEngineRunsOnCompactFormat(t *testing.T) {
	// The compact (varint) on-disk format must be a drop-in replacement.
	g := randomGraph(t, 38, 300, 1800).Symmetrize()
	want := refRun(g, ccProg{}, 100)

	dir := t.TempDir()
	gpath := dir + "/g2.gpsa"
	if err := graph.WriteFileCompact(gpath, g); err != nil {
		t.Fatal(err)
	}
	gf, err := graph.OpenFile(gpath, mmap.ModeAuto)
	if err != nil {
		t.Fatal(err)
	}
	defer gf.Close()
	vf, err := CreateValueFile(dir+"/v.gpvf", gf, ccProg{})
	if err != nil {
		t.Fatal(err)
	}
	defer vf.Close()
	eng, err := New(gf, vf, ccProg{}, Config{Dispatchers: 3, Computers: 2})
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("did not converge on compact input")
	}
	for v := int64(0); v < g.NumVertices; v++ {
		if vf.Value(v) != want[v] {
			t.Fatalf("vertex %d: %d, want %d", v, vf.Value(v), want[v])
		}
	}
}
