package gpsa

import (
	"path/filepath"
	"testing"

	"repro/internal/algorithms"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
)

// TestValuesDigestMatchesLastStepDigest: the whole-result digest the
// serving layer reports and the engine's per-superstep digest are one
// hash of the committed column, so a run's Values.Digest equals the
// Digest of its last StepStats.
func TestValuesDigestMatchesLastStepDigest(t *testing.T) {
	csr, err := gen.RMATGraph(gen.RMATConfig{Vertices: 400, Edges: 2500, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "g.gpsa")
	if err := graph.WriteFile(path, csr); err != nil {
		t.Fatal(err)
	}
	g, err := OpenGraph(path)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	for name, prog := range map[string]Program{"pagerank": algorithms.PageRank{}, "bfs": algorithms.BFS{Root: 0}} {
		vf, err := core.CreateValueFile(filepath.Join(dir, name+".gpvf"), g.gf, prog)
		if err != nil {
			t.Fatal(err)
		}
		vals := &Values{vf: vf}
		eng, err := core.New(g.gf, vf, prog, core.Config{Digests: true, MaxSupersteps: 6})
		if err != nil {
			t.Fatal(err)
		}
		res, err := eng.Run()
		if err != nil {
			t.Fatal(err)
		}
		last := res.Steps[len(res.Steps)-1].Digest
		if got := vals.Digest(); got != last || got == 0 {
			t.Errorf("%s: Values.Digest %#x, last StepStats.Digest %#x", name, got, last)
		}
		if err := vals.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
