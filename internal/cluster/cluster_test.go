package cluster_test

import (
	"math"
	"path/filepath"
	"testing"

	"repro/internal/algorithms"
	"repro/internal/cluster"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/vertexfile"
)

func save(t testing.TB, g *graph.CSR) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "g.gpsa")
	if err := graph.WriteFile(path, g); err != nil {
		t.Fatal(err)
	}
	return path
}

func rmat(t testing.TB, v, e, seed int64) *graph.CSR {
	t.Helper()
	g, err := gen.RMATGraph(gen.RMATConfig{Vertices: v, Edges: e, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestClusterCCMatchesSerialReference(t *testing.T) {
	g := rmat(t, 500, 3000, 1).Symmetrize()
	want, _ := algorithms.ReferenceRun(g, algorithms.ConnectedComponents{}, 100)
	for _, nodes := range []int{1, 2, 3, 5} {
		res, values, err := cluster.Run(save(t, g), algorithms.ConnectedComponents{}, cluster.Config{Nodes: nodes})
		if err != nil {
			t.Fatalf("nodes=%d: %v", nodes, err)
		}
		if !res.Converged {
			t.Fatalf("nodes=%d: did not converge in %d supersteps", nodes, res.Supersteps)
		}
		for v := int64(0); v < g.NumVertices; v++ {
			if values[v] != want[v] {
				t.Fatalf("nodes=%d vertex %d: %d, want %d", nodes, v, values[v], want[v])
			}
		}
	}
}

func TestClusterBFSMatchesSerialReference(t *testing.T) {
	g := rmat(t, 400, 2500, 2)
	prog := algorithms.BFS{Root: 0}
	want, _ := algorithms.ReferenceRun(g, prog, 200)
	res, values, err := cluster.Run(save(t, g), prog, cluster.Config{Nodes: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("BFS did not converge")
	}
	for v := int64(0); v < g.NumVertices; v++ {
		if values[v] != want[v]&vertexfile.PayloadMask {
			t.Fatalf("vertex %d: level %d, want %d", v, values[v], want[v])
		}
	}
}

func TestClusterPageRankMatchesSerialReference(t *testing.T) {
	g := rmat(t, 300, 2000, 3)
	want, _ := algorithms.ReferenceRun(g, algorithms.PageRank{}, 5)
	res, values, err := cluster.Run(save(t, g), algorithms.PageRank{}, cluster.Config{Nodes: 4, MaxSupersteps: 5})
	if err != nil {
		t.Fatal(err)
	}
	if res.Supersteps != 5 {
		t.Fatalf("ran %d supersteps", res.Supersteps)
	}
	for v := int64(0); v < g.NumVertices; v++ {
		got := algorithms.RankOf(values[v])
		ref := algorithms.RankOf(want[v] & vertexfile.PayloadMask)
		if math.Abs(got-ref) > 1e-9*(1+ref) {
			t.Fatalf("vertex %d: rank %g, want %g", v, got, ref)
		}
	}
}

func TestClusterStatsAggregation(t *testing.T) {
	// Chain 0->1->2 split across 2+ nodes: messages cross the wire.
	g, err := graph.FromEdges([]graph.Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}}, 3, false)
	if err != nil {
		t.Fatal(err)
	}
	res, values, err := cluster.Run(save(t, g), algorithms.BFS{Root: 0}, cluster.Config{Nodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Messages != 2 || res.Updates != 2 {
		t.Fatalf("messages=%d updates=%d, want 2 and 2", res.Messages, res.Updates)
	}
	if values[2] != 2 {
		t.Fatalf("level of 2 = %d", values[2])
	}
	if len(res.Steps) != res.Supersteps {
		t.Fatalf("steps recorded: %d, supersteps: %d", len(res.Steps), res.Supersteps)
	}
}

func TestClusterMoreNodesThanIntervals(t *testing.T) {
	// A tiny graph cannot be split 8 ways; the cluster shrinks gracefully.
	g, err := graph.FromEdges([]graph.Edge{{Src: 0, Dst: 1}}, 2, false)
	if err != nil {
		t.Fatal(err)
	}
	res, values, err := cluster.Run(save(t, g), algorithms.BFS{Root: 0}, cluster.Config{Nodes: 8})
	if err != nil {
		t.Fatal(err)
	}
	if res.Nodes > 8 || res.Nodes < 1 {
		t.Fatalf("nodes = %d", res.Nodes)
	}
	if values[1] != 1 {
		t.Fatalf("level of 1 = %d", values[1])
	}
}

func TestClusterCombining(t *testing.T) {
	// CC implements the min combiner; delivered must not exceed generated.
	g := rmat(t, 300, 3000, 4).Symmetrize()
	res, _, err := cluster.Run(save(t, g), algorithms.ConnectedComponents{}, cluster.Config{Nodes: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered > res.Messages {
		t.Fatalf("delivered %d > generated %d", res.Delivered, res.Messages)
	}
	if res.Delivered == 0 || res.Messages == 0 {
		t.Fatal("no traffic recorded")
	}
}

// TestClusterInDegreeMatchesSerialReference covers the non-combining
// path: InDegree has no Combiner, so every message travels in
// generation order and is applied one by one. An integer sum is
// order-independent, so the cluster must match the reference exactly.
func TestClusterInDegreeMatchesSerialReference(t *testing.T) {
	g := rmat(t, 500, 4000, 5)
	want, _ := algorithms.ReferenceRun(g, algorithms.InDegree{}, 1)
	path := save(t, g)
	for _, nodes := range []int{1, 2, 3} {
		_, values, err := cluster.Run(path, algorithms.InDegree{}, cluster.Config{Nodes: nodes, MaxSupersteps: 1})
		if err != nil {
			t.Fatalf("nodes=%d: %v", nodes, err)
		}
		for v := int64(0); v < g.NumVertices; v++ {
			if values[v] != want[v]&vertexfile.PayloadMask {
				t.Fatalf("nodes=%d vertex %d: in-degree %d, want %d", nodes, v, values[v], want[v]&vertexfile.PayloadMask)
			}
		}
	}
}

// TestClusterFoldInvariantUnderPlacement runs PageRank on the same
// 4-interval partition hosted three ways. The fold order per vertex
// depends only on the partition, so the float results must agree bit
// for bit however the intervals are spread over nodes.
func TestClusterFoldInvariantUnderPlacement(t *testing.T) {
	g := rmat(t, 600, 5000, 6)
	path := save(t, g)
	var want []uint64
	var ranges []cluster.Assignment
	for _, c := range []struct{ nodes, splits int }{{1, 4}, {2, 2}, {4, 1}} {
		res, values, err := cluster.Run(path, algorithms.PageRank{}, cluster.Config{Nodes: c.nodes, Splits: c.splits, MaxSupersteps: 5})
		if err != nil {
			t.Fatalf("nodes=%d splits=%d: %v", c.nodes, c.splits, err)
		}
		if len(res.Assignments) != 4 {
			t.Fatalf("nodes=%d splits=%d: %d intervals, want 4", c.nodes, c.splits, len(res.Assignments))
		}
		if want == nil {
			want, ranges = values, res.Assignments
			continue
		}
		for i, a := range res.Assignments {
			if a.First != ranges[i].First || a.End != ranges[i].End {
				t.Fatalf("nodes=%d splits=%d: interval %d is [%d,%d), want [%d,%d)", c.nodes, c.splits, i, a.First, a.End, ranges[i].First, ranges[i].End)
			}
		}
		for v := range want {
			if values[v] != want[v] {
				t.Fatalf("nodes=%d splits=%d vertex %d: %#x, want %#x", c.nodes, c.splits, v, values[v], want[v])
			}
		}
	}
}
