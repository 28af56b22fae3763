package main

import (
	"container/heap"
	"fmt"
	"math"

	"repro/internal/graph"
	"repro/internal/vertexfile"
)

// The sequential references below restate the engine's documented
// semantics independently of its code: outputs are checked against them
// after every timed phase.

// pageRankTolerance bounds the relative difference allowed between the
// engine's PageRank and the reference. The engine sums contributions in a
// different order (combined per dispatcher, folded per computer), so the
// low bits differ; 1e-9 is far above that rounding and far below any
// real error such as a lost or doubled message.
const pageRankTolerance = 1e-9

// refPageRank runs the message-driven PageRank of the engine for steps
// supersteps: every vertex starts at rank 1 and active; an active vertex
// with out-degree d sends rank/d along each out-edge; a vertex that
// receives messages takes rank 0.15 + 0.85*sum and is active in the next
// superstep, and one that receives none keeps its rank and goes idle.
func refPageRank(g *graph.CSR, steps int) []float64 {
	n := g.NumVertices
	rank := make([]float64, n)
	sum := make([]float64, n)
	active := make([]bool, n)
	touched := make([]bool, n)
	for v := range rank {
		rank[v], active[v] = 1, true
	}
	for s := 0; s < steps; s++ {
		sent := false
		for v := int64(0); v < n; v++ {
			deg := g.Indptr[v+1] - g.Indptr[v]
			if !active[v] || deg == 0 {
				continue
			}
			share := rank[v] / float64(deg)
			for _, d := range g.Dst[g.Indptr[v]:g.Indptr[v+1]] {
				if !touched[d] {
					touched[d], sum[d] = true, 0
				}
				sum[d] += share
			}
			sent = true
		}
		for v := range rank {
			active[v] = touched[v]
			if touched[v] {
				rank[v] = 0.15 + 0.85*sum[v]
			}
			touched[v] = false
		}
		if !sent {
			break
		}
	}
	return rank
}

// checkPageRank compares engine payloads (float64 bits) with the
// reference and returns the first mismatch.
func checkPageRank(got func(v int64) uint64, want []float64) error {
	for v, w := range want {
		g := math.Float64frombits(got(int64(v)))
		if math.Abs(g-w) > pageRankTolerance*math.Max(1, math.Abs(w)) {
			return fmt.Errorf("pagerank vertex %d: got %.17g, want %.17g", v, g, w)
		}
	}
	return nil
}

// refBFS returns hop levels from root as engine payloads: unreached
// vertices carry vertexfile.PayloadMask.
func refBFS(g *graph.CSR, root int64) []uint64 {
	level := make([]uint64, g.NumVertices)
	for i := range level {
		level[i] = vertexfile.PayloadMask
	}
	level[root] = 0
	queue := []int64{root}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, d := range g.Dst[g.Indptr[v]:g.Indptr[v+1]] {
			if level[d] == vertexfile.PayloadMask {
				level[d] = level[v] + 1
				queue = append(queue, int64(d))
			}
		}
	}
	return level
}

// refSSSP returns shortest distances from src as engine payloads (float64
// bits, +Inf unreached). A path's length is the left-to-right float64 sum
// of its float32 weights, as the engine adds them; Dijkstra finds the
// same minimum because rounded addition is monotone.
func refSSSP(g *graph.CSR, src int64) []uint64 {
	dist := make([]float64, g.NumVertices)
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	dist[src] = 0
	pq := &distHeap{{v: src}}
	for pq.Len() > 0 {
		it := heap.Pop(pq).(distItem)
		if it.d > dist[it.v] {
			continue
		}
		for i := g.Indptr[it.v]; i < g.Indptr[it.v+1]; i++ {
			nd := it.d + math.Abs(float64(g.Weights[i]))
			if d := int64(g.Dst[i]); nd < dist[d] {
				dist[d] = nd
				heap.Push(pq, distItem{v: d, d: nd})
			}
		}
	}
	out := make([]uint64, len(dist))
	for i, d := range dist {
		out[i] = math.Float64bits(d)
	}
	return out
}

type distItem struct {
	v int64
	d float64
}

type distHeap []distItem

func (h distHeap) Len() int           { return len(h) }
func (h distHeap) Less(i, j int) bool { return h[i].d < h[j].d }
func (h distHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *distHeap) Push(x any)        { *h = append(*h, x.(distItem)) }
func (h *distHeap) Pop() any {
	old := *h
	it := old[len(old)-1]
	*h = old[:len(old)-1]
	return it
}

// checkExact compares engine payloads bit for bit.
func checkExact(what string, got func(v int64) uint64, want []uint64) error {
	for v, w := range want {
		if g := got(int64(v)); g != w {
			return fmt.Errorf("%s vertex %d: got %#x, want %#x", what, v, g, w)
		}
	}
	return nil
}
