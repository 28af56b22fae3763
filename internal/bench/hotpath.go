package bench

import (
	"encoding/json"
	"fmt"
	"repro/internal/diskio"
	"runtime"
	"time"

	"repro/internal/algorithms"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/vertexfile"
)

// HotPathOptions configures the message hot-path benchmark: the same
// algorithm on the same generated power-law graph, once on each message
// path — off (the per-message ablation, DisableCombining) and dense
// (source-side accumulation) — entirely in memory so the measurement
// isolates the dispatcher→computer path rather than disk.
type HotPathOptions struct {
	Vertices   int64 // default 1<<17
	EdgeFactor int64 // edges per vertex, default 16
	Seed       int64
	Supersteps int      // per run, default 5
	Runs       int      // best-of runs per cell, default 3
	Algos      []string // default pagerank, deltapagerank, bfs, cc, sssp
	// Worker pools (0 = engine defaults).
	Dispatchers int
	Computers   int
	AccumBudget int // bytes (0 = engine default)
	Rev         string
}

func (o HotPathOptions) withDefaults() HotPathOptions {
	if o.Vertices <= 0 {
		o.Vertices = 1 << 17
	}
	if o.EdgeFactor <= 0 {
		o.EdgeFactor = 16
	}
	if o.Supersteps <= 0 {
		o.Supersteps = 5
	}
	if o.Runs <= 0 {
		o.Runs = 3
	}
	if len(o.Algos) == 0 {
		o.Algos = []string{"pagerank", "deltapagerank", "bfs", "cc", "sssp"}
	}
	return o
}

// HotPathCell is one (algorithm, message path) measurement.
type HotPathCell struct {
	Algo        string  `json:"algo"`
	Mode        string  `json:"mode"`
	Seconds     float64 `json:"seconds"`      // best-of wall time for the measured supersteps
	Supersteps  int     `json:"supersteps"`   // supersteps actually executed
	Messages    int64   `json:"messages"`     // messages generated per run
	Delivered   int64   `json:"delivered"`    // messages delivered after source combining
	MsgsPerSec  float64 `json:"msgs_per_sec"` // generated messages / best wall
	StepsPerSec float64 `json:"supersteps_per_sec"`
	AllocPerMsg float64 `json:"alloc_bytes_per_msg"` // heap bytes allocated per generated message (best run)
}

// HotPathReport is the machine-readable benchmark artifact (BENCH_<rev>.json).
type HotPathReport struct {
	Rev        string        `json:"rev"`
	GoVersion  string        `json:"go_version"`
	CPUs       int           `json:"cpus"`
	Timestamp  string        `json:"timestamp"`
	Vertices   int64         `json:"vertices"`
	Edges      int64         `json:"edges"` // directed graph; cc runs on its symmetrization
	Seed       int64         `json:"seed"`
	Supersteps int           `json:"supersteps"`
	Runs       int           `json:"runs"`
	Cells      []HotPathCell `json:"cells"`
	// Speedup maps algorithm -> dense msgs/sec over off msgs/sec; the
	// headline message-throughput gain of source-side accumulation.
	Speedup map[string]float64 `json:"speedup_vs_legacy"`
}

type hotPathWorkload struct {
	prog core.Program
	g    *graph.CSR
}

func hotPathGraphs(opts HotPathOptions) (directed, sym, weighted *graph.CSR, err error) {
	base := gen.RMATConfig{
		Vertices: opts.Vertices,
		Edges:    opts.Vertices * opts.EdgeFactor,
		Seed:     opts.Seed,
	}
	if directed, err = gen.RMATGraph(base); err != nil {
		return nil, nil, nil, err
	}
	sym = directed.Symmetrize()
	wcfg := base
	wcfg.Weighted = true
	if weighted, err = gen.RMATGraph(wcfg); err != nil {
		return nil, nil, nil, err
	}
	return directed, sym, weighted, nil
}

func hotPathWorkloadFor(algo string, directed, sym, weighted *graph.CSR) (hotPathWorkload, error) {
	root := maxDegreeVertex(directed)
	switch algo {
	case "pagerank":
		return hotPathWorkload{algorithms.PageRank{}, directed}, nil
	case "deltapagerank":
		return hotPathWorkload{algorithms.DeltaPageRank{}, directed}, nil
	case "bfs":
		return hotPathWorkload{algorithms.BFS{Root: root}, directed}, nil
	case "cc":
		return hotPathWorkload{algorithms.ConnectedComponents{}, sym}, nil
	case "sssp":
		return hotPathWorkload{algorithms.SSSP{Source: maxDegreeVertex(weighted)}, weighted}, nil
	}
	return hotPathWorkload{}, fmt.Errorf("bench: unknown hot-path algorithm %q", algo)
}

// runHotPathOnce executes one in-memory run and returns the result plus
// the heap bytes it allocated.
func runHotPathOnce(w hotPathWorkload, mode core.AccumMode, opts HotPathOptions) (*core.Result, uint64, error) {
	gf, err := graph.NewMemoryFile(w.g)
	if err != nil {
		return nil, 0, err
	}
	vf, err := vertexfile.NewMemory(w.g.NumVertices, w.prog.Init)
	if err != nil {
		return nil, 0, err
	}
	defer vf.Close() //lint:syncerr benchmark harness teardown of scratch files; no durability contract
	eng, err := core.New(gf, vf, w.prog, core.Config{
		MaxSupersteps:    opts.Supersteps,
		Dispatchers:      opts.Dispatchers,
		Computers:        opts.Computers,
		AccumBudget:      opts.AccumBudget,
		DisableCombining: mode == core.AccumOff,
		DisableSync:      true,
	})
	if err != nil {
		return nil, 0, err
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	res, err := eng.Run()
	runtime.ReadMemStats(&after)
	if err != nil {
		return nil, 0, err
	}
	return res, after.TotalAlloc - before.TotalAlloc, nil
}

// RunHotPath measures every (algorithm, message path) cell on one
// generated power-law graph and assembles the report.
func RunHotPath(opts HotPathOptions) (*HotPathReport, error) {
	opts = opts.withDefaults()
	directed, sym, weighted, err := hotPathGraphs(opts)
	if err != nil {
		return nil, err
	}
	rep := &HotPathReport{
		Rev:        opts.Rev,
		GoVersion:  runtime.Version(),
		CPUs:       runtime.NumCPU(),
		Timestamp:  time.Now().UTC().Format(time.RFC3339),
		Vertices:   directed.NumVertices,
		Edges:      directed.NumEdges,
		Seed:       opts.Seed,
		Supersteps: opts.Supersteps,
		Runs:       opts.Runs,
		Speedup:    map[string]float64{},
	}
	off := map[string]float64{} // algo -> msgs/sec without combining
	for _, algo := range opts.Algos {
		w, err := hotPathWorkloadFor(algo, directed, sym, weighted)
		if err != nil {
			return nil, err
		}
		for _, mode := range []core.AccumMode{core.AccumOff, core.AccumDense} {
			cell := HotPathCell{Algo: algo, Mode: mode.String()}
			for r := 0; r < opts.Runs; r++ {
				start := time.Now()
				res, alloc, err := runHotPathOnce(w, mode, opts)
				wall := time.Since(start).Seconds()
				if err != nil {
					return nil, fmt.Errorf("bench: %s/%s: %w", algo, mode, err)
				}
				if r == 0 || wall < cell.Seconds {
					cell.Seconds = wall
					cell.Supersteps = res.Supersteps
					cell.Messages = res.Messages
					cell.Delivered = res.Delivered
					if res.Messages > 0 {
						cell.AllocPerMsg = float64(alloc) / float64(res.Messages)
					}
				}
			}
			if cell.Seconds > 0 {
				cell.MsgsPerSec = float64(cell.Messages) / cell.Seconds
				cell.StepsPerSec = float64(cell.Supersteps) / cell.Seconds
			}
			rep.Cells = append(rep.Cells, cell)
			if mode == core.AccumOff {
				off[algo] = cell.MsgsPerSec
			} else if base := off[algo]; base > 0 {
				rep.Speedup[algo] = cell.MsgsPerSec / base
			}
		}
	}
	return rep, nil
}

// WriteJSON writes the report, indented, to path.
func (r *HotPathReport) WriteJSON(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return diskio.WriteFileAtomic(path, append(data, '\n'), 0o644)
}
