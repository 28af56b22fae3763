package bench

import (
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/algorithms"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/mmap"
	"repro/internal/vertexfile"
)

// batchSizeStudy labels the batch-size variants, which run with
// combining disabled so that BatchSize is actually read.
const batchSizeStudy = "batch-size (combining off)"

// AblationResult is one variant measurement of a GPSA design choice.
type AblationResult struct {
	Study      string // which design choice
	Variant    string // which setting
	Seconds    float64
	Supersteps int
	Messages   int64 // generated by the last run
	Delivered  int64 // delivered after combining by the last run
}

// AblationOptions configures RunAblations.
type AblationOptions struct {
	Dataset    gen.Dataset
	Scale      int64
	Seed       int64
	Supersteps int // default 5
	Runs       int // default 3
	WorkDir    string
}

// RunAblations measures the design choices DESIGN.md calls out:
// dispatch/compute overlap, message batch size, barrier reconciliation,
// and mmap vs heap-backed I/O — all on the paper's PageRank workload.
// PageRank combines, so its messages take the dense accumulator path and
// never read BatchSize; the batch-size variants therefore run with
// combining disabled, on the per-message batch path BatchSize sizes.
func RunAblations(opts AblationOptions) ([]AblationResult, error) {
	if opts.Supersteps <= 0 {
		opts.Supersteps = 5
	}
	if opts.Runs <= 0 {
		opts.Runs = 3
	}
	if opts.Scale <= 0 {
		opts.Scale = 1
	}
	if opts.WorkDir == "" {
		dir, err := os.MkdirTemp("", "gpsa-ablation-*")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		opts.WorkDir = dir
	}
	g, err := opts.Dataset.Scaled(opts.Scale).Generate(opts.Seed)
	if err != nil {
		return nil, err
	}
	csr := filepath.Join(opts.WorkDir, "ablation.gpsa")
	if err := graph.WriteFile(csr, g); err != nil {
		return nil, err
	}

	type variant struct {
		study, name string
		cfg         core.Config
		mode        mmap.Mode
	}
	variants := []variant{
		{"overlap", "overlapped (GPSA)", core.Config{}, mmap.ModeAuto},
		{"overlap", "sequential phases (conventional BSP)", core.Config{SequentialPhases: true, MailboxCap: 1 << 16}, mmap.ModeAuto},
		{"reconcile", "reconcile on (default)", core.Config{}, mmap.ModeAuto},
		{"reconcile", "reconcile off (paper-literal)", core.Config{DisableReconcile: true}, mmap.ModeAuto},
		{"durability", "superstep sync on (default)", core.Config{}, mmap.ModeAuto},
		{"durability", "superstep sync off", core.Config{DisableSync: true}, mmap.ModeAuto},
		{"io", "mmap (GPSA)", core.Config{}, mmap.ModeOS},
		{"io", "heap buffer (explicit I/O)", core.Config{}, mmap.ModeHeap},
	}
	for _, bs := range []int{1, 16, 128, 512, 4096} {
		variants = append(variants, variant{
			batchSizeStudy, fmt.Sprintf("batch=%d", bs),
			core.Config{BatchSize: bs, DisableCombining: true}, mmap.ModeAuto,
		})
	}
	for _, w := range []int{1, 2, 4, 8} {
		variants = append(variants, variant{
			"workers", fmt.Sprintf("dispatchers=computers=%d", w),
			core.Config{Dispatchers: w, Computers: w}, mmap.ModeAuto,
		})
	}

	var out []AblationResult
	for _, v := range variants {
		secs, res, err := measureGPSAVariant(csr, opts, v.cfg, v.mode)
		if err != nil {
			return nil, fmt.Errorf("bench: ablation %s/%s: %w", v.study, v.name, err)
		}
		out = append(out, AblationResult{
			Study: v.study, Variant: v.name, Seconds: secs, Supersteps: res.Supersteps,
			Messages: res.Messages, Delivered: res.Delivered,
		})
	}
	return out, nil
}

// measureGPSAVariant returns the mean wall time over opts.Runs runs and
// the last run's result.
func measureGPSAVariant(csr string, opts AblationOptions, cfg core.Config, mode mmap.Mode) (float64, *core.Result, error) {
	cfg.MaxSupersteps = opts.Supersteps
	var total float64
	var last *core.Result
	for r := 0; r < opts.Runs; r++ {
		gf, err := graph.OpenFile(csr, mode)
		if err != nil {
			return 0, nil, err
		}
		vpath := csr + fmt.Sprintf(".values-%d", r)
		vf, err := vertexfile.Create(vpath, gf.NumVertices, algorithms.PageRank{}.Init)
		if err != nil {
			gf.Close() //lint:syncerr benchmark harness teardown of scratch files; no durability contract
			return 0, nil, err
		}
		eng, err := core.New(gf, vf, algorithms.PageRank{}, cfg)
		if err != nil {
			vf.Close() //lint:syncerr benchmark harness teardown of scratch files; no durability contract
			gf.Close()
			return 0, nil, err
		}
		var res *core.Result
		sample := metrics.MeasureCPU(func() {
			res, err = eng.Run()
		})
		vf.Close() //lint:syncerr benchmark harness teardown of scratch files; no durability contract
		gf.Close()
		os.Remove(vpath)
		if err != nil {
			return 0, nil, err
		}
		total += sample.Wall.Seconds()
		last = res
	}
	return total / float64(opts.Runs), last, nil
}

// FormatAblations renders ablation results grouped by study.
func FormatAblations(rs []AblationResult) string {
	s := fmt.Sprintf("%-26s %-40s %10s %6s\n", "Study", "Variant", "Seconds", "Steps")
	last := ""
	for _, r := range rs {
		if r.Study != last {
			if last != "" {
				s += "\n"
			}
			last = r.Study
		}
		s += fmt.Sprintf("%-26s %-40s %10.4f %6d\n", r.Study, r.Variant, r.Seconds, r.Supersteps)
	}
	return s
}
