package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	gpsa "repro"
	"repro/internal/actor"
	"repro/internal/algorithms"
	"repro/internal/core"
	"repro/internal/diskio"
	"repro/internal/graph"
	"repro/internal/mmap"
)

// The layer probes run only in the traced run, after its timed phases,
// so no end-to-end number includes them. Each probe calls one layer's
// exported functions on the workload's own graph and directory.

const probeReps = 5

// probeGraph times a full sequential Cursor + DecodeEdge pass over the
// on-disk CSR at path.
func (e *env) probeGraph(path string, parent int64) error {
	gf, err := graph.OpenFile(path, mmap.ModeAuto)
	if err != nil {
		return err
	}
	defer gf.Close()
	st, err := os.Stat(path)
	if err != nil {
		return err
	}
	weighted := gf.Weighted()
	var scans []float64
	var sink uint64
	for i := 0; i < probeReps; i++ {
		id := e.tr.begin("graph", "graph.scan", parent)
		t0 := time.Now()
		c := gf.Cursor(gf.WholeInterval())
		for {
			_, deg, edges, ok := c.Next()
			if !ok {
				break
			}
			for j := 0; j < int(deg); j++ {
				dst, _ := graph.DecodeEdge(edges, j, weighted)
				sink += uint64(dst)
			}
		}
		if err := c.Err(); err != nil {
			return err
		}
		scans = append(scans, float64(st.Size())/time.Since(t0).Seconds()/1e9)
		e.tr.end(id)
	}
	_ = sink
	e.addLayer("graph.scan_gbps", "GB/s", median(scans), len(scans))
	e.addLayer("graph.csr_bytes", "bytes", float64(st.Size()), 1)
	return nil
}

// probeVertexfile times value-file creation, an empty durable
// Begin+Commit, a full-bitmap BulkApply and Values.Digest on a graph of
// the workload's size, inside dir.
func (e *env) probeVertexfile(g *gpsa.Graph, graphPath, dir string, parent int64) error {
	gf, err := graph.OpenFile(graphPath, mmap.ModeAuto)
	if err != nil {
		return err
	}
	defer gf.Close()
	prog := algorithms.PageRank{}
	var creates, commits, applies []float64
	for i := 0; i < probeReps; i++ {
		path := filepath.Join(dir, fmt.Sprintf("probe-%d.gpvf", i))
		id := e.tr.begin("vertexfile", "core.CreateValueFile", parent)
		t0 := time.Now()
		vf, err := core.CreateValueFile(path, gf, prog)
		creates = append(creates, ms(time.Since(t0)))
		e.tr.end(id)
		if err != nil {
			return err
		}
		for step := int64(0); step < 4; step++ {
			id := e.tr.begin("vertexfile", "vertexfile.Begin+Commit", parent)
			t0 := time.Now()
			if err := vf.Begin(step, true); err != nil {
				vf.Close()
				return err
			}
			if err := vf.Commit(step, true, true); err != nil {
				vf.Close()
				return err
			}
			commits = append(commits, ms(time.Since(t0)))
			e.tr.end(id)
		}
		n := vf.NumVertices()
		bits := make([]uint64, (n+63)/64)
		vals := make([]uint64, n)
		for w := range bits {
			bits[w] = ^uint64(0)
		}
		apply := func(v int64, cur, msg uint64, first bool) (uint64, bool, bool) { return cur + 1, true, false }
		id = e.tr.begin("vertexfile", "vertexfile.BulkApply", parent)
		t0 = time.Now()
		updates := vf.BulkApply(vf.Epoch(), 0, 1, bits, vals, apply)
		applies = append(applies, float64(time.Since(t0).Nanoseconds())/float64(max(updates, 1)))
		e.tr.end(id)
		if err := vf.Close(); err != nil {
			return err
		}
		if err := os.Remove(path); err != nil {
			return err
		}
	}
	e.addLayer("vertexfile.create_ms", "ms", median(creates), len(creates))
	e.addLayer("vertexfile.commit_ms_p50", "ms", median(commits), len(commits))
	e.addLayer("vertexfile.bulkapply_ns_per_update", "ns", median(applies), len(applies))

	// Values.Digest needs a facade Values: one superstep produces it.
	digestPath := filepath.Join(dir, "probe-digest.gpvf")
	vals, _, err := gpsa.RunOn(g, prog, gpsa.RunOptions{Supersteps: 1, ValuesPath: digestPath})
	if err != nil {
		return err
	}
	var digests []float64
	for i := 0; i < probeReps; i++ {
		id := e.tr.begin("vertexfile", "Values.Digest", parent)
		t0 := time.Now()
		vals.Digest()
		digests = append(digests, ms(time.Since(t0)))
		e.tr.end(id)
	}
	if err := vals.Close(); err != nil {
		return err
	}
	e.addLayer("vertexfile.digest_ms", "ms", median(digests), len(digests))
	return os.Remove(digestPath)
}

// probeMailbox times Put/Get pairs between two goroutines through an
// actor.Mailbox at the engine's default capacity (64 batches).
func (e *env) probeMailbox(parent int64) error {
	const ops = 1 << 20
	var perOp []float64
	for i := 0; i < probeReps; i++ {
		id := e.tr.begin("actor", "actor.Mailbox", parent)
		mb := actor.NewMailbox[[]uint64](64)
		batch := make([]uint64, 8)
		var wg sync.WaitGroup
		wg.Add(1)
		t0 := time.Now()
		go func() {
			defer wg.Done()
			for {
				if _, ok := mb.Get(); !ok {
					return
				}
			}
		}()
		for j := 0; j < ops; j++ {
			if err := mb.Put(batch); err != nil {
				mb.Close()
				wg.Wait()
				return err
			}
		}
		mb.Close()
		wg.Wait()
		perOp = append(perOp, float64(time.Since(t0).Nanoseconds())/ops)
		e.tr.end(id)
	}
	e.addLayer("actor.mailbox_ns_per_op", "ns", median(perOp), len(perOp))
	return nil
}

// probeFsync times a 4 KiB diskio write followed by Sync in dir.
func (e *env) probeFsync(dir string, parent int64) error {
	path := filepath.Join(dir, "probe-fsync")
	f, err := diskio.Create(path)
	if err != nil {
		return err
	}
	defer os.Remove(path)
	buf := make([]byte, 4096)
	var syncs []float64
	for i := 0; i < 4*probeReps; i++ {
		id := e.tr.begin("diskio", "diskio.Write+Sync", parent)
		t0 := time.Now()
		if _, err := f.Write(buf); err != nil {
			f.Close()
			return err
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return err
		}
		syncs = append(syncs, ms(time.Since(t0)))
		e.tr.end(id)
	}
	if err := f.Close(); err != nil {
		return err
	}
	e.addLayer("diskio.fsync_ms_p50", "ms", median(syncs), len(syncs))
	return nil
}

// probeLayers runs every layer probe under one span, writing its files
// in dir.
func (e *env) probeLayers(g *gpsa.Graph, graphPath, dir string) error {
	return e.tr.do("probe", "probes", 0, func(id int64) error {
		if err := e.probeGraph(graphPath, id); err != nil {
			return fmt.Errorf("graph probe: %w", err)
		}
		if err := e.probeVertexfile(g, graphPath, dir, id); err != nil {
			return fmt.Errorf("vertexfile probe: %w", err)
		}
		if err := e.probeMailbox(id); err != nil {
			return fmt.Errorf("mailbox probe: %w", err)
		}
		if err := e.probeFsync(dir, id); err != nil {
			return fmt.Errorf("fsync probe: %w", err)
		}
		return nil
	})
}
