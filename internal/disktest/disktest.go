// Package disktest is GPSA's hostile-disk torture harness, the storage
// sibling of internal/crashtest (kill torture) and internal/chaostest
// (network torture). It drives the real write paths — CSR build, the
// engine's value-file commit protocol, the gpsa-serve job journal, the
// cluster repair plane — under every disk.* fault site the diskio layer
// injects (ENOSPC on create/write/sync, EIO on write/read/sync, short
// writes, torn syncs, at-rest bit-rot) and holds the system to one
// invariant: the run either completes bit-identical to an undisturbed
// baseline, or fails with a typed, actionable error
// (diskio.ErrDiskFull / ErrIOFailure / ErrCorrupt) from which a healed
// disk recovers to the bit-identical result. Silent corruption and
// wedges are the two forbidden outcomes.
//
// The storm schedules live in its tests (make disktorture; the smoke
// slice runs in make check); the gpsa-serve client and the sealed-state
// compare are internal/torture.
package disktest

import (
	"encoding/json"
	"os"
	"sync"

	"repro/internal/gen"
	"repro/internal/graph"
)

// rmatGraph is the fixed-seed R-MAT torture graph, built once per
// process. The storms rewrite it to fresh directories through the real
// CSR writer, so the in-memory CSR — not any one file — is the seed
// input.
var rmatGraph = sync.OnceValues(func() (*graph.CSR, error) {
	return gen.RMATGraph(gen.RMATConfig{Vertices: 300, Edges: 1800, Seed: 11})
})

// tortureGraph returns the torture graph, directed or symmetrized.
func tortureGraph(symmetric bool) (*graph.CSR, error) {
	g, err := rmatGraph()
	if err != nil || !symmetric {
		return g, err
	}
	return g.Symmetrize(), nil
}

// stormReport is the per-site outcome record the torture tests write as
// a CI artifact when GPSA_DISKTEST_REPORT names a path.
type stormReport struct {
	Site      string `json:"site"`
	After     int64  `json:"after"`
	Fired     int64  `json:"fired"`
	Outcome   string `json:"outcome"` // "completed", "typed-error+recovered"
	Err       string `json:"error,omitempty"`
	Recovered string `json:"recovered,omitempty"` // "resume" or "rebuild"
}

// writeStormReport writes the storm outcomes as JSON to the path named
// by GPSA_DISKTEST_REPORT; unset means no artifact.
func writeStormReport(reports []stormReport) error {
	path := os.Getenv("GPSA_DISKTEST_REPORT")
	if path == "" {
		return nil
	}
	data, err := json.MarshalIndent(reports, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
