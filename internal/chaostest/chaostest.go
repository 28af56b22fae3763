// Package chaostest is GPSA's network-torture harness, the cluster
// sibling of internal/crashtest: it runs real in-process multi-node
// cluster jobs under seeded chaos schedules — node deaths parked
// mid-dispatch and mid-barrier, one-way partitions that heal after a
// jitter window, connection resets, torn and bit-flipped frames — and
// asserts the disturbed run converges to final vertex values
// bit-identical to an undisturbed baseline, with the recovery machinery
// (superstep rollback, node rejoin, frame checksums) provably exercised
// via the cluster.* metrics.
//
// The package holds the Fixture and Scenario table; the torture
// schedules live in its tests, and the graph writer and non-vacuity
// check are internal/torture. `make chaos` runs the full seeded schedule
// (GPSA_CHAOS=1); the smoke scenario runs with the ordinary test suite.
package chaostest

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/gen"
	"repro/internal/torture"
)

// Fixture holds the torture graphs and memoizes undisturbed baseline
// runs, so scenarios sharing an algorithm pay for one baseline.
type Fixture struct {
	directed  string
	symmetric string

	mu        sync.Mutex
	baselines map[string][]uint64
}

// NewFixture generates the torture graphs under dir: a fixed-seed R-MAT
// power-law graph for PageRank/BFS and its symmetrized twin for CC.
// Fixed seeds keep every run of the harness on the same inputs.
func NewFixture(dir string) (*Fixture, error) {
	g, err := gen.RMATGraph(gen.RMATConfig{Vertices: 400, Edges: 2600, Seed: 7})
	if err != nil {
		return nil, err
	}
	directed, symmetric, err := torture.WriteGraphs(dir, "chaos", g)
	if err != nil {
		return nil, err
	}
	return &Fixture{directed: directed, symmetric: symmetric, baselines: make(map[string][]uint64)}, nil
}

// Graph returns the path of the directed or symmetrized torture graph.
func (f *Fixture) Graph(symmetric bool) string {
	if symmetric {
		return f.symmetric
	}
	return f.directed
}

// Config is the cluster configuration every chaos run uses: 3 nodes, a
// generous rollback-and-retry budget, and timeouts tightened far below
// the production defaults so fault detection — not the fault itself — is
// what the harness spends its wall clock on.
func Config(maxSupersteps int) cluster.Config {
	return cluster.Config{
		Nodes:             3,
		MaxSupersteps:     maxSupersteps,
		StepRetries:       8,
		HeartbeatInterval: 100 * time.Millisecond,
		NodeTimeout:       2 * time.Second,
		PhaseTimeout:      4 * time.Second,
		RecoveryTimeout:   10 * time.Second,
		Node: cluster.NodeConfig{
			BarrierTimeout: 1500 * time.Millisecond,
			RedialBackoff:  2 * time.Millisecond,
		},
	}
}

// Baseline returns the undisturbed final vertex values for prog on the
// chosen graph — the bit-exactness reference every disturbed run is held
// to. The baseline shares the scenario's interval partition (splits) —
// partition geometry is what runs and fold order hang off —
// but runs with FIXED membership and no chaos: an elastic run is held
// bit-identical to a never-disturbed, never-migrated cluster. Memoized
// per key; must not be called with a fault plan active.
func (f *Fixture) Baseline(key string, prog core.Program, symmetric bool, maxSupersteps, splits int) ([]uint64, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if v, ok := f.baselines[key]; ok {
		return v, nil
	}
	if fault.Enabled() {
		return nil, fmt.Errorf("chaostest: baseline %q requested while a fault plan is active", key)
	}
	cfg := Config(maxSupersteps)
	cfg.Splits = splits
	_, values, err := cluster.Run(f.Graph(symmetric), prog, cfg)
	if err != nil {
		return nil, fmt.Errorf("chaostest: undisturbed baseline %q failed: %w", key, err)
	}
	f.baselines[key] = values
	return values, nil
}

// Scenario is one seeded chaos schedule over one algorithm.
type Scenario struct {
	Name          string
	Prog          core.Program
	Baseline      string // baseline memo key (algorithm identity + splits)
	Symmetric     bool
	MaxSupersteps int
	Seed          int64
	Injections    []fault.Injection

	// Splits sets intervals-per-node (cluster.Config.Splits); the
	// undisturbed baseline shares it. Elastic scenarios need >= 2 so
	// migration has sub-node granularity to move.
	Splits int
	// Events schedules joins and drains into the disturbed run; the
	// baseline never sees them.
	Events []cluster.MembershipEvent
	// Redistribute switches the disturbed run to RedistributeDead: a
	// killed node is retired and its intervals salvaged to survivors.
	Redistribute bool
	// Rebalance enables the per-barrier edge-weight balancer.
	Rebalance bool

	// Want* assert the run's recovery and membership counters, so a
	// schedule meant to kill, migrate, join, or drain fails loudly if its
	// faults were absorbed without ever exercising the machinery under
	// test. WantLive, when > 0, pins the final member count.
	WantRejoins         bool
	WantRollbacks       bool
	WantMigrations      bool
	WantRedistributions bool
	WantJoins           bool
	WantDrains          bool
	WantLive            int
}

// ClusterConfig is the disturbed run's configuration: the shared chaos
// Config plus the scenario's elastic-membership knobs.
func (sc Scenario) ClusterConfig() cluster.Config {
	cfg := Config(sc.MaxSupersteps)
	cfg.Splits = sc.Splits
	cfg.Events = sc.Events
	if sc.Redistribute {
		cfg.DeadNodes = cluster.RedistributeDead
	}
	cfg.Rebalance = sc.Rebalance
	return cfg
}

// KillAndPartitionSites are the chaos sites that count toward the
// harness's disturbance quota.
var KillAndPartitionSites = []string{
	fault.SiteNodeKillDispatch,
	fault.SiteNodeKillBarrier,
	fault.SiteConnPartition,
}

// FiredDisturbances sums a plan's firings across the kill and partition
// sites.
func FiredDisturbances(p *fault.Plan) int64 {
	var total int64
	for _, site := range KillAndPartitionSites {
		total += p.Fired(site)
	}
	return total
}
