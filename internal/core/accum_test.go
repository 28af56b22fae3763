package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/graph"
)

// Combiner-enabled copies of the test programs (the real ones live in
// internal/algorithms, which imports this package).

type prComb struct{ prProg }

func (prComb) CombineMsg(a, b uint64) uint64 {
	return math.Float64bits(math.Float64frombits(a) + math.Float64frombits(b))
}

type bfsComb struct{ bfsProg }

func (bfsComb) CombineMsg(a, b uint64) uint64 {
	if a < b {
		return a
	}
	return b
}

// dprProg is a local copy of the delta-PageRank program: the payload
// packs (rank, pending residual) as float32s, messages carry float64
// deltas and combine by summation.
type dprProg struct{}

func dprPack(rank, delta float32) uint64 {
	return uint64(math.Float32bits(rank))<<31 | uint64(math.Float32bits(delta))>>1
}

func dprUnpack(p uint64) (rank, delta float32) {
	return math.Float32frombits(uint32(p >> 31)), math.Float32frombits(uint32(p<<1) &^ 1)
}

func (dprProg) Init(v int64) (uint64, bool) { return dprPack(0.15, 0.15), true }

func (dprProg) GenMsg(src int64, payload uint64, deg uint32, dst graph.VertexID, w float32) (uint64, bool) {
	if deg == 0 {
		return 0, false
	}
	_, delta := dprUnpack(payload)
	if float64(delta) < 1e-4 {
		return 0, false
	}
	return math.Float64bits(0.85 * float64(delta) / float64(deg)), true
}

func (dprProg) Compute(dst int64, cur, msg uint64, first bool) (uint64, bool) {
	rank, delta := dprUnpack(cur)
	if first {
		delta = 0
	}
	m := float32(math.Float64frombits(msg))
	return dprPack(rank+m, delta+m), true
}

func (dprProg) CombineMsg(a, b uint64) uint64 {
	return math.Float64bits(math.Float64frombits(a) + math.Float64frombits(b))
}

// ssspComb is a weighted shortest-paths program with a min combiner.
type ssspComb struct{ root graph.VertexID }

func (s ssspComb) Init(v int64) (uint64, bool) {
	if v == int64(s.root) {
		return math.Float64bits(0), true
	}
	return math.Float64bits(math.Inf(1)), false
}

func (ssspComb) GenMsg(src int64, payload uint64, deg uint32, dst graph.VertexID, w float32) (uint64, bool) {
	return math.Float64bits(math.Float64frombits(payload) + math.Abs(float64(w))), true
}

func (ssspComb) Compute(dst int64, cur, msg uint64, first bool) (uint64, bool) {
	if math.Float64frombits(msg) < math.Float64frombits(cur) {
		return msg, true
	}
	return cur, false
}

func (ssspComb) CombineMsg(a, b uint64) uint64 {
	if math.Float64frombits(a) < math.Float64frombits(b) {
		return a
	}
	return b
}

func weightedGraph(t testing.TB, seed, v int64, e int) *graph.CSR {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	edges := make([]graph.Edge, e)
	for i := range edges {
		edges[i] = graph.Edge{
			Src:    graph.VertexID(rng.Int63n(v)),
			Dst:    graph.VertexID(rng.Int63n(v)),
			Weight: rng.Float32() + 0.01,
		}
	}
	g, err := graph.FromEdges(edges, v, true)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// accumPaths are the two message paths a combiner program can take:
// the per-message ablation (DisableCombining) and dense source-side
// accumulation.
var accumPaths = []struct {
	name    string
	disable bool
}{{"off", true}, {"dense", false}}

// runPath executes prog over g on base, with combining disabled when
// off is set, and returns the final vertex payloads plus the run result.
func runPath(t *testing.T, g *graph.CSR, prog Program, base Config, off bool) ([]uint64, *Result) {
	t.Helper()
	cfg := base
	cfg.DisableCombining = off
	eng, vf := setup(t, g, prog, cfg)
	res, err := eng.Run()
	if err != nil {
		t.Fatalf("DisableCombining=%v: %v", off, err)
	}
	return vf.Values(), res
}

// assertValues requires got to match want bit for bit.
func assertValues(t *testing.T, what string, got, want []uint64) {
	t.Helper()
	for v := range got {
		if got[v] != want[v] {
			t.Fatalf("vertex %d: %s got %#x, want %#x", v, what, got[v], want[v])
		}
	}
}

// assertPathsIdentical requires both message paths to produce
// bit-identical payloads, superstep and message counts, and returns
// the dense run's payloads.
func assertPathsIdentical(t *testing.T, g *graph.CSR, prog Program, base Config) []uint64 {
	t.Helper()
	offVals, offRes := runPath(t, g, prog, base, true)
	vals, res := runPath(t, g, prog, base, false)
	assertValues(t, "dense vs off", vals, offVals)
	if res.Supersteps != offRes.Supersteps || res.Messages != offRes.Messages {
		t.Fatalf("dense ran %d supersteps / %d messages, off %d / %d",
			res.Supersteps, res.Messages, offRes.Supersteps, offRes.Messages)
	}
	if offRes.Supersteps == 0 {
		t.Fatal("no superstep ran")
	}
	return vals
}

// Float-sum programs fold each destination's messages in generation
// order; a single dispatcher/computer pair with barrier-only flushes
// makes the fold grouping one segment per superstep, so even PageRank's
// float sums must match the combining serial reference bit for bit.
func TestAccumEquivalenceFloatPrograms(t *testing.T) {
	g := randomGraph(t, 71, 220, 1400)
	base := Config{
		Dispatchers: 1, Computers: 1,
		AccumBudget: 1 << 30, // barrier-only accumulator flushes
		DisableSync: true,
	}
	for _, tc := range []struct {
		name  string
		prog  Program
		steps int
	}{{"pagerank", prComb{}, 8}, {"deltapagerank", dprProg{}, 20}} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := base
			cfg.MaxSupersteps = tc.steps
			vals, _ := runPath(t, g, tc.prog, cfg, false)
			assertValues(t, "dense vs reference", vals, refRun(g, tc.prog, tc.steps))
		})
	}
}

// Incremental flushing hands several slabs per (dispatcher, computer)
// pair to the computers mid-dispatch. Each slab is drained in vertex
// order and flushes land at fixed entry counts, so with one dispatcher
// even float sums are reproducible bit for bit; the regrouped fold may
// only move the low bits against a barrier-only run.
func TestAccumEquivalenceFloatIncrementalFlush(t *testing.T) {
	g := randomGraph(t, 72, 300, 2400)
	base := Config{
		Dispatchers: 1, Computers: 3,
		AccumBudget:   512, // 32 entries per accumulator: many mid-dispatch flushes
		MaxSupersteps: 6,
		DisableSync:   true,
	}
	vals, res := runPath(t, g, prComb{}, base, false)
	again, _ := runPath(t, g, prComb{}, base, false)
	assertValues(t, "repeated incremental-flush run", again, vals)

	barrier := base
	barrier.AccumBudget = 1 << 30
	whole, wholeRes := runPath(t, g, prComb{}, barrier, false)
	if res.Delivered >= res.Messages {
		t.Fatalf("dense accumulation delivered %d of %d generated messages; expected source-side combining", res.Delivered, res.Messages)
	}
	if res.Delivered <= wholeRes.Delivered {
		t.Fatalf("budget 512 delivered %d, barrier-only %d: no mid-dispatch flush happened", res.Delivered, wholeRes.Delivered)
	}
	for v := range vals {
		a, b := math.Float64frombits(vals[v]), math.Float64frombits(whole[v])
		if math.Abs(a-b) > 1e-12*math.Abs(b) {
			t.Fatalf("vertex %d: incremental flush %v, barrier-only %v", v, a, b)
		}
	}
}

// Min-fold programs are order- and grouping-insensitive, so both paths
// must agree bit for bit even under full parallelism, tiny batches and
// eager incremental flushes — and match the serial reference executor.
func TestAccumEquivalenceMinPrograms(t *testing.T) {
	dg := randomGraph(t, 73, 300, 1800)
	base := Config{
		Dispatchers: 3, Computers: 2,
		BatchSize:   32,
		AccumBudget: 512,
		DisableSync: true,
	}
	t.Run("bfs", func(t *testing.T) {
		vals := assertPathsIdentical(t, dg, bfsComb{bfsProg{root: 0}}, base)
		assertValues(t, "engine vs reference", vals, refRun(dg, bfsProg{root: 0}, 100))
	})
	t.Run("cc", func(t *testing.T) {
		sym := dg.Symmetrize()
		vals := assertPathsIdentical(t, sym, ccCombining{}, base)
		assertValues(t, "engine vs reference", vals, refRun(sym, ccProg{}, 100))
	})
	t.Run("sssp", func(t *testing.T) {
		wg := weightedGraph(t, 74, 250, 1500)
		assertPathsIdentical(t, wg, ssspComb{root: 0}, base)
	})
}

// The engine picks each superstep's message path by itself; there is no
// mode knob. Every superstep of a combiner program runs dense — including
// BFS's step 0, whose frontier is the single root — and matches the
// combining serial reference; DisableCombining runs every step off and
// delivers every generated message.
func TestAccumAutoSwitches(t *testing.T) {
	g := randomGraph(t, 75, 400, 4000)
	prog := bfsComb{bfsProg{root: 0}}
	for _, path := range accumPaths {
		t.Run(path.name, func(t *testing.T) {
			var steps []StepStats
			cfg := Config{
				Dispatchers: 2, Computers: 2,
				DisableCombining: path.disable,
				DisableSync:      true,
				Progress:         func(s StepStats) { steps = append(steps, s) },
			}
			eng, vf := setup(t, g, prog, cfg)
			if _, err := eng.Run(); err != nil {
				t.Fatal(err)
			}
			if len(steps) < 2 {
				t.Fatalf("bfs ran %d supersteps", len(steps))
			}
			for _, st := range steps {
				if st.Accum.String() != path.name {
					t.Fatalf("superstep %d ran %v, want %s", st.Step, st.Accum, path.name)
				}
				if path.disable && st.Delivered != st.Messages {
					t.Fatalf("superstep %d: combining disabled but delivered %d != generated %d", st.Step, st.Delivered, st.Messages)
				}
			}
			assertValues(t, "engine vs reference", vf.Values(), refRun(g, prog, 100))
		})
	}
}

// Ownership is fixed at dst mod Computers. A computer count that is not a
// power of two makes the dispatcher fall back from its mask to a modulo;
// dense accumulation must still run on every step and match the reference.
func TestAccumDenseCustomOwnerFallsBack(t *testing.T) {
	g := randomGraph(t, 77, 200, 1200)
	prog := bfsComb{bfsProg{root: 0}}
	var modes []AccumMode
	cfg := Config{
		Computers: 3,
		Progress:  func(s StepStats) { modes = append(modes, s.Accum) },
	}
	eng, vf := setup(t, g, prog, cfg)
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if len(modes) == 0 {
		t.Fatal("no supersteps ran")
	}
	for i, m := range modes {
		if m != AccumDense {
			t.Fatalf("superstep %d ran %v with 3 computers, want dense", i, m)
		}
	}
	assertValues(t, "engine vs reference", vf.Values(), refRun(g, prog, 100))
}

// Programs without a combiner stay on the per-message batch path:
// every generated message is delivered.
func TestAccumRequiresCombiner(t *testing.T) {
	g := randomGraph(t, 76, 150, 900)
	cfg := Config{DisableSync: true}
	var modes []AccumMode
	cfg.Progress = func(s StepStats) { modes = append(modes, s.Accum) }
	eng, _ := setup(t, g, ccProg{}, cfg) // no CombineMsg
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered != res.Messages {
		t.Fatalf("no combiner but delivered %d != generated %d", res.Delivered, res.Messages)
	}
	for _, m := range modes {
		if m != AccumOff {
			t.Fatalf("non-combinable program ran with accumulator mode %v", m)
		}
	}
}

// Pool recycling must be invisible to results: running a computation as
// two Run calls on ONE engine — where the second half draws only slabs
// and batches that were already used, released and (with poison forced
// on) overwritten with the poison pattern — must produce a vertex file
// bit-identical to a fresh engine running straight through. Any read of
// recycled state that escapes the presence metadata would fold poison
// into a value and diverge loudly.
func TestAccumPoolRecycleEquivalence(t *testing.T) {
	restore := poisonReleases
	poisonReleases = true
	defer func() { poisonReleases = restore }()

	g := randomGraph(t, 78, 260, 2000)
	for _, path := range accumPaths {
		t.Run(path.name, func(t *testing.T) {
			// One dispatcher keeps per-computer arrival order deterministic,
			// so even PageRank's float sums must match bit for bit. The tiny
			// budget and batch force heavy mid-dispatch recycle traffic.
			base := Config{
				Dispatchers: 1, Computers: 2,
				BatchSize:        64,
				AccumBudget:      512,
				DisableCombining: path.disable,
				DisableSync:      true,
			}
			const steps = 8
			ref := base
			ref.MaxSupersteps = steps
			refEng, refVf := setup(t, g, prComb{}, ref)
			if _, err := refEng.Run(); err != nil {
				t.Fatal(err)
			}
			half := base
			half.MaxSupersteps = steps / 2
			eng, vf := setup(t, g, prComb{}, half)
			for part := 0; part < 2; part++ {
				if _, err := eng.Run(); err != nil {
					t.Fatalf("run %d: %v", part, err)
				}
			}
			assertValues(t, "recycled engine vs fresh engine", vf.Values(), refVf.Values())
		})
	}
}
