package main

import (
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/metrics"
)

// The timed phase of every workload is a sequence of rounds: one job
// (local-pagerank, cluster-pagerank) or one fixed-length window of the
// job stream (serve-frontier). The reference host is a virtual machine
// whose hypervisor now and then runs other guests on its CPUs for tens of
// seconds at a time; /proc/stat counts that time as steal, and a 10%
// steal share slows latency-bound work by 20% or more. Each round records
// the steal share over its own interval, and the end-to-end metrics come
// from the rounds the host left alone, so they measure the program rather
// than its neighbours. The selection never looks at the program's own
// timings.
const (
	// cleanSteal is the highest share of host CPU time stolen during a
	// round for the round to count as clean.
	cleanSteal = 0.02
	// extendFactor bounds the timed phase: while fewer than half of the
	// planned rounds were clean, rounds keep running until the phase has
	// taken extendFactor times --seconds.
	extendFactor = 4
)

// round is one unit of timed work.
type round struct {
	wall     time.Duration
	cpu      time.Duration // process CPU time over the round
	steal    float64       // share of host CPU time stolen during the round
	messages int64         // messages the engine generated
	jobs     []float64     // latency of each job completed in the round, ms
	steps    []float64     // superstep walls, ms
	peakRSS  float64       // MiB, VmHWM over the round; 0 if not measured per round
}

// phase is one timed phase: every round run and the ones the metrics
// come from.
type phase struct {
	rounds  []round
	used    []round
	peakRSS []float64 // MiB: each used round's peak, or the whole phase's
}

func (p phase) wall() time.Duration {
	var d time.Duration
	for _, r := range p.used {
		d += r.wall
	}
	return d
}

func (p phase) messages() int64 {
	var n int64
	for _, r := range p.used {
		n += r.messages
	}
	return n
}

func (p phase) jobs() []float64 {
	var xs []float64
	for _, r := range p.used {
		xs = append(xs, r.jobs...)
	}
	return xs
}

func (p phase) steps() []float64 {
	var xs []float64
	for _, r := range p.used {
		xs = append(xs, r.steps...)
	}
	return xs
}

func (p phase) cpuPerJob() float64 {
	var cpu time.Duration
	var jobs int
	for _, r := range p.used {
		cpu += r.cpu
		jobs += len(r.jobs)
	}
	return ratio(ms(cpu), float64(jobs))
}

// roundPlan decides how many rounds a timed phase runs.
type roundPlan struct {
	planned int           // rounds of the nominal --seconds of work
	limit   time.Duration // the phase runs no further rounds past this
	start   time.Time
}

// plan starts a timed phase of planned rounds. The traced run does not
// extend its phases: its per-layer metrics carry no bound.
func (e *env) plan(planned int) roundPlan {
	limit := time.Duration(e.cfg.seconds) * time.Second
	if !e.cfg.trace {
		limit *= extendFactor
	}
	return roundPlan{planned: planned, limit: limit, start: time.Now()}
}

// need is how many rounds the metrics come from: half the planned ones.
func (rp roundPlan) need() int { return max(1, (rp.planned+1)/2) }

// more reports whether another round should run after rs.
func (rp roundPlan) more(rs []round) bool {
	if len(rs) < rp.planned {
		return true
	}
	return countClean(rs) < rp.need() && time.Since(rp.start) < rp.limit
}

func countClean(rs []round) int {
	n := 0
	for _, r := range rs {
		if r.steal <= cleanSteal {
			n++
		}
	}
	return n
}

// finish selects the rounds the metrics come from: every clean round if
// there are enough of them, else the need least-stolen rounds.
func (rp roundPlan) finish(rs []round) phase {
	p := phase{rounds: rs}
	if countClean(rs) >= rp.need() {
		for _, r := range rs {
			if r.steal <= cleanSteal {
				p.used = append(p.used, r)
			}
		}
	} else {
		byLeast := append([]round(nil), rs...)
		sort.SliceStable(byLeast, func(i, j int) bool { return byLeast[i].steal < byLeast[j].steal })
		p.used = byLeast[:min(rp.need(), len(byLeast))]
	}
	for _, r := range p.used {
		if r.peakRSS > 0 {
			p.peakRSS = append(p.peakRSS, r.peakRSS)
		}
	}
	return p
}

// meter brackets one round: wall, process CPU and host steal.
type meter struct {
	t0   time.Time
	cpu0 time.Duration
	st0  cpuTimes
}

func startMeter() meter {
	return meter{st0: readCPUTimes(), cpu0: metrics.ProcessCPUTime(), t0: time.Now()}
}

// stop fills r's wall, CPU and steal share from the meter's start to now.
func (m meter) stop(r *round) {
	r.wall = time.Since(m.t0)
	r.cpu = metrics.ProcessCPUTime() - m.cpu0
	r.steal = stealShare(m.st0, readCPUTimes())
}

// cpuTimes is the aggregate "cpu" line of /proc/stat, in clock ticks.
type cpuTimes struct{ steal, total uint64 }

// readCPUTimes returns the host CPU counters, or zeros where /proc/stat
// is unavailable (every round then counts as clean).
func readCPUTimes() cpuTimes {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTimes{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return cpuTimes{}
	}
	// user nice system idle iowait irq softirq steal; guest time is
	// already inside user and nice.
	var t cpuTimes
	for i, f := range fields[1:9] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return cpuTimes{}
		}
		t.total += v
		if i == 7 {
			t.steal = v
		}
	}
	return t
}

func stealShare(a, b cpuTimes) float64 {
	if b.total <= a.total {
		return 0
	}
	return float64(b.steal-a.steal) / float64(b.total-a.total)
}
