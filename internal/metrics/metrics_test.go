package metrics

import (
	"runtime"
	"sync"
	"testing"
	"time"
)

func TestProcessCPUTimeMonotone(t *testing.T) {
	a := ProcessCPUTime()
	burn(20 * time.Millisecond)
	b := ProcessCPUTime()
	if b < a {
		t.Fatalf("CPU time went backwards: %v -> %v", a, b)
	}
	if b == 0 {
		t.Skip("ProcessCPUTime unavailable on this platform")
	}
	if b == a {
		t.Fatal("CPU time did not advance while burning CPU")
	}
}

// TestMeasureCPUDetectsParallelBurn holds the sampler to what it owns:
// process-wide CPU accounting. Each burner locks its OS thread and spins
// until that thread's own CPU clock has advanced by a fixed amount, so
// the total burned is known however the scheduler overlaps the burners;
// a sampler that missed any thread (one counting only the calling
// thread, say) would report far less than that total.
func TestMeasureCPUDetectsParallelBurn(t *testing.T) {
	if ProcessCPUTime() == 0 || threadCPUTime() == 0 {
		t.Skip("process or thread CPU clock unavailable")
	}
	const workers, perWorker = 3, 40 * time.Millisecond
	burned := make([]time.Duration, workers)
	s := MeasureCPU(func() {
		var wg sync.WaitGroup
		for i := range burned {
			wg.Add(1)
			go func() {
				defer wg.Done()
				runtime.LockOSThread()
				defer runtime.UnlockOSThread()
				start := threadCPUTime()
				for burned[i] < perWorker {
					burn(time.Millisecond)
					burned[i] = threadCPUTime() - start
				}
			}()
		}
		wg.Wait()
	})
	var total time.Duration
	for _, b := range burned {
		total += b
	}
	// The process clock is reported in microseconds; allow that rounding.
	if s.CPU+time.Millisecond < total {
		t.Fatalf("sampler saw %v of CPU, but the burners alone used %v", s.CPU, total)
	}
	if s.Wall <= 0 || s.Cores != s.CPU.Seconds()/s.Wall.Seconds() {
		t.Fatalf("sample = %+v: Cores is not CPU/Wall", s)
	}
	if s.Percent < 0 || s.Percent > 110*float64(s.MaxCores) {
		t.Fatalf("nonsense percent %g", s.Percent)
	}
}

func TestSamplerWindowsAreIndependent(t *testing.T) {
	if ProcessCPUTime() == 0 {
		t.Skip("ProcessCPUTime unavailable")
	}
	s := StartCPUSampler()
	burn(30 * time.Millisecond)
	first := s.Sample()
	// Idle window: CPU consumption should drop well below the burn window.
	time.Sleep(30 * time.Millisecond)
	second := s.Sample()
	if first.CPU == 0 {
		t.Fatal("burn window recorded no CPU")
	}
	if second.CPU > first.CPU {
		t.Fatalf("idle window consumed more CPU (%v) than burn window (%v)", second.CPU, first.CPU)
	}
}

// burn spins for roughly d of CPU time on one core.
func burn(d time.Duration) {
	deadline := time.Now().Add(d)
	x := 0
	for time.Now().Before(deadline) {
		for i := 0; i < 1000; i++ {
			x += i
		}
	}
	_ = x
}
