package bench

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
)

// TestHotPathSmoke runs the full hot-path matrix at a tiny scale: every
// algorithm on both message paths must complete, produce consistent counters,
// and the report must round-trip through JSON. This is the make
// bench-smoke gate; the real measurement is make bench.
func TestHotPathSmoke(t *testing.T) {
	rep, err := RunHotPath(HotPathOptions{
		Vertices:   1 << 10,
		EdgeFactor: 8,
		Seed:       42,
		Supersteps: 3,
		Runs:       1,
		Rev:        "smoke",
	})
	if err != nil {
		t.Fatal(err)
	}
	wantCells := 5 * 2 // algorithms x {off, dense}
	if len(rep.Cells) != wantCells {
		t.Fatalf("got %d cells, want %d", len(rep.Cells), wantCells)
	}
	perAlgoMsgs := map[string]int64{}
	for _, c := range rep.Cells {
		if c.Supersteps <= 0 || c.Seconds <= 0 {
			t.Fatalf("%s/%s: empty measurement %+v", c.Algo, c.Mode, c)
		}
		if c.Messages > 0 && c.MsgsPerSec <= 0 {
			t.Fatalf("%s/%s: throughput not derived", c.Algo, c.Mode)
		}
		if c.Delivered > c.Messages {
			t.Fatalf("%s/%s: delivered %d > generated %d", c.Algo, c.Mode, c.Delivered, c.Messages)
		}
		// Both paths generate the same messages for the same workload: the
		// message path must not change what the program emits.
		if prev, ok := perAlgoMsgs[c.Algo]; ok && prev != c.Messages {
			t.Fatalf("%s: mode %s generated %d messages, earlier mode %d", c.Algo, c.Mode, c.Messages, prev)
		}
		perAlgoMsgs[c.Algo] = c.Messages
	}
	// PageRank keeps every vertex active, so dense accumulation must
	// combine at the source: strictly fewer deliveries than messages.
	for _, c := range rep.Cells {
		if c.Algo == "pagerank" && c.Mode == core.AccumDense.String() && c.Delivered >= c.Messages {
			t.Fatalf("pagerank/dense delivered %d of %d messages; no source combining happened", c.Delivered, c.Messages)
		}
	}
	// Allocation ceiling: the arena-pooled accumulator path measures
	// under 1.3 B/msg even at this toy scale (where per-run fixed costs —
	// actor spawn, mailboxes — dominate the short bfs message counts; at
	// paper scale it is <0.01 B). An unpooled path re-allocates slabs
	// every flush and lands in the tens of B/msg here, so a 4 B gate
	// catches a pooling regression without tripping on GC noise.
	const allocCeiling = 4.0 // bytes per message
	for _, c := range rep.Cells {
		if c.Mode == core.AccumOff.String() {
			continue // the gate covers the accumulator path only
		}
		if c.AllocPerMsg > allocCeiling {
			t.Fatalf("%s/%s: %.2f B/msg exceeds the %.1f B pooled-path ceiling",
				c.Algo, c.Mode, c.AllocPerMsg, allocCeiling)
		}
	}
	path := filepath.Join(t.TempDir(), "bench.json")
	if err := rep.WriteJSON(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var back HotPathReport
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("report does not round-trip: %v", err)
	}
	if back.Rev != "smoke" || len(back.Cells) != wantCells {
		t.Fatalf("round-tripped report lost data: rev=%q cells=%d", back.Rev, len(back.Cells))
	}
}
