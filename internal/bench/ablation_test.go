package bench

import (
	"testing"

	"repro/internal/gen"
)

// The batch-size study must exercise the per-message batch path that
// BatchSize sizes: PageRank combines, so on the default dense path no
// batch is ever formed and the sweep would measure nothing. Every
// variant's run therefore delivers each generated message uncombined.
func TestAblationBatchSizeRunsUncombined(t *testing.T) {
	rs, err := RunAblations(AblationOptions{
		Dataset:    gen.Google,
		Scale:      512,
		Seed:       1,
		Supersteps: 2,
		Runs:       1,
		WorkDir:    t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	var n int
	for _, r := range rs {
		if r.Study != batchSizeStudy {
			continue
		}
		n++
		if r.Messages == 0 || r.Delivered != r.Messages {
			t.Fatalf("%s: delivered %d of %d generated messages; want every message uncombined", r.Variant, r.Delivered, r.Messages)
		}
	}
	if n != 5 {
		t.Fatalf("found %d batch-size variants, want 5", n)
	}
}
