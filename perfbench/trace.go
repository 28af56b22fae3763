package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one traced interval at a layer boundary. Times are nanoseconds
// since the tracer's origin; Parent is 0 for a root span.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Run    string `json:"run"`
	Name   string `json:"name"`
	Layer  string `json:"layer"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A disabled tracer
// records nothing, so the untraced timed phase pays only a branch.
type tracer struct {
	mu      sync.Mutex
	enabled bool
	run     string
	origin  time.Time
	nextID  int64
	spans   []span
}

func newTracer(run string) *tracer {
	return &tracer{run: run, origin: time.Now()}
}

// setEnabled turns recording on or off.
func (t *tracer) setEnabled(on bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.enabled = on
}

func (t *tracer) now() int64 { return int64(time.Since(t.origin)) }

// begin opens a span and returns its id (0 when tracing is off).
func (t *tracer) begin(layer, name string, parent int64) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.enabled {
		return 0
	}
	t.nextID++
	t.spans = append(t.spans, span{ID: t.nextID, Parent: parent, Run: t.run, Name: name, Layer: layer, Start: t.now(), End: -1})
	return t.nextID
}

// end closes span id.
func (t *tracer) end(id int64) {
	if id == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = t.now()
}

// add records an already finished span, such as a superstep rebuilt from
// a Progress callback as end - StepStats.Duration.
func (t *tracer) add(layer, name string, parent int64, start, end time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.enabled {
		return
	}
	t.nextID++
	t.spans = append(t.spans, span{ID: t.nextID, Parent: parent, Run: t.run, Name: name, Layer: layer,
		Start: int64(start.Sub(t.origin)), End: int64(end.Sub(t.origin))})
}

// do runs fn inside a span.
func (t *tracer) do(layer, name string, parent int64, fn func(id int64) error) error {
	id := t.begin(layer, name, parent)
	defer t.end(id)
	return fn(id)
}

// selfTimes sums each layer's self time: a span's duration minus the
// part of it that its children cover.
func (t *tracer) selfTimes() map[string]time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int64][]span)
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]time.Duration)
	for _, s := range t.spans {
		if s.End < s.Start {
			continue
		}
		out[s.Layer] += time.Duration(s.End - s.Start - covered(s, children[s.ID]))
	}
	return out
}

// covered returns how much of parent's interval the union of kids spans.
func covered(parent span, kids []span) int64 {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, k := range kids {
		a, b := max(k.Start, parent.Start), min(k.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, hi int64
	hi = parent.Start
	for _, x := range ivs {
		if x.a > hi {
			hi = x.a
		}
		if x.b > hi {
			total += x.b - hi
			hi = x.b
		}
	}
	return total
}

// write stores every span as JSON at path.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	b, err := json.Marshal(struct {
		Run   string `json:"run"`
		Spans []span `json:"spans"`
	}{t.run, t.spans})
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("writing trace: %w", err)
	}
	return nil
}

func (t *tracer) count() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}
