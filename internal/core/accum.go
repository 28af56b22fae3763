package core

import "fmt"

// AccumMode reports the dispatcher→computer message path a superstep
// ran (StepStats.Accum). Programs that supply a Combiner always take the
// dense path: instead of materialising a Message struct per edge,
// dispatchers fold messages in place into a per-(dispatcher, computer)
// slab and hand whole slabs to computing workers — collapsing millions
// of mailbox messages into a handful of segment handoffs while keeping
// the dispatch/compute overlap (slabs flush incrementally on a byte
// budget, not only at the barrier). Programs without a Combiner, and
// runs with Config.DisableCombining, mail uncombined per-message
// batches.
type AccumMode int

const (
	// AccumOff is the per-message batch path: every generated message
	// is delivered.
	AccumOff AccumMode = iota
	// AccumDense is source-side accumulation into dense slabs.
	AccumDense
)

func (m AccumMode) String() string {
	switch m {
	case AccumOff:
		return "off"
	case AccumDense:
		return "dense"
	}
	return fmt.Sprintf("AccumMode(%d)", int(m))
}

// denseSeg is one dense accumulator slab for a single computing worker:
// vals[i] accumulates the combined message of the worker's i-th owned
// vertex (vertex i*Computers + worker), bits marks which slots are
// present. Slabs are engine-pooled: the dispatcher hands the whole slab
// to the computer at a flush point and takes a fresh one.
type denseSeg struct {
	count int // present entries
	vals  []uint64
	bits  []uint64
}
