package core

// Combiner is an optional Program extension (Pregel's message combiner):
// when a program's Compute is insensitive to replacing two messages for
// the same destination with CombineMsg of them, dispatchers merge
// same-destination messages inside each outgoing batch before it is
// mailed, cutting message traffic. Min-folds (BFS, CC, SSSP) combine with
// min; PageRank's accumulation combines with float sum.
type Combiner interface {
	CombineMsg(a, b uint64) uint64
}

// combineScratch sorts a batch by destination, using caller-owned
// workspace (cap >= len(batch)), and merges duplicates with the
// combiner, returning the shortened batch. The dispatcher's legacy path
// runs it with pooled scratch so in-engine combining allocates nothing.
//
// The sort is stable so same-destination messages fold in generation
// order — the same left-fold the source-side accumulators perform —
// keeping the legacy path deterministic and alignable with them even for
// non-commutative combiners and float sums.
func combineScratch(batch, scratch []Message, c Combiner) []Message {
	if len(batch) < 2 {
		return batch
	}
	sortMessagesByDst(batch, scratch)
	out := batch[:1]
	for _, m := range batch[1:] {
		last := &out[len(out)-1]
		if m.Dst == last.Dst {
			last.Val = c.CombineMsg(last.Val, m.Val)
			continue
		}
		//lint:noalloc out is combined in place over batch's backing array; len(out) <= len(batch) so append never grows
		out = append(out, m)
	}
	return out
}
