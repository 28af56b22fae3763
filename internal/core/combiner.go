package core

// Combiner is an optional Program extension (Pregel's message combiner):
// when a program's Compute is insensitive to replacing two messages for
// the same destination with CombineMsg of them, dispatchers fold
// same-destination messages at the source — in generation order, into
// a dense per-computer accumulator — and deliver one combined message
// per vertex and flush, cutting message traffic. Min-folds (BFS, CC,
// SSSP) combine with min; PageRank's accumulation combines with float
// sum.
type Combiner interface {
	CombineMsg(a, b uint64) uint64
}
