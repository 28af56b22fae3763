package core

import (
	"errors"
	"fmt"
	"math/bits"

	"repro/internal/actor"
	"repro/internal/fault"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/vertexfile"
)

// dispatcher is the paper's dispatcher worker (Algorithm 2). It owns one
// interval of the CSR edge file and, each superstep, streams it
// sequentially, generating messages for the out-edges of fresh vertices.
//
// For combiner-enabled programs the dispatcher folds messages at the
// source into one dense slab per computer and hands whole slabs to the
// computing workers; without a combiner (or with DisableCombining) it
// mails per-message batches, whose semantics the durability contract is
// stated against.
type dispatcher struct {
	id       int
	eng      *Engine
	interval graph.Interval

	// per-computer outgoing batches (per-message path), arena-pooled
	bufs []([]Message)

	// owner fast path, hoisted out of the per-edge loop: vertex v is
	// owned by computer v mod workers, a mask and shift when the worker
	// count is a power of two.
	workers  int
	ownMask  graph.VertexID // workers-1 when workers is a power of two
	ownShift uint           // log2(workers) for the dense index
	usesMask bool

	// accumulator state (combiner programs)
	dense         []*denseSeg // per computer, handed off at flush
	budgetEntries int         // entries per slab before an incremental flush

	delivered int64 // messages delivered this superstep (post-combining)
	folded    int64 // messages combined into an existing accumulator entry
	denseSegs int64 // dense segments handed off this superstep
}

// Execute is the dispatcher's actor loop: block on a command, run the
// superstep, notify the manager, repeat until SYSTEM_OVER.
func (d *dispatcher) Execute() (err error) {
	defer func() {
		if r := recover(); r != nil {
			ferr := fmt.Errorf("core: dispatcher %d: panic: %v", d.id, r)
			// Unblock the manager, which is waiting for DISPATCH_OVER,
			// then re-panic so the supervisor's restart policy decides
			// whether a fresh incarnation takes over this mailbox.
			d.eng.toManager.Put(workerMsg{kind: kindFailed, from: d.id, err: ferr}) //nolint:errcheck
			panic(r)
		}
	}()
	d.workers = len(d.eng.toComp)
	d.bufs = make([][]Message, d.workers)
	d.dense = make([]*denseSeg, d.workers)
	if d.workers&(d.workers-1) == 0 {
		d.usesMask = true
		d.ownMask = graph.VertexID(d.workers - 1)
		d.ownShift = uint(bits.TrailingZeros(uint(d.workers)))
	}
	d.budgetEntries = d.eng.cfg.AccumBudget / 16 // 16 bytes per (dst, val) entry
	if d.budgetEntries < 1 {
		d.budgetEntries = 1
	}
	// Return every locally owned buffer to the arena on the way out
	// (normal exit or panic — a restarted incarnation draws fresh ones).
	defer d.releasePooled()
	for {
		cmd, ok := d.eng.toDisp[d.id].Get()
		if !ok || cmd.kind == kindSystemOver {
			return nil
		}
		if cmd.kind != kindIterationStart {
			return fmt.Errorf("core: dispatcher %d: unexpected command %v", d.id, cmd.kind)
		}
		d.delivered, d.folded, d.denseSegs = 0, 0, 0
		if d.eng.prefetchOn {
			// Announce the new superstep to the prefetch actor: its
			// WILLNEED window rewinds to the interval top with us.
			d.eng.dispPos[d.id].Store(d.interval.StartWord)
			d.eng.dispStep[d.id].Store(cmd.step)
		}
		sent, err := d.runSuperstep(cmd.step)
		if err != nil {
			if d.aborting(err) {
				// The manager is already tearing this superstep down;
				// park for the next command instead of failing.
				d.dropAccumulators()
				continue
			}
			d.eng.toManager.Put(workerMsg{kind: kindFailed, from: d.id, err: err}) //nolint:errcheck
			return err
		}
		over := workerMsg{kind: kindDispatchOver, from: d.id, count: sent, count2: d.delivered}
		if err := d.eng.toManager.Put(over); err != nil {
			return nil // manager mailbox closed: teardown in progress
		}
	}
}

// aborting reports whether err is teardown fallout rather than a real
// failure: an explicit abort, a mailbox closed under the dispatcher, or
// anything that happened after the engine raised the abort flag.
func (d *dispatcher) aborting(err error) bool {
	return errors.Is(err, errAborted) || errors.Is(err, actor.ErrMailboxClosed) || d.eng.aborted.Load()
}

// dropAccumulators discards partially filled accumulator state after an
// aborted superstep, so no entry from the failed attempt can leak into a
// retried one. Slabs return to the arena (putSlab clears their bitmap);
// partial batches are truncated in place.
func (d *dispatcher) dropAccumulators() {
	for w := range d.dense {
		if s := d.dense[w]; s != nil {
			d.eng.pool.putSlab(s)
			d.dense[w] = nil
		}
		if len(d.bufs[w]) > 0 {
			d.bufs[w] = d.bufs[w][:0]
		}
	}
}

// releasePooled returns every buffer the dispatcher still owns — partial
// slabs and batches — to the arena. Runs once when the actor exits;
// buffers already handed to computers are theirs to release.
func (d *dispatcher) releasePooled() {
	pool := d.eng.pool
	for w := range d.dense {
		if s := d.dense[w]; s != nil {
			pool.putSlab(s)
			d.dense[w] = nil
		}
	}
	for w := range d.bufs {
		if b := d.bufs[w]; b != nil {
			pool.putBuf(b)
			d.bufs[w] = nil
		}
	}
}

// owner resolves the computing worker owning dst: dst mod Computers,
// the paper's "average assignment by mod according to the vertex id"
// (§V-A), which processSegment's stride also assumes.
func (d *dispatcher) owner(dst graph.VertexID) int {
	if d.usesMask {
		return int(dst & d.ownMask)
	}
	return int(dst) % d.workers
}

// denseIndex maps dst to its slot in the owning computer's dense slab.
func (d *dispatcher) denseIndex(dst graph.VertexID) int64 {
	if d.usesMask {
		return int64(dst >> d.ownShift)
	}
	return int64(dst) / int64(d.workers)
}

//gpsa:noalloc
func (d *dispatcher) runSuperstep(step int64) (sent int64, err error) {
	eng := d.eng
	dense := eng.combiner != nil
	col := vertexfile.DispatchCol(step)
	weighted := eng.gf.Weighted()
	cur := eng.gf.Cursor(d.interval)
	prefetch := eng.prefetchOn
	for {
		v, deg, edges, ok := cur.Next()
		if !ok {
			break
		}
		if prefetch {
			// Publish progress for the prefetch actor (one plain store
			// per vertex; the actor paces itself off this watermark).
			eng.dispPos[d.id].Store(cur.Pos())
		}
		if eng.aborted.Load() {
			return sent, errAborted
		}
		slot := eng.vf.Load(col, v)
		if vertexfile.Stale(slot) {
			continue // not updated last superstep: skip vertex and edges
		}
		payload := vertexfile.Payload(slot)
		for i := 0; i < int(deg); i++ {
			dst, w := graph.DecodeEdge(edges, i, weighted)
			msgVal, send := eng.prog.GenMsg(v, payload, deg, dst, w)
			if !send {
				continue
			}
			//lint:noalloc the injection site's PanicValue materializes only when a chaos-run fault fires; production paths allocate nothing
			fault.Panic(fault.SiteDispatcherMsg)
			wk := d.owner(dst)
			if dense {
				err = d.accumDense(wk, dst, msgVal)
			} else {
				err = d.send(wk, dst, msgVal)
			}
			if err != nil {
				return sent, err
			}
			sent++
		}
		// Consume: invalidate so the vertex is skipped until recomputed
		// (paper Algorithm 2, setHighestBitTo1).
		eng.vf.Store(col, v, slot|vertexfile.StaleBit)
	}
	if err := cur.Err(); err != nil {
		return sent, err
	}
	if err := d.flush(); err != nil {
		return sent, err
	}
	if dense {
		metrics.Add(metrics.CtrAccumFolded, d.folded)
		metrics.Add(metrics.CtrAccumDelivered, d.delivered)
		metrics.Add(metrics.CtrAccumDenseSegs, d.denseSegs)
	}
	return sent, nil
}

// accumDense folds a message into the dense slab of computer wk, handing
// the slab off as a segment once it reaches the byte budget.
//
//gpsa:noalloc
func (d *dispatcher) accumDense(wk int, dst graph.VertexID, val uint64) error {
	s := d.dense[wk]
	if s == nil {
		s = d.eng.getSlab()
		d.dense[wk] = s
	}
	idx := d.denseIndex(dst)
	word, bit := idx>>6, uint64(1)<<uint(idx&63)
	if s.bits[word]&bit != 0 {
		s.vals[idx] = d.eng.combiner.CombineMsg(s.vals[idx], val)
		d.folded++
		return nil
	}
	s.bits[word] |= bit
	s.vals[idx] = val
	s.count++
	if s.count >= d.budgetEntries {
		return d.flushDense(wk)
	}
	return nil
}

//gpsa:noalloc
func (d *dispatcher) flushDense(wk int) error {
	s := d.dense[wk]
	if s == nil || s.count == 0 {
		return nil
	}
	d.dense[wk] = nil
	d.delivered += int64(s.count)
	d.denseSegs++
	return d.eng.toComp[wk].Put(workerMsg{kind: kindSegment, seg: s})
}

// send buffers a message for the computing worker owning dst on the
// per-message path, flushing the batch when full.
//
//gpsa:noalloc
func (d *dispatcher) send(wk int, dst graph.VertexID, val uint64) error {
	if d.bufs[wk] == nil {
		d.bufs[wk] = d.eng.getBatch()
	}
	//lint:noalloc cap is fixed at BatchSize by getBatch and the batch flushes before exceeding it; append never grows
	d.bufs[wk] = append(d.bufs[wk], Message{Dst: dst, Val: val})
	if len(d.bufs[wk]) >= d.eng.cfg.BatchSize {
		return d.dispatchBatch(wk)
	}
	return nil
}

//gpsa:noalloc
func (d *dispatcher) dispatchBatch(w int) error {
	b := d.bufs[w]
	d.bufs[w] = nil
	d.delivered += int64(len(b))
	return d.eng.toComp[w].Put(workerMsg{kind: kindData, batch: b})
}

// flush hands over every partial slab or batch at the end of the
// interval, in worker order (deterministic). A dispatcher only ever
// fills one of the two kinds, so the other is a no-op.
func (d *dispatcher) flush() error {
	for w := 0; w < d.workers; w++ {
		err := d.flushDense(w)
		if err == nil && len(d.bufs[w]) > 0 {
			err = d.dispatchBatch(w)
		}
		if err != nil {
			return err
		}
	}
	return nil
}
