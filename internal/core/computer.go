package core

import (
	"fmt"

	"repro/internal/fault"
	"repro/internal/vertexfile"
)

// computer is the paper's computing worker (Algorithm 3). It owns the
// vertices v with v mod Computers == id and folds incoming messages into
// their values, message-driven, concurrently with dispatching. Messages
// arrive either as per-message batches (kindData) or as dense accumulator
// segments (kindSegment) carrying one pre-combined message per vertex.
type computer struct {
	id  int
	eng *Engine

	updates int64
	// pending buffers whole batches and segments when SequentialPhases
	// disables the overlap (ablation mode): they are only processed at
	// the barrier.
	pending []workerMsg
}

// Execute is the computing worker's actor loop.
func (c *computer) Execute() (err error) {
	defer func() {
		if r := recover(); r != nil {
			ferr := fmt.Errorf("core: computer %d: panic: %v", c.id, r)
			// Unblock the manager, then re-panic so the supervisor's
			// restart policy decides whether a fresh incarnation takes
			// over this mailbox.
			c.eng.toManager.Put(workerMsg{kind: kindFailed, from: c.id, err: ferr}) //nolint:errcheck
			panic(r)
		}
	}()
	c.updates = 0
	c.pending = c.pending[:0]
	for {
		m, ok := c.eng.toComp[c.id].Get()
		if !ok {
			return nil
		}
		switch m.kind {
		case kindData, kindSegment:
			if c.eng.cfg.SequentialPhases {
				c.pending = append(c.pending, m)
			} else {
				c.process(m)
			}
		case kindComputeOver:
			// FIFO mailbox ordering guarantees every batch sent before
			// the barrier has been received above.
			for _, p := range c.pending {
				c.process(p)
			}
			c.pending = c.pending[:0]
			ack := workerMsg{kind: kindComputeOver, from: c.id, count: c.updates}
			c.updates = 0
			if err := c.eng.toManager.Put(ack); err != nil {
				return nil // manager mailbox closed: teardown in progress
			}
		case kindSystemOver:
			return nil
		default:
			return fmt.Errorf("core: computer %d: unexpected message kind %v", c.id, m.kind)
		}
	}
}

func (c *computer) process(m workerMsg) {
	if m.kind == kindSegment {
		c.processSegment(m.seg)
	} else {
		c.processBatch(m.batch)
	}
}

// processSegment folds a dense accumulator segment into the update
// column via the value file's bulk-apply: one pre-combined message per
// present vertex, visited in vertex order. The fault hooks and the
// teardown poll mirror processBatch so injection coverage and graceful
// SIGINT latency are identical on both paths.
//
//gpsa:noalloc
func (c *computer) processSegment(seg *denseSeg) {
	eng := c.eng
	step := eng.vf.Epoch()
	stride := int64(len(eng.toComp))
	n := 0
	c.updates += eng.vf.BulkApply(step, int64(c.id), stride, seg.bits, seg.vals,
		//lint:noalloc one closure per segment, not per message, and the compiler stack-allocates it (gpsa-lint -escape proves no heap escape here)
		func(v int64, cur, msg uint64, first bool) (uint64, bool, bool) {
			if n&0xFF == 0 && eng.aborted.Load() {
				return 0, false, true
			}
			n++
			//lint:noalloc the injection site's PanicValue materializes only when a chaos-run fault fires; production paths allocate nothing
			fault.Panic(fault.SiteComputerMsg)
			fault.Stall(fault.SiteComputerStall)
			newVal, changed := eng.prog.Compute(v, cur, msg, first)
			return newVal, changed, false
		})
	eng.putSlab(seg)
}

// processBatch applies Compute for each message (paper Algorithm 3).
//
//gpsa:noalloc
func (c *computer) processBatch(batch []Message) {
	eng := c.eng
	// Data batches always belong to the superstep currently running: the
	// manager does not start superstep s+1 until this worker acked the
	// barrier of s. c.step tracks it via the barrier message, but during
	// the overlap phase the authoritative value is the file's epoch.
	step := eng.vf.Epoch()
	dcol, ucol := vertexfile.DispatchCol(step), vertexfile.UpdateCol(step)
	for i, m := range batch {
		// Bail out mid-batch when the run is being torn down (checked
		// every 256 messages to keep the hot loop cheap): the superstep is
		// rolled back anyway, and a prompt unwind is what bounds the
		// latency of a graceful SIGINT stop under slow user programs.
		if i&0xFF == 0 && eng.aborted.Load() {
			break
		}
		//lint:noalloc the injection site's PanicValue materializes only when a chaos-run fault fires; production paths allocate nothing
		fault.Panic(fault.SiteComputerMsg)
		fault.Stall(fault.SiteComputerStall)
		v := int64(m.Dst)
		slot := eng.vf.Load(ucol, v)
		first := vertexfile.Stale(slot)
		var cur uint64
		if first {
			// First message of this superstep: the previous value lives
			// in the dispatch column (paper §IV-F).
			cur = vertexfile.Payload(eng.vf.Load(dcol, v))
		} else {
			cur = vertexfile.Payload(slot)
		}
		newVal, changed := eng.prog.Compute(v, cur, m.Val, first)
		if changed {
			eng.vf.Store(ucol, v, vertexfile.Pack(newVal, false))
			c.updates++
		}
	}
	eng.putBatch(batch)
}
