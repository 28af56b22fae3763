package cluster

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"net"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/actor"
	"repro/internal/core"
	"repro/internal/diskio"
	"repro/internal/fault"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/mmap"
	"repro/internal/vertexfile"
)

// NodeConfig tunes one node.
type NodeConfig struct {
	// DisableSync skips durable superstep syncs of the node's value file.
	DisableSync bool
	// HeartbeatInterval is how often the node pings the coordinator's
	// control connection so silence means death, not idleness
	// (default 500ms; negative disables).
	HeartbeatInterval time.Duration
	// BarrierTimeout bounds how long the node waits at the compute
	// barrier for peer end-of-stream markers; on expiry the superstep
	// fails with a labelled error instead of hanging on a lost peer
	// (default 15s; negative disables).
	BarrierTimeout time.Duration
	// PeerRedials is how many times a failed data-plane write redials
	// the peer before giving up (default 3; negative disables reconnect).
	PeerRedials int
	// RedialBackoff is the sleep before the first redial, doubling per
	// attempt (default 50ms).
	RedialBackoff time.Duration
	// RedialBackoffMax caps the doubling redial sleep (default 2s), so a
	// long redial storm polls steadily instead of sleeping for minutes.
	RedialBackoffMax time.Duration
	// MinFreeBytes gates migration adoption on free space in the value
	// file's directory: a recipient that cannot durably hold the interval
	// refuses MIGRATE with a typed ENOSPC error instead of adopting state
	// it would lose. 0 disables the preflight.
	MinFreeBytes int64
}

func (c NodeConfig) withDefaults() NodeConfig {
	if c.HeartbeatInterval == 0 {
		c.HeartbeatInterval = 500 * time.Millisecond
	}
	if c.BarrierTimeout == 0 {
		c.BarrierTimeout = 15 * time.Second
	}
	if c.PeerRedials == 0 {
		c.PeerRedials = 3
	}
	if c.RedialBackoff <= 0 {
		c.RedialBackoff = 50 * time.Millisecond
	}
	if c.RedialBackoffMax <= 0 {
		c.RedialBackoffMax = 2 * time.Second
	}
	return c
}

// stepFailure wraps an error that aborts the current superstep attempt
// but leaves the node healthy: transport trouble, barrier timeouts, peer
// corruption. The node reports it to the coordinator (STEP_FAILED) and
// stays in its control loop for the rollback that follows, instead of
// dying and forcing a full rejoin.
type stepFailure struct{ err error }

func (e stepFailure) Error() string { return e.err.Error() }
func (e stepFailure) Unwrap() error { return e.err }

func stepFailf(format string, args ...any) error {
	return stepFailure{err: fmt.Errorf(format, args...)}
}

// errNodeKilled marks an injected abrupt node death (the chaos harness's
// in-process SIGKILL): the control loop exits without commit or graceful
// protocol, and the coordinator must recover.
var errNodeKilled = errors.New("cluster: node killed by injected chaos")

// maxRunMsgs caps the messages of one BATCH frame, and is the length at
// which a non-combining program's append list flushes mid-interval.
const maxRunMsgs = 1 << 14

// destAcc folds the messages one source interval sends into one
// destination interval. With a Combiner it is dense: vals[v-first]
// holds the left fold, in generation order, of every message for vertex
// v, and bits marks the present slots. Without one, list keeps the
// messages in generation order. Either way its content depends only on
// the interval partition, never on which node hosts what.
type destAcc struct {
	count int // pending messages
	vals  []uint64
	bits  []uint64
	list  []core.Message
}

// drain appends the pending messages to out — in ascending vertex order
// for a dense accumulator — and leaves the accumulator empty.
//
//gpsa:noalloc
func (a *destAcc) drain(out []core.Message, first int64) []core.Message {
	a.count = 0
	if a.vals == nil {
		//lint:noalloc out is a staging or scratch buffer reused across supersteps; it grows only until it holds the largest run
		out = append(out, a.list...)
		a.list = a.list[:0]
		return out
	}
	for w, word := range a.bits {
		for word != 0 {
			i := w<<6 + bits.TrailingZeros64(word)
			word &= word - 1
			//lint:noalloc out is a staging or scratch buffer reused across supersteps; it grows only until it holds the largest run
			out = append(out, core.Message{Dst: graph.VertexID(first + int64(i)), Val: a.vals[i]})
		}
		a.bits[w] = 0
	}
	return out
}

// reset discards the pending messages of an aborted attempt.
func (a *destAcc) reset() {
	a.count = 0
	clear(a.bits)
	a.list = a.list[:0]
}

// eosMark records one peer's end-of-stream for one superstep attempt.
type eosMark struct {
	sender int
	round  uint64
}

// streamFrame is one in-order unit of a peer's data stream: a message
// batch (tagged with its source interval) or the end-of-stream marker.
type streamFrame struct {
	eos   bool
	src   int
	batch []core.Message
}

// senderStream reassembles one peer's data frames into exactly-once,
// in-order delivery. The transport underneath is at-least-once and
// unordered across connections: a frame whose flush errored may still
// have been delivered before the sender redials and resends it, and an
// old connection's receiver can race a fresh one. Sequence numbers fix
// both — duplicates are dropped (seq below the release cursor or already
// pending) and frames are released only in seq order — which is what
// keeps the per-sender fold order deterministic and the retried
// superstep bit-identical.
type senderStream struct {
	mu      sync.Mutex
	round   uint64
	next    uint64 // next seq to release; seqs are 1-based per round
	pending map[uint64]streamFrame
}

// node is one cluster member. It owns a SET of vertex intervals — the
// fixed partition is finer than the node set, and the owners table maps
// each interval to its current host — dispatches their share of the edge
// file, and computes updates for their vertices. The owners table is the
// routing state elastic membership swaps atomically at barriers; the
// interval partition itself never changes for the life of a job, which
// is what keeps run formation and fold order bit-identical across
// migrations.
type node struct {
	id       int
	total    int // size of the node ID SPACE (initial nodes + plannable joins), not the live member count
	prog     core.Program
	combiner core.Combiner
	cfg      NodeConfig
	ctx      context.Context

	gf        *graph.File
	vf        *vertexfile.File
	valuesDir string           // directory of the value file, for free-space preflight
	ivs       []graph.Interval // the fixed partition, immutable for the job
	ivBounds  []int64          // ivBounds[i] = first vertex of interval i; len(ivs)+1
	owners    []int            // owners[i] = node currently hosting interval i
	member    []bool           // member[id] = node id owns at least one interval
	nMembers  int
	coord     *conn
	peers     []*conn  // outgoing data connections, indexed by node id (nil for self)
	peerAddrs []string // data addresses from the address book, for redials
	peerSeq   []uint64 // per-peer data-plane sequence counter, reset each round
	listener  net.Listener
	system    *actor.System
	eosCh     chan eosMark
	failCh    chan error // peer disconnects and corrupt peer streams
	hbStop    chan struct{}

	// round gates the data plane: frames tagged with an older superstep
	// attempt are dropped at arrival, so an aborted attempt's stragglers
	// can never leak into the retry.
	round atomic.Uint64
	// begunStep is the superstep this node last ran Begin for (-1 none):
	// a rollback may only restore from the bitmap when Begin actually
	// snapshotted it for the step being rolled back.
	begunStep int64
	// streams reassembles each peer's data frames, indexed by node id.
	streams []*senderStream

	// accs holds one accumulator per destination interval for the source
	// interval being dispatched; runBuf is the drain scratch for runs
	// bound for another node. Both are reused across supersteps.
	accs   []destAcc
	runBuf []core.Message
	// staged[src] collects the runs source interval src generated for
	// the intervals this node hosts, applied at the barrier in ascending
	// src order. A source interval has one host per round, so each slot
	// has one writer: that host's sender stream under its lock, or the
	// control goroutine when the source is co-hosted.
	staged [][]core.Message
}

// bootMode selects how a node enters the cluster.
type bootMode int

const (
	// bootFresh creates a new value file and announces with HELLO (the
	// ordinary job start).
	bootFresh bootMode = iota
	// bootRejoin reopens and recovers a dead incarnation's sealed value
	// file — PR 2's durability contract is exactly what makes the
	// intervals replayable — and announces with REJOIN and the recovered
	// epoch.
	bootRejoin
	// bootJoin is a brand-new node entering a RUNNING job: its value file
	// is created fresh and fast-forwarded to the join epoch (every vertex
	// inert), ready for AdoptInterval to paint in the ranges it will own;
	// it announces with JOIN.
	bootJoin
)

// nodeSpec gathers what startNode needs to boot one node.
type nodeSpec struct {
	id         int
	total      int // node ID space: initial nodes + plannable joins
	coordAddr  string
	graphPath  string
	valuesPath string
	prog       core.Program
	ivs        []graph.Interval
	owners     []int
	cfg        NodeConfig
	mode       bootMode
	joinEpoch  int64 // bootJoin: the epoch the running job sits at
}

// startNode boots a node: local state, data listener, coordinator
// handshake. It returns after the node has sent its hello; runNode
// drives the rest.
func startNode(ctx context.Context, spec nodeSpec) (*node, error) {
	id, total := spec.id, spec.total
	cfg := spec.cfg.withDefaults()
	gf, err := graph.OpenFile(spec.graphPath, mmap.ModeAuto)
	if err != nil {
		return nil, err
	}
	var vf *vertexfile.File
	switch spec.mode {
	case bootRejoin:
		vf, err = vertexfile.Open(spec.valuesPath)
		if err == nil {
			_, err = vf.Recover()
		}
	case bootJoin:
		vf, err = vertexfile.Create(spec.valuesPath, gf.NumVertices, spec.prog.Init)
		if err == nil {
			err = vf.FastForward(spec.joinEpoch, !cfg.DisableSync)
		}
	default:
		vf, err = vertexfile.Create(spec.valuesPath, gf.NumVertices, spec.prog.Init)
	}
	if err != nil {
		closeQuietly(gf)
		return nil, err
	}
	n := &node{
		id:        id,
		total:     total,
		prog:      spec.prog,
		cfg:       cfg,
		ctx:       ctx,
		gf:        gf,
		vf:        vf,
		valuesDir: filepath.Dir(spec.valuesPath),
		ivs:       spec.ivs,
		ivBounds:  make([]int64, len(spec.ivs)+1),
		peers:     make([]*conn, total),
		peerSeq:   make([]uint64, total),
		streams:   make([]*senderStream, total),
		system:    actor.NewSystem(fmt.Sprintf("node-%d", id), actor.RestartPolicy{}),
		eosCh:     make(chan eosMark, 4*total+4),
		failCh:    make(chan error, total+1),
		staged:    make([][]core.Message, len(spec.ivs)),
		begunStep: -1,
	}
	if c, ok := spec.prog.(core.Combiner); ok {
		n.combiner = c
	}
	for i := range n.streams {
		n.streams[i] = &senderStream{next: 1, pending: make(map[uint64]streamFrame)}
	}
	for i, iv := range spec.ivs {
		n.ivBounds[i] = iv.FirstVertex
	}
	n.ivBounds[len(spec.ivs)] = gf.NumVertices
	if err := n.installRouting(spec.owners); err != nil {
		n.close()
		return nil, err
	}

	// Data listener for incoming peer connections.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		n.close()
		return nil, err
	}
	n.listener = ln
	// The accept loop is a supervised actor: close() closes the listener
	// before system.Wait, so the loop terminates and Wait covers it.
	n.system.SpawnFunc(fmt.Sprintf("node-%d-accept", id), func() error {
		n.acceptLoop()
		return nil
	})

	// Control connection.
	cc, err := net.Dial("tcp", spec.coordAddr)
	if err != nil {
		n.close()
		return nil, err
	}
	n.coord = newConn(cc)
	hello := helloPayload(uint32(id), ln.Addr().String())
	kind := byte(fHello)
	switch spec.mode {
	case bootRejoin:
		hello = rejoinPayload(uint32(id), uint64(vf.Epoch()), ln.Addr().String())
		kind = fRejoin
	case bootJoin:
		hello = rejoinPayload(uint32(id), uint64(vf.Epoch()), ln.Addr().String())
		kind = fJoin
	}
	if err := n.coord.writeFrame(kind, hello); err != nil {
		n.close()
		return nil, err
	}
	return n, nil
}

// installRouting atomically swaps in a new interval -> node table. It is
// only called between supersteps (boot, or an fRouting frame at a
// membership barrier), so no dispatch or fold is in flight.
func (n *node) installRouting(owners []int) error {
	if len(owners) != len(n.ivs) {
		return fmt.Errorf("cluster: node %d: routing table of %d intervals, want %d", n.id, len(owners), len(n.ivs))
	}
	member := make([]bool, n.total)
	for iv, o := range owners {
		if o < 0 || o >= n.total {
			return fmt.Errorf("cluster: node %d: interval %d routed to bogus node %d", n.id, iv, o)
		}
		member[o] = true
	}
	count := 0
	for _, m := range member {
		if m {
			count++
		}
	}
	n.owners = append([]int(nil), owners...)
	n.member = member
	n.nMembers = count
	return nil
}

// ivOf returns the interval containing vertex v: a binary search for the
// last interval whose first vertex is <= v.
func (n *node) ivOf(v int64) int {
	lo, hi := 0, len(n.ivs)-1
	for lo < hi {
		mid := int(uint(lo+hi+1) >> 1)
		if n.ivBounds[mid] <= v {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return lo
}

func (n *node) close() {
	if n.hbStop != nil {
		close(n.hbStop)
		n.hbStop = nil
	}
	if n.listener != nil {
		closeQuietly(n.listener)
	}
	if n.coord != nil {
		closeQuietly(n.coord)
	}
	for _, p := range n.peers {
		if p != nil {
			closeQuietly(p)
		}
	}
	n.system.Wait() //nolint:errcheck
	if n.vf != nil {
		closeQuietly(n.vf)
	}
	if n.gf != nil {
		closeQuietly(n.gf)
	}
}

// acceptLoop receives peer data connections and spawns a receiver per
// connection.
func (n *node) acceptLoop() {
	for {
		c, err := n.listener.Accept()
		if err != nil {
			return // listener closed on shutdown
		}
		// Per-connection receivers stay deliberately outside the actor
		// system: a slow or wedged peer must not block system.Wait during
		// teardown. Each receiver exits when its connection closes.
		go n.receive(newConn(c)) //lint:actorshare receiver lifetime is bounded by its connection, not the system; tracking it would let a wedged peer block Wait
	}
}

// receive stages one peer's data frames for the barrier. A clean read
// error ends the receiver silently: with sender-side reconnect a dropped
// connection is routine — the peer redials, a fresh receiver takes over,
// and the stream's sequence numbers absorb the overlap. A corrupt frame
// (checksum or version mismatch) is different: the stream can no longer
// be trusted, so it is reported as a step failure — routing corruption
// into the rollback path — before the receiver exits.
func (n *node) receive(c *conn) {
	defer closeQuietly(c)
	sender := -1
	for {
		kind, payload, err := c.readFrame()
		if err != nil {
			if frameCorrupt(err) {
				n.reportFailure(stepFailf("cluster: node %d: corrupt frame from peer %d: %w", n.id, sender, err))
			}
			return
		}
		switch kind {
		case fPeerHello:
			if len(payload) < 4 {
				n.reportFailure(stepFailf("cluster: node %d: short peer hello", n.id))
				return
			}
			s := int(binary.LittleEndian.Uint32(payload))
			if s < 0 || s >= n.total || s == n.id {
				n.reportFailure(stepFailf("cluster: node %d: peer hello from bogus node %d", n.id, s))
				return
			}
			sender = s
		case fBatch:
			round, seq, src, batch, perr := parseBatch(payload)
			if perr != nil {
				n.reportFailure(perr)
				return
			}
			if sender < 0 {
				n.reportFailure(stepFailf("cluster: node %d: data batch before peer hello", n.id))
				return
			}
			if int(src) >= len(n.ivs) {
				n.reportFailure(stepFailf("cluster: node %d: batch from bogus interval %d", n.id, src))
				return
			}
			n.deliverData(sender, round, seq, streamFrame{src: int(src), batch: batch})
		case fEOS:
			vals, perr := readU64s(payload, 2)
			if perr != nil {
				n.reportFailure(perr)
				return
			}
			if sender < 0 {
				n.reportFailure(stepFailf("cluster: node %d: end-of-stream before peer hello", n.id))
				return
			}
			n.deliverData(sender, vals[0], vals[1], streamFrame{eos: true})
		default:
			n.reportFailure(fmt.Errorf("cluster: node %d: unexpected peer frame %d", n.id, kind))
			return
		}
	}
}

// deliverData feeds one data frame into the sender's reassembly stream,
// releasing any frames that are now in order: a batch is staged under
// its source interval, an end-of-stream marker goes to the barrier.
// Frames from a round older than the gate (an aborted attempt's
// stragglers) are dropped.
func (n *node) deliverData(sender int, round, seq uint64, fr streamFrame) {
	if round < n.round.Load() {
		return
	}
	s := n.streams[sender]
	s.mu.Lock()
	defer s.mu.Unlock()
	if round < s.round {
		return
	}
	if round > s.round {
		s.round = round
		s.next = 1
		clear(s.pending)
	}
	if seq < s.next {
		return // duplicate of an already-released frame (resent after redial)
	}
	if _, dup := s.pending[seq]; dup {
		return
	}
	s.pending[seq] = fr
	for {
		f, ok := s.pending[s.next]
		if !ok {
			return
		}
		delete(s.pending, s.next)
		s.next++
		if f.eos {
			n.eosCh <- eosMark{sender: sender, round: s.round} //lint:actorshare eosCh is buffered past one mark per peer per in-flight round, and rollback drains it
		} else {
			n.staged[f.src] = append(n.staged[f.src], f.batch...)
		}
	}
}

// reportFailure never blocks: failCh is buffered generously, and during a
// clean shutdown (nobody listening) extra reports are simply dropped.
func (n *node) reportFailure(err error) {
	select {
	case n.failCh <- err:
	default:
	}
}

// runNode executes the node's control loop until HALT. Failures are
// classified: a stepFailure is reported to the coordinator and the node
// stays alive for the rollback-and-retry protocol; anything else is fatal
// and the node dies, leaving recovery to a replacement incarnation.
func (n *node) runNode() error {
	defer n.close()
	for {
		kind, payload, err := n.coord.readFrame()
		if err != nil {
			return fmt.Errorf("cluster: node %d control: %w", n.id, err)
		}
		switch kind {
		case fAddrBook:
			addrs, err := parseAddrBook(payload)
			if err != nil {
				return err
			}
			// Heartbeats start before peer dialing so a slow or stalled
			// data-plane dial cannot delay the first liveness ping past
			// the coordinator's node timeout. Spawned once: a rebroadcast
			// address book (after a rejoin) must not stack heartbeaters.
			// Supervised: close() closes hbStop before system.Wait, so
			// the loop terminates and Wait covers it.
			if n.cfg.HeartbeatInterval > 0 && n.hbStop == nil {
				n.hbStop = make(chan struct{})
				stop := n.hbStop
				n.system.SpawnFunc(fmt.Sprintf("node-%d-heartbeat", n.id), func() error {
					n.heartbeatLoop(stop)
					return nil
				})
			}
			if err := n.updatePeers(addrs); err != nil {
				return err
			}
		case fStart:
			vals, err := readU64s(payload, 2)
			if err != nil {
				return err
			}
			step, round := int64(vals[0]), vals[1]
			n.round.Store(round)
			if err := n.stepOutcome(step, n.dispatchPhase(step, round)); err != nil {
				return err
			}
		case fComputeBarrier:
			vals, err := readU64s(payload, 1)
			if err != nil {
				return err
			}
			if err := n.stepOutcome(int64(vals[0]), n.barrierPhase(int64(vals[0]))); err != nil {
				return err
			}
		case fRollback:
			vals, err := readU64s(payload, 2)
			if err != nil {
				return err
			}
			if err := n.rollbackStep(int64(vals[0]), vals[1]); err != nil {
				return err
			}
			if err := n.coord.writeFrame(fRollbackOver, u64Payload(vals[0])); err != nil {
				return fmt.Errorf("cluster: node %d rollback ack: %w", n.id, err)
			}
		case fValuesReq:
			iv, err := parseIv(payload)
			if err != nil {
				return err
			}
			if err := n.sendValues(int(iv)); err != nil {
				return err
			}
		case fMigrateOut:
			iv, epoch, err := parseMigrateReq(payload)
			if err != nil {
				return err
			}
			if ferr := fault.Error(fault.SiteNodeKillMigrate); ferr != nil {
				return fmt.Errorf("cluster: node %d mid-migration (donor): %w", n.id, errNodeKilled)
			}
			blob, err := n.extractInterval(int(iv), int64(epoch))
			if err != nil {
				return err
			}
			if err := n.coord.writeFrame(fMigrateData, migrateBlobPayload(iv, blob)); err != nil {
				return fmt.Errorf("cluster: node %d migrate data: %w", n.id, err)
			}
		case fMigrateIn:
			iv, blob, err := parseMigrateBlob(payload)
			if err != nil {
				return err
			}
			if ferr := fault.Error(fault.SiteNodeKillMigrate); ferr != nil {
				return fmt.Errorf("cluster: node %d mid-migration (recipient): %w", n.id, errNodeKilled)
			}
			// Adoption preflight: refuse state this node cannot durably
			// hold. The typed ENOSPC refusal fails the migration loudly at
			// the coordinator instead of losing the interval on the sync.
			if n.cfg.MinFreeBytes > 0 {
				if free, ferr := diskio.FreeSpace(n.valuesDir); ferr == nil && free < uint64(n.cfg.MinFreeBytes) {
					return fmt.Errorf("cluster: node %d adopting interval %d: %d bytes free, need %d: %w",
						n.id, iv, free, n.cfg.MinFreeBytes, diskio.ErrDiskFull)
				}
			}
			if err := n.vf.AdoptInterval(blob, !n.cfg.DisableSync); err != nil {
				return fmt.Errorf("cluster: node %d adopting interval %d: %w", n.id, iv, err)
			}
			if err := n.coord.writeFrame(fMigrateDone, ivPayload(iv)); err != nil {
				return fmt.Errorf("cluster: node %d migrate done: %w", n.id, err)
			}
		case fRouting:
			owners, err := parseRouting(payload)
			if err != nil {
				return err
			}
			if err := n.installRouting(owners); err != nil {
				return err
			}
			if err := n.coord.writeFrame(fRoutingOver, nil); err != nil {
				return fmt.Errorf("cluster: node %d routing ack: %w", n.id, err)
			}
		case fDrain:
			// All intervals have been migrated off; acknowledge and exit
			// cleanly — the value file seals at its last committed epoch.
			if err := n.coord.writeFrame(fDrainOver, nil); err != nil {
				return fmt.Errorf("cluster: node %d drain ack: %w", n.id, err)
			}
			return nil
		case fHalt:
			return nil
		default:
			return fmt.Errorf("cluster: node %d: unexpected control frame %d", n.id, kind)
		}
	}
}

// extractInterval serializes interval iv of this node's value file for a
// migration, validating that this node actually hosts it, that donor and
// coordinator agree on the barrier epoch, and that the blob fits a frame.
func (n *node) extractInterval(iv int, epoch int64) ([]byte, error) {
	if iv < 0 || iv >= len(n.ivs) || n.owners[iv] != n.id {
		return nil, fmt.Errorf("cluster: node %d asked to extract interval %d it does not host", n.id, iv)
	}
	if epoch != n.vf.Epoch() {
		return nil, fmt.Errorf("cluster: node %d: migration of interval %d pinned to epoch %d, file is at %d", n.id, iv, epoch, n.vf.Epoch())
	}
	blob, err := n.vf.ExtractInterval(n.ivs[iv].FirstVertex, n.ivs[iv].EndVertex)
	if err != nil {
		return nil, err
	}
	if len(blob)+4+frameOverhead > maxFrame {
		return nil, fmt.Errorf("cluster: node %d: interval %d blob of %d bytes exceeds the frame limit", n.id, iv, len(blob))
	}
	return blob, nil
}

// stepOutcome routes a phase result: nil passes through, a stepFailure is
// reported to the coordinator (the node stays in its control loop and
// waits for the rollback), and everything else — including an injected
// kill — is fatal.
func (n *node) stepOutcome(step int64, err error) error {
	if err == nil {
		return nil
	}
	var sf stepFailure
	if !errors.As(err, &sf) || errors.Is(err, errNodeKilled) {
		return err
	}
	if werr := n.coord.writeFrame(fStepFailed, stepFailedPayload(uint64(step), err.Error())); werr != nil {
		return fmt.Errorf("cluster: node %d reporting step failure (%v): %w", n.id, err, werr)
	}
	return nil
}

// rollbackStep discards every trace of the aborted superstep attempt:
// the round gate advances (in-flight stragglers drop on arrival), the
// peer streams reset, the partial accumulators and staged runs are
// dropped, the barrier bookkeeping drains, and the value file rolls back
// to the start of step — via Rollback if this node was mid-step, via
// Rewind if it had already committed before the failure was detected
// elsewhere, or not at all if it never began the step (the file is
// already at its start).
func (n *node) rollbackStep(step int64, newRound uint64) error {
	n.round.Store(newRound)
	for _, s := range n.streams {
		s.mu.Lock()
		if s.round < newRound {
			s.round = newRound
			s.next = 1
			clear(s.pending)
		}
		s.mu.Unlock()
	}
	// Receivers stage only under their stream's lock, after the round
	// check; each stream has just been held and reset past the old
	// round, so nothing of the aborted attempt can be staged after this
	// point and the fold state can be dropped without a race.
	for d := range n.accs {
		n.accs[d].reset()
	}
	for src := range n.staged {
		n.staged[src] = n.staged[src][:0]
	}
	for drained := false; !drained; {
		select {
		case <-n.eosCh:
		case <-n.failCh:
		default:
			drained = true
		}
	}
	// Reset the data-plane sequence counters for the retry.
	for i := range n.peerSeq {
		n.peerSeq[i] = 0
	}
	switch {
	case n.vf.Epoch() == step+1:
		if err := n.vf.Rewind(step); err != nil {
			return err
		}
	case n.vf.Epoch() == step && n.begunStep == step:
		if err := n.vf.Rollback(step, !n.cfg.DisableSync); err != nil {
			return err
		}
	}
	n.begunStep = -1
	return nil
}

// updatePeers installs a (re)broadcast address book: connections to peers
// whose address changed (a rejoined replacement) are dropped so the next
// send dials the fresh address, and missing connections are established
// eagerly, best-effort — a failed dial here is retried with backoff by
// sendPeer when the dispatch phase actually needs the peer. An empty
// entry is a node that has not joined yet, was drained, or was retired
// after redistribution: no connection is kept or dialed for it.
func (n *node) updatePeers(addrs []string) error {
	if len(addrs) != n.total {
		return fmt.Errorf("cluster: node %d: address book of %d entries, want %d", n.id, len(addrs), n.total)
	}
	for i := range addrs {
		if i == n.id {
			continue
		}
		if n.peerAddrs != nil && n.peerAddrs[i] != addrs[i] && n.peers[i] != nil {
			closeQuietly(n.peers[i])
			n.peers[i] = nil
		}
	}
	n.peerAddrs = addrs
	for i := range addrs {
		if i == n.id || n.peers[i] != nil || addrs[i] == "" {
			continue
		}
		if c, err := n.dialPeer(i); err == nil {
			n.peers[i] = c
		}
	}
	return nil
}

// heartbeatLoop pings the coordinator's control connection until stopped
// or the connection dies, so the coordinator's node timeout measures
// liveness rather than per-phase progress.
func (n *node) heartbeatLoop(stop <-chan struct{}) {
	t := time.NewTicker(n.cfg.HeartbeatInterval)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			if n.coord.writeFrame(fHeartbeat, nil) != nil {
				return
			}
		}
	}
}

// dialPeer establishes a fresh data-plane connection to peer p and
// identifies this node on it, so the receiver can attribute the stream.
func (n *node) dialPeer(p int) (*conn, error) {
	nc, err := net.Dial("tcp", n.peerAddrs[p])
	if err != nil {
		return nil, fmt.Errorf("cluster: node %d dialing node %d: %w", n.id, p, err)
	}
	c := newConn(nc)
	c.data = true
	var id [4]byte
	binary.LittleEndian.PutUint32(id[:], uint32(n.id))
	if err := c.writeFrame(fPeerHello, id[:]); err != nil {
		closeQuietly(c)
		return nil, err
	}
	return c, nil
}

// sendPeer writes one frame to peer p's data connection, redialing with
// capped exponential backoff when the transport fails. The data plane
// flushes whole frames and the receiver deduplicates by sequence number,
// so resending the frame on a fresh connection is safe even when the
// "failed" write was in fact delivered.
func (n *node) sendPeer(p int, kind byte, payload []byte) error {
	var err error
	if n.peers[p] != nil {
		if err = n.peers[p].writeFrame(kind, payload); err == nil {
			return nil
		}
		// The connection is broken: forget it, so that a later send —
		// the retried superstep's, when reconnect is disabled — dials
		// afresh instead of writing into a closed socket.
		closeQuietly(n.peers[p])
		n.peers[p] = nil
		if n.cfg.PeerRedials < 0 {
			return stepFailf("cluster: node %d: peer %d write failed (reconnect disabled): %w", n.id, p, err)
		}
	}
	attempts := n.cfg.PeerRedials
	if attempts < 1 {
		attempts = 1 // first-time dials get one attempt even with reconnect disabled
	}
	backoff := n.cfg.RedialBackoff
	for attempt := 0; attempt < attempts; attempt++ {
		if err != nil {
			// Only back off after a failure; a first-time dial is instant.
			// The sleep is capped and context-aware: a SIGTERM mid-storm
			// must interrupt the wait, not sit out an exponential backlog.
			metrics.Inc(metrics.CtrClusterRedials)
			t := time.NewTimer(backoff)
			select {
			case <-t.C:
			case <-n.ctx.Done():
				t.Stop()
				return fmt.Errorf("cluster: node %d: redial to peer %d cancelled: %w", n.id, p, n.ctx.Err())
			}
			backoff *= 2
			if backoff > n.cfg.RedialBackoffMax {
				backoff = n.cfg.RedialBackoffMax
			}
		}
		c, derr := n.dialPeer(p)
		if derr != nil {
			err = derr
			continue
		}
		if derr := c.writeFrame(kind, payload); derr != nil {
			closeQuietly(c)
			err = derr
			continue
		}
		n.peers[p] = c
		return nil
	}
	return stepFailf("cluster: node %d: peer %d unreachable after %d redials: %w", n.id, p, attempts, err)
}

// sendData sends the next in-sequence data frame of the current round to
// peer p. The sequence number advances even when the send fails: the
// frame may have reached the peer anyway, and burning the seq keeps a
// half-delivered attempt from colliding with a later resend.
func (n *node) sendData(p int, kind byte, payload []byte) error {
	n.peerSeq[p]++
	return n.sendPeer(p, kind, payload)
}

// dispatchPhase streams every interval this node hosts, in ascending
// interval order, then signals end-of-stream to every member peer and
// DISPATCH_OVER. Each source interval folds into the per-destination-
// interval accumulators and drains them before the next one starts
// (dispatchInterval), so every run depends only on the fixed partition —
// routing decides where a run goes, never what it holds.
func (n *node) dispatchPhase(step int64, round uint64) error {
	if err := n.vf.Begin(step, !n.cfg.DisableSync); err != nil {
		return err
	}
	n.begunStep = step
	for i := range n.peerSeq {
		n.peerSeq[i] = 0
	}
	if n.accs == nil {
		n.accs = make([]destAcc, len(n.ivs))
		if n.combiner != nil {
			for d, iv := range n.ivs {
				size := iv.EndVertex - iv.FirstVertex
				n.accs[d].vals = make([]uint64, size)
				n.accs[d].bits = make([]uint64, (size+63)/64)
			}
		}
	}
	var generated, delivered int64
	for iv := range n.ivs {
		if n.owners[iv] != n.id {
			continue
		}
		if err := n.dispatchInterval(step, round, iv, &generated, &delivered); err != nil {
			return err
		}
	}
	// End-of-stream on every member peer connection, then DISPATCH_OVER.
	for i := range n.peers {
		if i == n.id || !n.member[i] {
			continue
		}
		if err := n.sendData(i, fEOS, u64Payload(round, n.peerSeq[i]+1)); err != nil {
			return stepFailf("cluster: node %d EOS to %d: %w", n.id, i, err)
		}
	}
	return n.coord.writeFrame(fDispatchOver, u64Payload(uint64(step), uint64(generated), uint64(delivered)))
}

// dispatchInterval streams hosted interval src, folding every generated
// message into the accumulator of its destination interval, then drains
// the accumulators: runs bound for other nodes go out first, so the wire
// carries them while the co-hosted runs are staged. A destination
// vertex's messages from src therefore fold in generation order into one
// message, whichever node hosts which interval.
func (n *node) dispatchInterval(step int64, round uint64, src int, generated, delivered *int64) error {
	col := vertexfile.DispatchCol(step)
	weighted := n.gf.Weighted()
	cur := n.gf.Cursor(n.ivs[src])
	for {
		v, deg, edges, ok := cur.Next()
		if !ok {
			break
		}
		if fault.Error(fault.SiteNodeKillDispatch) != nil {
			return fmt.Errorf("cluster: node %d mid-dispatch: %w", n.id, errNodeKilled)
		}
		slot := n.vf.Load(col, v)
		if vertexfile.Stale(slot) {
			continue
		}
		payload := vertexfile.Payload(slot)
		for i := 0; i < int(deg); i++ {
			dst, w := graph.DecodeEdge(edges, i, weighted)
			msgVal, send := n.prog.GenMsg(v, payload, deg, dst, w)
			if !send {
				continue
			}
			*generated++
			if d := n.fold(dst, msgVal); n.combiner == nil && n.accs[d].count >= maxRunMsgs {
				if err := n.flushAcc(round, src, d, delivered); err != nil {
					return err
				}
			}
		}
		n.vf.Store(col, v, slot|vertexfile.StaleBit)
	}
	if err := cur.Err(); err != nil {
		return err
	}
	for _, local := range []bool{false, true} {
		for d := range n.accs {
			if n.accs[d].count > 0 && (n.owners[d] == n.id) == local {
				if err := n.flushAcc(round, src, d, delivered); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// fold adds one message generated by the interval being dispatched to
// the accumulator of dst's interval, combining it into the vertex's
// slot when the program has a Combiner, and returns that interval.
//
//gpsa:noalloc
func (n *node) fold(dst graph.VertexID, val uint64) int {
	d := n.ivOf(int64(dst))
	a := &n.accs[d]
	if n.combiner == nil {
		//lint:noalloc the list's backing array is reused across flushes and supersteps; it grows only until it first reaches maxRunMsgs
		a.list = append(a.list, core.Message{Dst: dst, Val: val})
		a.count++
		return d
	}
	i := int64(dst) - n.ivBounds[d]
	word, bit := i>>6, uint64(1)<<uint(i&63)
	if a.bits[word]&bit != 0 {
		a.vals[i] = n.combiner.CombineMsg(a.vals[i], val)
		return d
	}
	a.bits[word] |= bit
	a.vals[i] = val
	a.count++
	return d
}

// flushAcc drains destination interval d's accumulator into one run of
// source interval src: staged directly when d is co-hosted, sent as
// BATCH frames of at most maxRunMsgs messages otherwise.
func (n *node) flushAcc(round uint64, src, d int, delivered *int64) error {
	a, first, owner := &n.accs[d], n.ivBounds[d], n.owners[d]
	*delivered += int64(a.count)
	if owner == n.id {
		n.staged[src] = a.drain(n.staged[src], first)
		return nil
	}
	n.runBuf = a.drain(n.runBuf[:0], first)
	for run := n.runBuf; len(run) > 0; {
		k := min(len(run), maxRunMsgs)
		if err := n.sendData(owner, fBatch, batchPayload(round, n.peerSeq[owner]+1, uint32(src), run[:k])); err != nil {
			return err
		}
		run = run[k:]
	}
	return nil
}

// barrierPhase waits for every peer's end-of-stream, applies the staged
// runs, commits the superstep, and acknowledges the coordinator. Peer
// disconnects and corrupt streams unwind the wait as step failures
// instead of deadlocking it.
func (n *node) barrierPhase(step int64) error {
	round := n.round.Load()
	// One budget for the wait: a lost peer (no end-of-stream) fails the
	// superstep with a labelled error instead of blocking the cluster
	// forever.
	var timeoutC <-chan time.Time
	if n.cfg.BarrierTimeout > 0 {
		tm := time.NewTimer(n.cfg.BarrierTimeout)
		defer tm.Stop()
		timeoutC = tm.C
	}
	seen := make([]bool, n.total)
	for need := n.nMembers - 1; need > 0; {
		select {
		case mk := <-n.eosCh:
			if mk.round == round && n.member[mk.sender] && !seen[mk.sender] {
				seen[mk.sender] = true
				need--
			}
		case err := <-n.failCh:
			return stepFailure{err: err}
		case <-timeoutC:
			return stepFailf("cluster: node %d: superstep %d compute barrier timed out after %v waiting for peer end-of-stream", n.id, step, n.cfg.BarrierTimeout)
		}
	}
	updates, err := n.apply(step)
	if err != nil {
		return err
	}
	if fault.Error(fault.SiteNodeKillBarrier) != nil {
		return fmt.Errorf("cluster: node %d mid-barrier: %w", n.id, errNodeKilled)
	}
	if err := n.vf.Commit(step, true, !n.cfg.DisableSync); err != nil {
		return err
	}
	n.begunStep = -1
	return n.coord.writeFrame(fComputeOver, u64Payload(uint64(step), uint64(updates)))
}

// apply runs Compute over the staged runs, source interval by source
// interval in ascending order — the fold order that keeps results
// bit-identical under any assignment of intervals to nodes — and empties
// the staging for the next superstep. A panic in the vertex program
// fails the step instead of killing the node.
func (n *node) apply(step int64) (updates int64, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = stepFailf("cluster: node %d: superstep %d compute: panic: %v", n.id, step, r)
		}
	}()
	dcol, ucol := vertexfile.DispatchCol(step), vertexfile.UpdateCol(step)
	for src, run := range n.staged {
		for _, msg := range run {
			v := int64(msg.Dst)
			slot := n.vf.Load(ucol, v)
			first := vertexfile.Stale(slot)
			var cur uint64
			if first {
				cur = vertexfile.Payload(n.vf.Load(dcol, v))
			} else {
				cur = vertexfile.Payload(slot)
			}
			newVal, changed := n.prog.Compute(v, cur, msg.Val, first)
			if changed {
				n.vf.Store(ucol, v, vertexfile.Pack(newVal, false))
				updates++
			}
		}
		n.staged[src] = run[:0]
	}
	return updates, nil
}

func (n *node) sendValues(iv int) error {
	if iv < 0 || iv >= len(n.ivs) || n.owners[iv] != n.id {
		return fmt.Errorf("cluster: node %d asked for values of interval %d it does not host", n.id, iv)
	}
	first, end := n.ivs[iv].FirstVertex, n.ivs[iv].EndVertex
	payloads := make([]uint64, 0, end-first)
	for v := first; v < end; v++ {
		payloads = append(payloads, n.vf.Value(v))
	}
	return n.coord.writeFrame(fValues, valuesPayload(first, payloads))
}
