// Package cluster extends GPSA across multiple nodes — the distributed
// application of the actor model the paper motivates but leaves as future
// work (§III-B: "Actor-based graph processing can not only benefit
// multi-core systems but also be directly applicable to distributed
// systems").
//
// The design translates the paper's single-machine roles one-to-one:
//
//   - The manager actor becomes a Coordinator process coordinating
//     supersteps over TCP control connections.
//   - Each Node hosts a set of vertex intervals (balanced by edge count)
//     with its own two-column vertex value file. It streams each hosted
//     interval's share of the CSR file and folds every message once,
//     into one accumulator per destination interval; at the end of the
//     source interval each accumulator drains into one sorted run.
//   - Actor location transparency becomes explicit: a run whose
//     destination interval is co-hosted is staged directly; a remote one
//     crosses the owning node's data connection as a BATCH frame tagged
//     with its source interval. Combining before the wire keeps cluster
//     traffic close to the number of distinct destinations.
//
// The superstep barrier generalizes the single-machine one: after a node
// finishes dispatching (and has flushed its peer connections) it sends an
// end-of-stream marker on every data connection and DISPATCH_OVER to the
// coordinator; at the coordinator's COMPUTE barrier a node waits for
// end-of-stream from every peer — with TCP's per-connection FIFO, proof
// that every run of the superstep has been staged — then applies the
// staged runs in ascending source-interval order and acknowledges.
//
// Nodes here run in one process connected over loopback TCP, but nothing
// in the protocol assumes shared memory: all graph state crosses node
// boundaries through the wire format in protocol.go. The CSR file is
// opened read-only by every node, standing in for a shared filesystem.
package cluster
