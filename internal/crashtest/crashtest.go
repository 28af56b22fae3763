// Package crashtest is GPSA's kill-torture harness: it runs the real
// cmd/gpsa binary as a subprocess, terminates it with SIGKILL at
// randomized supersteps and commit-protocol phases (via the kill.* fault
// sites carried in GPSA_FAULT, plus wall-clock jittered kills that land
// anywhere at all), restarts it with -resume, and asserts the final
// vertex values are bit-identical to an uninterrupted run.
//
// The scenarios live in its tests (make torture); the subprocess,
// graph and sealed-state plumbing is internal/torture.
package crashtest
