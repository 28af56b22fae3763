// Package servetest is the serving-layer torture harness: it runs the
// real cmd/gpsa-serve binary as a subprocess, floods it with concurrent
// jobs, SIGKILLs it mid-flight, restarts it with -resume-jobs, and
// asserts every job's final value file is bit-identical to an
// undisturbed run — plus overload (429 shedding), SIGTERM draining, and
// deadline-budget scenarios.
//
// The scenarios live in its tests (make torture; the smoke slice runs
// in make check); the gpsa-serve client is internal/torture.
package servetest
