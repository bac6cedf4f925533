// Package spiderfs is a simulation-based reproduction of "Best
// Practices and Lessons Learned from Deploying and Operating
// Large-Scale Data-Centric Parallel File Systems" (SC'14): the OLCF
// Spider I/II center-wide Lustre deployments, rebuilt as a
// deterministic discrete-event model with the full operational tool
// chain on top.
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for the
// paper-vs-measured record. Every figure and quantitative claim in the
// paper's evaluation is one row of the registry in internal/experiments:
// BenchmarkPaper regenerates each row's table, and TestPaperClaims gates
// each row's claim in every `go test` run.
package spiderfs
