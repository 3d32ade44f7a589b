// Package obs is the observation layer: the engine's one observation path
// (Observer), the counter/gauge/histogram registry every instrumented
// subsystem (dkv, store, transport) registers into, the structured
// per-iteration JSONL event stream, span tracing, and the optional HTTP
// monitor that exposes a running job's registry without interrupting it.
//
// The package is a leaf — it imports only the standard library — so any
// layer of the stack can register metrics without creating import cycles.
// The hot path pays for telemetry only when it is switched on: without it
// the engine loop's observer is just the Table III accumulator, and
// registry counters are single atomic adds.
//
// The pieces:
//
//   - Observer (observer.go): the engines attach one Fanout of Phases (the
//     Table III totals), RunRecorder, StageSpans and PhaseLabels.
//   - Registry (registry.go): named atomic counters, gauges, and streaming
//     latency histograms with fixed log-spaced buckets (p50/p95/p99).
//     Snapshots fold across ranks — counters sum, gauges take the max,
//     histogram buckets add — which is how a distributed run's per-rank
//     registries become one Result.Metrics.
//   - Events (events.go): the JSON-lines schema — run_start, one "iter"
//     event per iteration per rank with per-stage durations and DKV counter
//     deltas, "perplexity" points, run_end — plus ReadEvents/Validate for
//     consumers (scripts/bench_dist.sh, ocd-analyze, CI).
//   - RunRecorder (recorder.go) and Monitor (monitor.go): RunRecorder turns
//     observed stages into events and registry updates; Monitor serves the
//     registry as JSON over HTTP. Tracer (span.go) buffers spans.
package obs
