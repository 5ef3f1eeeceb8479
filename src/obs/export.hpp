#pragma once
// Exporters for the obs subsystem (DESIGN.md §11):
//
//  * write_chrome_trace — Chrome trace_event JSON, loadable in
//    chrome://tracing and ui.perfetto.dev. One track (tid) per simulated
//    rank plus a driver track; every event carries its category and a
//    "channel" arg ("overhead" for kRetry spans — retransmissions,
//    ACK/NACK rounds, backoff, degraded replay — "goodput" otherwise),
//    mirroring the CommLedger's two-channel split.
//  * write_metrics_json — a MetricsRegistry as one JSON object via the
//    shared repro::JsonWriter (counters / gauges / histograms).
//  * rank_summary — human-readable per-rank critical-path breakdown
//    (time per category, and busy time as the union of each rank's
//    spans) for benches.

#include <iosfwd>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "support/json_writer.hpp"

namespace sttsv::obs {

/// Writes `spans` (typically tracer().snapshot()) as a complete Chrome
/// trace_event JSON document: {"traceEvents": [...]} with "X" (complete)
/// events in microseconds plus thread_name metadata naming each track.
void write_chrome_trace(std::ostream& out,
                        const std::vector<SpanRecord>& spans);

/// Emits `registry` as an object field `key` in the writer's current
/// scope: {"counters": {...}, "gauges": {...}, "histograms": {name:
/// {count, sum, min, max, mean}}}.
void write_metrics_json(repro::JsonWriter& w, const MetricsRegistry& registry,
                        const char* key = "metrics");

/// Renders a per-rank breakdown table: for every rank track, span count
/// and total milliseconds per category, plus the rank's busy time (the
/// union of its spans' intervals, whichever thread recorded them) — the
/// per-processor critical-path view the paper argues in. Returns "" when
/// `spans` is empty.
[[nodiscard]] std::string rank_summary(const std::vector<SpanRecord>& spans);

}  // namespace sttsv::obs
