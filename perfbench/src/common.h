// Shared pieces of the benchmark program: command-line arguments, the
// metric sink, the in-memory span recorder, latency summaries, the oracle
// digest and the seeded dataset generators.
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "graph/graph_database.h"
#include "sim/sim_engine.h"
#include "sim/solver.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Self-check scale: LUBM(1) + DBpedia-like(1) instead of (10) + (4).
  bool tiny = false;
  /// Flips one oracle digest after set-up, so a healthy program must fail
  /// the gate (self-check of the gate itself).
  bool corrupt_digest = false;
  /// Where records and traces go; created on demand.
  std::string out_dir = ".bench_build/perfbench/out";
  std::string revision = "unknown";
  std::string source_digest = "unknown";
};

/// Ordered (name, value, unit) list; printed in insertion order.
class Metrics {
 public:
  struct Entry {
    std::string name;
    double value = 0;
    std::string unit;
  };
  void Set(const std::string& name, double value, const std::string& unit);
  const std::vector<Entry>& entries() const { return entries_; }
  /// {"name": {"value": v, "unit": "u"}, ...}
  std::string ToJson() const;

 private:
  std::vector<Entry> entries_;
};

/// One recorded span: a layer boundary crossed by one operation.
struct Span {
  const char* name = "";
  Clock::time_point start;
  Clock::time_point end;
  int64_t parent = -1;  ///< index into the recorder, -1 for a root
  uint64_t op = 0;      ///< operation id shared by the spans of one request
  uint32_t tid = 0;     ///< small per-thread id for the trace viewer
};

/// Keeps spans in memory (nothing is written while measuring). A disabled
/// recorder hands out -1 and records nothing, so call sites stay
/// unconditional. Thread-safe.
class SpanRecorder {
 public:
  SpanRecorder() = default;
  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  /// Starts recording. Call before any thread records into it.
  void Enable() { enabled_ = true; }
  bool enabled() const { return enabled_; }

  /// Opens a span now; returns its handle (or -1 when disabled).
  int64_t Begin(const char* name, uint64_t op, int64_t parent, uint32_t tid);
  void End(int64_t handle);
  /// Records an already-finished span.
  int64_t Add(const char* name, uint64_t op, int64_t parent, uint32_t tid,
              Clock::time_point start, Clock::time_point end);

  /// Chrome trace-event JSON (load in chrome://tracing or Perfetto).
  bool WriteChromeTrace(const std::string& path) const;

  /// Per-layer self time: each span's duration minus the part of it that
  /// its children cover, summed by span name. Returns (name, total ms,
  /// count) in first-seen order.
  struct SelfTime {
    std::string name;
    double total_ms = 0;
    size_t count = 0;
  };
  std::vector<SelfTime> SelfTimes() const;

 private:
  bool enabled_ = false;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
  Clock::time_point origin_ = Clock::now();
};

/// Latency summary used for every timing metric.
struct Summary {
  size_t samples = 0;
  double p50 = 0;
  /// Nearest-rank value at `tail_percentile`, and how many samples lie
  /// beyond it. Each workload fixes its tail percentile so that at its
  /// design rate well over ten samples lie beyond it; the count is
  /// recorded so a run where that no longer holds shows.
  double tail = 0;
  double tail_percentile = 0;
  size_t beyond_tail = 0;
  double mean = 0;
};
Summary Summarize(std::vector<double> values, double tail_percentile = 95);

/// Order-sensitive 64-bit digest of a report's kept triples and
/// per-variable candidate sets: the value the oracle gate compares.
uint64_t ReportDigest(const sparqlsim::sim::PruneReport& report);

/// Solver configuration of the reference solves: dense kernel, one shard,
/// no scratch pool, no caches, one thread.
sparqlsim::sim::SolverOptions OracleOptions();

/// Mixes the workload seed into a per-purpose seed.
uint64_t DeriveSeed(uint64_t seed, uint64_t purpose);

struct DatasetInfo {
  std::string name;
  size_t triples = 0;
  size_t nodes = 0;
  size_t predicates = 0;
};
DatasetInfo Describe(const std::string& name,
                     const sparqlsim::graph::GraphDatabase& db);

sparqlsim::graph::GraphDatabase MakeLubm(const Args& args);
sparqlsim::graph::GraphDatabase MakeDbpedia(const Args& args);

/// Process peak resident set size (getrusage), MiB.
double PeakRssMb();

/// Everything one run reports. `end_to_end` is printed with --trace 0,
/// `per_layer` with --trace 1; both go into the run record.
struct RunResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::string failure;  ///< first oracle mismatch, for the log
  Metrics end_to_end;
  Metrics per_layer;
  /// Free-form facts recorded beside the metrics (tail percentile and
  /// sample count, offered rates, ...), as (key, JSON value) pairs.
  std::vector<std::pair<std::string, std::string>> notes;
  std::vector<DatasetInfo> datasets;
  /// Human-readable per-layer self-time table (traced runs).
  std::string table;

  void Note(const std::string& key, double value);
  void Note(const std::string& key, const std::string& text);
  /// Records an oracle mismatch; the run then fails.
  void Mismatch(const std::string& what);
};

/// Every end-to-end / per-layer metric name with its unit, in print order.
/// A run starts from these (all zero) so each metric is always emitted.
const std::vector<std::pair<const char*, const char*>>& EndToEndMetrics();
const std::vector<std::pair<const char*, const char*>>& PerLayerMetrics();
void InitMetrics(RunResult* result);

/// Median of `values` (0 for an empty list).
double Median(std::vector<double> values);

/// Renders the self-time table of `recorder` with each layer's mean time
/// per operation and its share of the traced operations' total.
std::string SelfTimeTable(const SpanRecorder& recorder, size_t ops);

RunResult RunPruneWorkload(const Args& args);
RunResult RunServeWorkload(const Args& args);

}  // namespace perfbench
