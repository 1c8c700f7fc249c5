#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <sstream>

#include "datagen/dbpedia.h"
#include "datagen/lubm.h"

namespace perfbench {

namespace {

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", value);
  return buf;
}

std::string JsonString(const std::string& text) {
  std::string out = "\"";
  for (char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  out += '"';
  return out;
}

}  // namespace

void Metrics::Set(const std::string& name, double value,
                  const std::string& unit) {
  for (Entry& e : entries_) {
    if (e.name == name) {
      e.value = value;
      e.unit = unit;
      return;
    }
  }
  entries_.push_back({name, value, unit});
}

std::string Metrics::ToJson() const {
  std::string out = "{";
  for (size_t i = 0; i < entries_.size(); ++i) {
    if (i > 0) out += ", ";
    out += JsonString(entries_[i].name) + ": {\"value\": " +
           JsonNumber(entries_[i].value) +
           ", \"unit\": " + JsonString(entries_[i].unit) + "}";
  }
  return out + "}";
}

int64_t SpanRecorder::Begin(const char* name, uint64_t op, int64_t parent,
                            uint32_t tid) {
  if (!enabled_) return -1;
  const Clock::time_point now = Clock::now();
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back({name, now, now, parent, op, tid});
  return static_cast<int64_t>(spans_.size()) - 1;
}

void SpanRecorder::End(int64_t handle) {
  if (handle < 0) return;
  const Clock::time_point now = Clock::now();
  std::lock_guard<std::mutex> lock(mutex_);
  spans_[static_cast<size_t>(handle)].end = now;
}

int64_t SpanRecorder::Add(const char* name, uint64_t op, int64_t parent,
                          uint32_t tid, Clock::time_point start,
                          Clock::time_point end) {
  if (!enabled_) return -1;
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back({name, start, end, parent, op, tid});
  return static_cast<int64_t>(spans_.size()) - 1;
}

bool SpanRecorder::WriteChromeTrace(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mutex_);
  FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::fprintf(out, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const double ts =
        std::chrono::duration<double, std::micro>(s.start - origin_).count();
    const double dur =
        std::chrono::duration<double, std::micro>(s.end - s.start).count();
    std::fprintf(out,
                 "%s{\"name\": \"%s\", \"ph\": \"X\", \"ts\": %.3f, "
                 "\"dur\": %.3f, \"pid\": 1, \"tid\": %u, \"args\": "
                 "{\"op\": %llu, \"span\": %zu, \"parent\": %lld}}",
                 i == 0 ? "" : ",\n", s.name, ts, dur, s.tid,
                 static_cast<unsigned long long>(s.op), i,
                 static_cast<long long>(s.parent));
  }
  std::fprintf(out, "\n]}\n");
  return std::fclose(out) == 0;
}

std::vector<SpanRecorder::SelfTime> SpanRecorder::SelfTimes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  // Children of one span never overlap each other (every caller opens them
  // sequentially on one thread), so the covered part is the sum of the
  // children's durations clipped to the parent's interval.
  std::vector<double> covered(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent < 0) continue;
    const Span& p = spans_[static_cast<size_t>(s.parent)];
    const Clock::time_point a = std::max(s.start, p.start);
    const Clock::time_point b = std::min(s.end, p.end);
    if (b > a) covered[static_cast<size_t>(s.parent)] += MsBetween(a, b);
  }
  std::vector<SelfTime> out;
  std::map<std::string, size_t> index;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    auto [it, inserted] = index.try_emplace(s.name, out.size());
    if (inserted) out.push_back({s.name, 0.0, 0});
    SelfTime& t = out[it->second];
    t.total_ms += std::max(0.0, MsBetween(s.start, s.end) - covered[i]);
    ++t.count;
  }
  return out;
}

Summary Summarize(std::vector<double> values, double tail_percentile) {
  Summary s;
  s.samples = values.size();
  if (values.empty()) return s;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  s.p50 = n % 2 == 1 ? values[n / 2]
                     : 0.5 * (values[n / 2 - 1] + values[n / 2]);
  const double rank = std::ceil(tail_percentile / 100.0 * static_cast<double>(n));
  const size_t at = std::clamp<size_t>(static_cast<size_t>(rank), 1, n) - 1;
  s.tail = values[at];
  s.tail_percentile = tail_percentile;
  s.beyond_tail = n - 1 - at;
  double sum = 0;
  for (double v : values) sum += v;
  s.mean = sum / static_cast<double>(n);
  return s;
}

double Median(std::vector<double> values) { return Summarize(values).p50; }

const std::vector<std::pair<const char*, const char*>>& EndToEndMetrics() {
  static const std::vector<std::pair<const char*, const char*>> kMetrics = {
      {"setup_s", "s"},
      {"throughput_qps", "ops/s"},
      {"latency_p50_ms", "ms"},
      {"latency_tail_ms", "ms"},
      {"ops_ok_frac", "ratio"},
      {"peak_rss_mb", "MiB"},
      {"publish_p50_ms", "ms"},
      {"publish_tail_ms", "ms"},
  };
  return kMetrics;
}

const std::vector<std::pair<const char*, const char*>>& PerLayerMetrics() {
  static const std::vector<std::pair<const char*, const char*>> kMetrics = {
      {"sparql.parser.parse_ms", "ms"},
      {"sparql.normalize.unf_ms", "ms"},
      {"sparql.normalize.branches", "count"},
      {"sim.soi_builder.build_ms", "ms"},
      {"sim.soi_builder.inequalities", "count"},
      {"sim.solver.solve_ms", "ms"},
      {"sim.solver.rounds", "count"},
      {"sim.solver.evaluations", "count"},
      {"sim.solver.useful_eval_ratio", "ratio"},
      {"sim.solver.delta_eval_share", "ratio"},
      {"sim.solver.compressed_ops", "count"},
      {"sim.solver.scratch_allocs", "count"},
      {"sim.sim_engine.prune_ms", "ms"},
      {"sim.sim_engine.extract_merge_ms", "ms"},
      {"sim.sim_engine.kept_triples", "count"},
      {"graph.graph_database.restrict_ms", "ms"},
      {"sim.soi_cache.soi_hit_ratio", "ratio"},
      {"sim.soi_cache.solution_hit_ratio", "ratio"},
      {"sim.soi_cache.evictions", "count"},
      {"sim.soi_cache.generation_evictions", "count"},
      {"sim.query_service.queue_wait_ms", "ms"},
      {"sim.query_service.run_ms", "ms"},
      {"sim.query_service.coalesced_ratio", "ratio"},
      {"sim.query_service.gate_blocked", "count"},
      {"sim.query_service.peak_in_flight", "count"},
      {"sim.query_service.snapshots_live_peak", "count"},
      {"sim.standing_query.maintain_ms", "ms"},
      {"sim.standing_query.recompute_ratio", "ratio"},
      {"sim.standing_query.armed_ratio", "ratio"},
      {"graph.graph_database.with_delta_ms", "ms"},
      {"graph.binary_io.open_ms", "ms"},
      {"graph.backing.materializations", "count"},
      {"graph.backing.evictions", "count"},
      {"graph.backing.resident_peak_mb", "MiB"},
      {"bench.generator.late_ms", "ms"},
      {"bench.tracing.untraced_qps", "ops/s"},
      {"bench.tracing.traced_qps", "ops/s"},
  };
  return kMetrics;
}

void InitMetrics(RunResult* result) {
  for (const auto& [name, unit] : EndToEndMetrics()) {
    result->end_to_end.Set(name, 0.0, unit);
  }
  for (const auto& [name, unit] : PerLayerMetrics()) {
    result->per_layer.Set(name, 0.0, unit);
  }
}

uint64_t ReportDigest(const sparqlsim::sim::PruneReport& report) {
  uint64_t h = 1469598103934665603ULL;
  auto mix = [&h](uint64_t v) {
    h ^= v;
    h *= 1099511628211ULL;
    h ^= h >> 31;
  };
  mix(report.kept_triples.size());
  for (const sparqlsim::graph::Triple& t : report.kept_triples) {
    mix((static_cast<uint64_t>(t.subject) << 32) | t.object);
    mix(t.predicate);
  }
  for (const auto& [var, bits] : report.var_candidates) {
    for (char c : var) mix(static_cast<unsigned char>(c));
    mix(bits.size());
    const uint64_t* words = bits.words();
    for (size_t w = 0; w < bits.WordCount(); ++w) mix(words[w]);
  }
  return h;
}

sparqlsim::sim::SolverOptions OracleOptions() {
  sparqlsim::sim::SolverOptions o;
  o.kernel_mode = sparqlsim::sim::SolverOptions::KernelMode::kDense;
  o.num_shards = 1;
  o.num_threads = 1;
  o.reuse_scratch = false;
  o.cache_sois = false;
  o.cache_solutions = false;
  return o;
}

uint64_t DeriveSeed(uint64_t seed, uint64_t purpose) {
  // SplitMix64 finalizer over (seed, purpose).
  uint64_t z = seed * 0x9E3779B97F4A7C15ULL + purpose * 0xBF58476D1CE4E5B9ULL +
               0x94D049BB133111EBULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

DatasetInfo Describe(const std::string& name,
                     const sparqlsim::graph::GraphDatabase& db) {
  return {name, db.NumTriples(), db.NumNodes(), db.NumPredicates()};
}

sparqlsim::graph::GraphDatabase MakeLubm(const Args& args) {
  sparqlsim::datagen::LubmConfig config;
  config.num_universities = args.tiny ? 1 : 10;
  return sparqlsim::datagen::MakeLubmDatabase(config);
}

sparqlsim::graph::GraphDatabase MakeDbpedia(const Args& args) {
  sparqlsim::datagen::DbpediaConfig config;
  config.scale = args.tiny ? 1 : 4;
  return sparqlsim::datagen::MakeDbpediaDatabase(config);
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void RunResult::Note(const std::string& key, double value) {
  notes.emplace_back(key, JsonNumber(value));
}

void RunResult::Note(const std::string& key, const std::string& text) {
  notes.emplace_back(key, JsonString(text));
}

void RunResult::Mismatch(const std::string& what) {
  if (correct) failure = what;
  correct = false;
}

std::string SelfTimeTable(const SpanRecorder& recorder, size_t ops) {
  std::vector<SpanRecorder::SelfTime> times = recorder.SelfTimes();
  double total = 0;
  for (const auto& t : times) total += t.total_ms;
  std::ostringstream out;
  char line[256];
  std::snprintf(line, sizeof(line), "  %-36s %8s %12s %8s\n", "span (self)",
                "count", "ms/op", "share");
  out << line;
  for (const auto& t : times) {
    std::snprintf(line, sizeof(line), "  %-36s %8zu %12.4f %7.1f%%\n",
                  t.name.c_str(), t.count,
                  ops > 0 ? t.total_ms / static_cast<double>(ops) : 0.0,
                  total > 0 ? 100.0 * t.total_ms / total : 0.0);
    out << line;
  }
  return out.str();
}

}  // namespace perfbench
