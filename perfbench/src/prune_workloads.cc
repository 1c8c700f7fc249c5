// The closed-loop prune workloads. One client issues operations back to
// back; each operation is SimEngine::Prune followed by
// GraphDatabase::Restrict(kept_triples), with caches off so every
// operation is a distinct query as far as the engine can tell.
//
//   prune-output     queries that keep 40k-260k triples: extraction, merge
//                    and Restrict dominate.
//   prune-fixpoint   many rounds, small outputs: the fixpoint dominates.
//   prune-outofcore  the DBpedia-like queries of both sets against a
//                    SQSIMDB2 file opened lazily under a resident budget
//                    below the working set.

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "datagen/queries.h"
#include "graph/binary_io.h"
#include "sim/soi.h"
#include "sparql/normalize.h"
#include "sparql/parser.h"
#include "util/rng.h"

namespace perfbench {
namespace {

using sparqlsim::graph::GraphDatabase;
using sparqlsim::sim::PruneReport;
using sparqlsim::sim::SimEngine;

enum class Data { kLubm, kDbpedia };

struct QuerySpec {
  const char* id;
  Data data;
};

// The cyclic LUBM query of the ablation bench: gradual erosion over many
// rounds.
constexpr const char* kLcQuery =
    "SELECT * WHERE { ?x <memberOf> ?d . ?x <takesCourse> ?c . "
    "?y <teacherOf> ?c . ?y <worksFor> ?d . ?x <advisor> ?y . "
    "?y <doctoralDegreeFrom> ?u . ?d <subOrganizationOf> ?u2 . "
    "?p <publicationAuthor> ?x . }";

std::string QueryText(const std::string& id) {
  if (id == "LC") return kLcQuery;
  if (id == "U6") {
    // UNION of the BGP cores of the first six benchmark queries (the
    // multi-branch workload of the parallel bench), one branch each.
    std::string text = "SELECT * WHERE { ";
    const auto queries = sparqlsim::datagen::BenchmarkQueries();
    for (size_t i = 0; i < 6; ++i) {
      const std::string& q = queries[i].text;
      if (i > 0) text += " UNION ";
      text += q.substr(q.find('{'));
    }
    return text + " }";
  }
  for (const auto& set : {sparqlsim::datagen::LubmQueries(),
                          sparqlsim::datagen::DbpediaQueries(),
                          sparqlsim::datagen::BenchmarkQueries()}) {
    for (const auto& q : set) {
      if (q.id == id) return q.text;
    }
  }
  throw std::runtime_error("unknown query id " + id);
}

std::vector<QuerySpec> QuerySet(const std::string& workload) {
  const std::vector<QuerySpec> output = {
      {"B1", Data::kDbpedia},  {"B2", Data::kDbpedia}, {"B13", Data::kDbpedia},
      {"B14", Data::kDbpedia}, {"B17", Data::kDbpedia}, {"D0", Data::kDbpedia},
      {"D3", Data::kDbpedia},  {"D4", Data::kDbpedia}, {"L2", Data::kLubm},
      {"U6", Data::kDbpedia}};
  const std::vector<QuerySpec> fixpoint = {
      {"B8", Data::kDbpedia}, {"B3", Data::kDbpedia}, {"B0", Data::kDbpedia},
      {"B10", Data::kDbpedia}, {"D5", Data::kDbpedia}, {"L0", Data::kLubm},
      {"L1", Data::kLubm},    {"L4", Data::kLubm},    {"L5", Data::kLubm},
      {"LC", Data::kLubm}};
  if (workload == "prune-output") return output;
  if (workload == "prune-fixpoint") return fixpoint;
  std::vector<QuerySpec> both;
  for (const auto& set : {output, fixpoint}) {
    for (const QuerySpec& q : set) {
      if (q.data == Data::kDbpedia) both.push_back(q);
    }
  }
  return both;
}

struct Query {
  std::string id;
  std::string text;
  Data data;
  sparqlsim::sparql::Query parsed;
  uint64_t digest = 0;  // oracle
  size_t index = 0;     // position in the query set
};

/// Per-layer sums over the traced operations.
struct LayerSums {
  size_t ops = 0;
  double parse_ms = 0, unf_ms = 0, build_ms = 0, solve_ms = 0;
  double prune_ms = 0, extract_merge_ms = 0, restrict_ms = 0;
  double branches = 0, inequalities = 0, kept = 0;
  double rounds = 0, evaluations = 0, updates = 0, delta_evals = 0;
  double compressed_ops = 0, scratch_allocs = 0;
};

struct LoopResult {
  std::vector<double> latency_ms;
  std::vector<double> restrict_ms;
  // By query index: operation and Restrict latencies.
  std::vector<std::vector<double>> per_query_ms;
  std::vector<std::vector<double>> per_query_restrict_ms;
  /// Operations per busy second of each whole cycle over the query set;
  /// their median is the reported throughput, so a stall in one cycle
  /// does not move it.
  std::vector<double> cycle_qps;
  double busy_s = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
};

class PruneBench {
 public:
  explicit PruneBench(const Args& args)
      : args_(args),
        specs_(QuerySet(args.workload)),
        outofcore_(args.workload == "prune-outofcore"),
        rng_(DeriveSeed(args.seed, 3)) {}

  RunResult Run();

 private:
  bool Needs(Data d) const {
    return std::any_of(specs_.begin(), specs_.end(),
                       [d](const QuerySpec& q) { return q.data == d; });
  }
  const GraphDatabase& Db(Data d) const {
    return d == Data::kLubm ? *lubm_ : *dbpedia_;
  }
  const SimEngine& Engine(Data d) const {
    return d == Data::kLubm ? *lubm_engine_ : *dbpedia_engine_;
  }

  /// Generates the datasets, parses the queries and computes their oracle
  /// digests (for prune-outofcore, then saves the data and reopens it
  /// lazily); returns the seconds it took.
  double Prepare(RunResult* result);
  /// One operation, untraced: Prune + Restrict, checked against the oracle.
  void RunOp(const Query& q, LoopResult* loop, RunResult* result);
  /// One operation replayed stage by stage, each stage a span.
  void RunTracedOp(const Query& q, uint64_t op, LoopResult* loop,
                   RunResult* result);
  void Check(const Query& q, const PruneReport& report,
             const GraphDatabase& restricted, LoopResult* loop,
             RunResult* result);
  LoopResult Loop(double seconds, bool traced, RunResult* result);
  void SampleBacking();

  const Args& args_;
  const std::vector<QuerySpec> specs_;
  const bool outofcore_;
  sparqlsim::util::Rng rng_;
  std::optional<GraphDatabase> lubm_;
  std::optional<GraphDatabase> dbpedia_;
  std::unique_ptr<SimEngine> lubm_engine_;
  std::unique_ptr<SimEngine> dbpedia_engine_;
  std::vector<Query> queries_;
  std::vector<size_t> order_;
  size_t next_ = 0;
  uint64_t next_op_ = 0;
  SpanRecorder recorder_;
  LayerSums sums_;
  std::vector<double> open_ms_;
  size_t resident_peak_bytes_ = 0;
};

double PruneBench::Prepare(RunResult* result) {
  lubm_engine_.reset();
  dbpedia_engine_.reset();
  lubm_.reset();
  dbpedia_.reset();
  queries_.clear();
  const Clock::time_point start = Clock::now();
  if (Needs(Data::kLubm)) lubm_.emplace(MakeLubm(args_));
  if (Needs(Data::kDbpedia)) dbpedia_.emplace(MakeDbpedia(args_));
  for (const QuerySpec& spec : specs_) {
    Query q;
    q.id = spec.id;
    q.text = QueryText(spec.id);
    q.data = spec.data;
    q.index = queries_.size();
    auto parsed = sparqlsim::sparql::Parser::Parse(q.text);
    if (!parsed.ok()) {
      throw std::runtime_error(q.id + ": " + parsed.error_message());
    }
    q.parsed = std::move(parsed).value();
    SimEngine oracle(&Db(q.data), OracleOptions());
    q.digest = ReportDigest(oracle.Prune(q.parsed));
    queries_.push_back(std::move(q));
  }
  if (outofcore_) {
    // Saving and reopening keeps node and predicate ids, so the digests
    // computed on the generated database stay the references.
    std::error_code ec;
    std::filesystem::create_directories(args_.out_dir + "/data", ec);
    const std::string path = args_.out_dir + "/data/dbpedia-seed" +
                             std::to_string(args_.seed) + ".sqsimdb2";
    const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
    sparqlsim::util::Status saved =
        sparqlsim::graph::BinaryIo::SaveV2File(*dbpedia_, path, nproc);
    if (!saved.ok()) {
      throw std::runtime_error("cannot save " + path + ": " +
                               saved.message());
    }
    dbpedia_.reset();
    sparqlsim::graph::BinaryIo::LoadOptions options;
    // Below the lazily opened working set (about 16 MiB at full scale), so
    // every pass faults and evicts matrix slabs.
    options.resident_budget_bytes = (args_.tiny ? 1u : 8u) << 20;
    const Clock::time_point open_start = Clock::now();
    auto loaded = sparqlsim::graph::BinaryIo::LoadFile(path, options);
    open_ms_.push_back(MsBetween(open_start, Clock::now()));
    if (!loaded.ok()) {
      throw std::runtime_error("cannot open " + path + ": " +
                               loaded.error_message());
    }
    dbpedia_.emplace(std::move(loaded).value());
    if (open_ms_.size() == 1) {
      result->Note("resident_budget_mb",
                   static_cast<double>(options.resident_budget_bytes >> 20));
    }
  }
  return std::chrono::duration<double>(Clock::now() - start).count();
}

void PruneBench::SampleBacking() {
  if (!outofcore_) return;
  resident_peak_bytes_ =
      std::max(resident_peak_bytes_, dbpedia_->backing_stats().resident_bytes);
}

void PruneBench::Check(const Query& q, const PruneReport& report,
                       const GraphDatabase& restricted, LoopResult* loop,
                       RunResult* result) {
  ++loop->attempted;
  if (report.truncated) {
    ++loop->failed;
    return;
  }
  if (ReportDigest(report) != q.digest) {
    result->Mismatch(q.id + ": kept triples / candidates differ from oracle");
  } else if (restricted.NumTriples() != report.kept_triples.size()) {
    result->Mismatch(q.id + ": Restrict kept " +
                     std::to_string(restricted.NumTriples()) + " of " +
                     std::to_string(report.kept_triples.size()) + " triples");
  }
}

void PruneBench::RunOp(const Query& q, LoopResult* loop, RunResult* result) {
  const GraphDatabase& db = Db(q.data);
  const Clock::time_point t0 = Clock::now();
  PruneReport report = Engine(q.data).Prune(q.parsed);
  const Clock::time_point t1 = Clock::now();
  GraphDatabase restricted = db.Restrict(report.kept_triples);
  const Clock::time_point t2 = Clock::now();
  loop->latency_ms.push_back(MsBetween(t0, t2));
  loop->restrict_ms.push_back(MsBetween(t1, t2));
  if (q.index < loop->per_query_ms.size()) {
    loop->per_query_ms[q.index].push_back(MsBetween(t0, t2));
    loop->per_query_restrict_ms[q.index].push_back(MsBetween(t1, t2));
  }
  loop->busy_s += std::chrono::duration<double>(t2 - t0).count();
  SampleBacking();
  Check(q, report, restricted, loop, result);
}

void PruneBench::RunTracedOp(const Query& q, uint64_t op, LoopResult* loop,
                             RunResult* result) {
  namespace sparql = sparqlsim::sparql;
  namespace sim = sparqlsim::sim;
  const GraphDatabase& db = Db(q.data);
  const SimEngine& engine = Engine(q.data);
  SpanRecorder& rec = recorder_;
  const Clock::time_point t0 = Clock::now();
  const int64_t root = rec.Begin("operation", op, -1, 0);

  Clock::time_point s = Clock::now();
  int64_t span = rec.Begin("sparql.parser.parse", op, root, 0);
  auto parsed = sparql::Parser::Parse(q.text);
  rec.End(span);
  if (!parsed.ok()) {
    result->Mismatch(q.id + ": parse failed: " + parsed.error_message());
    return;
  }
  sums_.parse_ms += MsBetween(s, Clock::now());

  s = Clock::now();
  span = rec.Begin("sparql.normalize.unf", op, root, 0);
  std::vector<std::unique_ptr<sparql::Pattern>> branches =
      sparql::UnionNormalForm(*parsed.value().where);
  rec.End(span);
  const double unf_ms = MsBetween(s, Clock::now());
  double build_ms = 0, solve_ms = 0;
  for (const auto& branch : branches) {
    s = Clock::now();
    span = rec.Begin("sim.soi_builder.build", op, root, 0);
    sim::Soi soi = sim::BuildSoiFromPattern(*branch, db);
    rec.End(span);
    const Clock::time_point built = Clock::now();
    build_ms += MsBetween(s, built);
    span = rec.Begin("sim.solver.solve", op, root, 0);
    sim::Solution solution = engine.Solve(soi);
    rec.End(span);
    solve_ms += MsBetween(built, Clock::now());
    const sim::SolveStats& st = solution.stats;
    sums_.inequalities +=
        static_cast<double>(soi.matrix_ineqs.size() + soi.sub_ineqs.size());
    sums_.rounds += static_cast<double>(st.rounds);
    sums_.evaluations += static_cast<double>(st.evaluations);
    sums_.updates += static_cast<double>(st.updates);
    sums_.delta_evals += static_cast<double>(st.delta_evals);
    sums_.compressed_ops += static_cast<double>(st.compressed_ops);
    sums_.scratch_allocs += static_cast<double>(st.scratch_allocs);
  }

  s = Clock::now();
  span = rec.Begin("sim.sim_engine.prune", op, root, 0);
  PruneReport report = engine.Prune(q.parsed);
  rec.End(span);
  const Clock::time_point pruned = Clock::now();
  const double prune_ms = MsBetween(s, pruned);
  span = rec.Begin("graph.graph_database.restrict", op, root, 0);
  GraphDatabase restricted = db.Restrict(report.kept_triples);
  rec.End(span);
  const Clock::time_point t2 = Clock::now();
  rec.End(root);
  const double restrict_ms = MsBetween(pruned, t2);

  ++sums_.ops;
  sums_.unf_ms += unf_ms;
  sums_.build_ms += build_ms;
  sums_.solve_ms += solve_ms;
  sums_.prune_ms += prune_ms;
  // What Prune does beyond the replayed stages: triple extraction and the
  // merge (sort + unique). Branches of a UNION may overlap inside Prune
  // when it runs on a pool, so the difference is clamped at zero.
  sums_.extract_merge_ms +=
      std::max(0.0, prune_ms - unf_ms - build_ms - solve_ms);
  sums_.restrict_ms += restrict_ms;
  sums_.branches += static_cast<double>(branches.size());
  sums_.kept += static_cast<double>(report.kept_triples.size());

  loop->latency_ms.push_back(MsBetween(t0, t2));
  loop->restrict_ms.push_back(restrict_ms);
  loop->busy_s += std::chrono::duration<double>(t2 - t0).count();
  SampleBacking();
  Check(q, report, restricted, loop, result);
}

LoopResult PruneBench::Loop(double seconds, bool traced, RunResult* result) {
  LoopResult loop;
  loop.per_query_ms.resize(queries_.size());
  loop.per_query_restrict_ms.resize(queries_.size());
  double cycle_start = 0;
  // Whole cycles only, so every query weighs the same in the percentiles.
  while ((loop.busy_s < seconds || next_ != order_.size()) &&
         result->correct) {
    if (next_ == order_.size()) {
      // A fresh seeded permutation of the query set per cycle.
      for (size_t i = order_.size(); i > 1; --i) {
        std::swap(order_[i - 1], order_[rng_.NextBounded(i)]);
      }
      next_ = 0;
    }
    if (next_ == 0) cycle_start = loop.busy_s;
    const Query& q = queries_[order_[next_++]];
    if (traced) {
      RunTracedOp(q, next_op_++, &loop, result);
    } else {
      RunOp(q, &loop, result);
    }
    if (next_ == order_.size() && loop.busy_s > cycle_start) {
      loop.cycle_qps.push_back(static_cast<double>(order_.size()) /
                               (loop.busy_s - cycle_start));
    }
  }
  return loop;
}

RunResult PruneBench::Run() {
  RunResult result;
  InitMetrics(&result);

  // Set-up: datasets and oracle references three times over (the median
  // counts), then engines and one warm pass over every query.
  std::vector<double> prepare_s;
  for (int rep = 0; rep < 3; ++rep) prepare_s.push_back(Prepare(&result));
  if (lubm_) {
    result.datasets.push_back(
        Describe(args_.tiny ? "lubm-1" : "lubm-10", *lubm_));
  }
  if (dbpedia_) {
    result.datasets.push_back(
        Describe(args_.tiny ? "dbpedia-1" : "dbpedia-4", *dbpedia_));
  }
  const Clock::time_point start = Clock::now();
  if (args_.corrupt_digest) queries_.front().digest ^= 1;
  sparqlsim::sim::SolverOptions options;
  // The pool's workers plus the calling thread, which joins every
  // ParallelFor, keep exactly nproc threads busy.
  const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
  options.num_threads = nproc > 1 ? nproc - 1 : 1;
  options.cache_sois = false;
  options.cache_solutions = false;
  if (lubm_) lubm_engine_ = std::make_unique<SimEngine>(&*lubm_, options);
  if (dbpedia_) {
    dbpedia_engine_ = std::make_unique<SimEngine>(&*dbpedia_, options);
  }
  for (size_t i = 0; i < queries_.size(); ++i) order_.push_back(i);
  next_ = order_.size();
  {
    LoopResult warm;
    for (const Query& q : queries_) RunOp(q, &warm, &result);
  }
  const double setup_s =
      Median(prepare_s) +
      std::chrono::duration<double>(Clock::now() - start).count();

  const sparqlsim::graph::BackingStats backing_before =
      outofcore_ ? dbpedia_->backing_stats() : sparqlsim::graph::BackingStats{};
  resident_peak_bytes_ = 0;
  const double untraced_s = args_.trace ? args_.seconds / 2 : args_.seconds;
  LoopResult loop = Loop(untraced_s, /*traced=*/false, &result);
  const sparqlsim::graph::BackingStats backing_after =
      outofcore_ ? dbpedia_->backing_stats() : sparqlsim::graph::BackingStats{};
  const double qps = Median(loop.cycle_qps);
  result.attempted = loop.attempted;
  result.failed = loop.failed;

  // Every query runs once per cycle, so the pooled latencies are a mix of
  // equally weighted per-query classes, and a pooled percentile at a
  // multiple of 1/queries lands on the edge between two classes. The
  // median is therefore taken over the per-query medians, and the tail
  // percentile is fixed per workload in the middle of a class (p95: the
  // slowest query's median region with ten or fourteen queries; p80 on
  // prune-outofcore, whose runs hold fewer samples). The record keeps the
  // percentile, the sample count and how many samples lie beyond it.
  const double tail_pct = outofcore_ ? 80 : 95;
  Summary lat = Summarize(loop.latency_ms, tail_pct);
  Summary pub = Summarize(loop.restrict_ms, tail_pct);
  std::vector<double> query_p50, query_restrict_p50;
  for (const Query& q : queries_) {
    query_p50.push_back(Median(loop.per_query_ms[q.index]));
    query_restrict_p50.push_back(Median(loop.per_query_restrict_ms[q.index]));
  }
  lat.p50 = Median(query_p50);
  pub.p50 = Median(query_restrict_p50);
  Metrics& e2e = result.end_to_end;
  e2e.Set("setup_s", setup_s, "s");
  e2e.Set("throughput_qps", qps, "ops/s");
  e2e.Set("latency_p50_ms", lat.p50, "ms");
  e2e.Set("latency_tail_ms", lat.tail, "ms");
  e2e.Set("ops_ok_frac",
          loop.attempted > 0 ? static_cast<double>(loop.attempted - loop.failed) /
                                   static_cast<double>(loop.attempted)
                             : 0.0,
          "ratio");
  // The only write of a prune operation is the Restrict that publishes
  // the pruned version.
  e2e.Set("publish_p50_ms", pub.p50, "ms");
  e2e.Set("publish_tail_ms", pub.tail, "ms");
  result.Note("latency_tail_percentile", lat.tail_percentile);
  result.Note("latency_samples", static_cast<double>(lat.samples));
  result.Note("latency_beyond_tail", static_cast<double>(lat.beyond_tail));
  result.Note("publish_tail_percentile", pub.tail_percentile);
  result.Note("publish_samples", static_cast<double>(pub.samples));
  result.Note("solver_threads", static_cast<double>(options.num_threads));
  for (const Query& q : queries_) {
    result.Note("query." + q.id + ".p50_ms", query_p50[q.index]);
  }
  result.Note("ops_failed_frac",
              loop.attempted > 0 ? static_cast<double>(loop.failed) /
                                       static_cast<double>(loop.attempted)
                                 : 0.0);

  Metrics& layer = result.per_layer;
  const double ops = std::max<double>(1.0, static_cast<double>(loop.attempted));
  if (outofcore_) {
    layer.Set("graph.binary_io.open_ms", Median(open_ms_), "ms");
    layer.Set("graph.backing.materializations",
              static_cast<double>(backing_after.materializations -
                                  backing_before.materializations) / ops,
              "count");
    layer.Set("graph.backing.evictions",
              static_cast<double>(backing_after.evictions -
                                  backing_before.evictions) / ops,
              "count");
    layer.Set("graph.backing.resident_peak_mb",
              static_cast<double>(resident_peak_bytes_) / (1 << 20), "MiB");
  }

  if (args_.trace && result.correct) {
    recorder_.Enable();
    LoopResult traced = Loop(args_.seconds / 2, /*traced=*/true, &result);
    result.attempted += traced.attempted;
    result.failed += traced.failed;
    const LayerSums& s = sums_;
    const double n = std::max<double>(1.0, static_cast<double>(s.ops));
    layer.Set("sparql.parser.parse_ms", s.parse_ms / n, "ms");
    layer.Set("sparql.normalize.unf_ms", s.unf_ms / n, "ms");
    layer.Set("sparql.normalize.branches", s.branches / n, "count");
    layer.Set("sim.soi_builder.build_ms", s.build_ms / n, "ms");
    layer.Set("sim.soi_builder.inequalities", s.inequalities / n, "count");
    layer.Set("sim.solver.solve_ms", s.solve_ms / n, "ms");
    layer.Set("sim.solver.rounds", s.rounds / n, "count");
    layer.Set("sim.solver.evaluations", s.evaluations / n, "count");
    layer.Set("sim.solver.useful_eval_ratio",
              s.evaluations > 0 ? s.updates / s.evaluations : 0.0, "ratio");
    layer.Set("sim.solver.delta_eval_share",
              s.evaluations > 0 ? s.delta_evals / s.evaluations : 0.0,
              "ratio");
    layer.Set("sim.solver.compressed_ops", s.compressed_ops / n, "count");
    layer.Set("sim.solver.scratch_allocs", s.scratch_allocs / n, "count");
    layer.Set("sim.sim_engine.prune_ms", s.prune_ms / n, "ms");
    layer.Set("sim.sim_engine.extract_merge_ms", s.extract_merge_ms / n, "ms");
    layer.Set("sim.sim_engine.kept_triples", s.kept / n, "count");
    layer.Set("graph.graph_database.restrict_ms", s.restrict_ms / n, "ms");
    const double traced_qps = Median(traced.cycle_qps);
    layer.Set("bench.tracing.untraced_qps", qps, "ops/s");
    layer.Set("bench.tracing.traced_qps", traced_qps, "ops/s");

    char line[256];
    const double op_ms = s.prune_ms + s.restrict_ms;
    result.table = SelfTimeTable(recorder_, s.ops);
    std::snprintf(
        line, sizeof(line),
        "  modelled operation = Prune + Restrict = %.3f ms/op: solve %.1f%%, "
        "build %.1f%%, unf %.1f%%, extract+merge %.1f%%, restrict %.1f%%\n",
        op_ms / n, op_ms > 0 ? 100 * s.solve_ms / op_ms : 0.0,
        op_ms > 0 ? 100 * s.build_ms / op_ms : 0.0,
        op_ms > 0 ? 100 * s.unf_ms / op_ms : 0.0,
        op_ms > 0 ? 100 * s.extract_merge_ms / op_ms : 0.0,
        op_ms > 0 ? 100 * s.restrict_ms / op_ms : 0.0);
    result.table += line;
    result.Note("solve_share_of_operation",
                op_ms > 0 ? s.solve_ms / op_ms : 0.0);
    std::error_code ec;
    std::filesystem::create_directories(args_.out_dir + "/traces", ec);
    const std::string path = args_.out_dir + "/traces/" + args_.workload +
                             "-seed" + std::to_string(args_.seed) + ".json";
    if (recorder_.WriteChromeTrace(path)) result.Note("trace_file", path);
  }
  result.end_to_end.Set("peak_rss_mb", PeakRssMb(), "MiB");
  return result;
}

}  // namespace

RunResult RunPruneWorkload(const Args& args) { return PruneBench(args).Run(); }

}  // namespace perfbench
