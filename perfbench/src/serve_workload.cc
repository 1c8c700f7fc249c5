// serve-mixed: an open loop against one QueryService. Requests arrive on a
// fixed schedule (evenly spaced at the phase's rate) whether or not earlier
// ones finished; each request is query text, parsed by the generator and
// submitted. Latency runs from the request's due time to the moment the
// generator sees its report. A writer thread publishes small seeded
// insert/delete deltas at a fixed rate while two standing subscriptions
// stay live, so every publish starts a new cache generation and pays for
// standing-query upkeep.
//
// Threads: the generator (which also collects results), the writer and the
// service's two workers.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "datagen/queries.h"
#include "sim/query_service.h"
#include "sim/soi.h"
#include "sparql/normalize.h"
#include "sparql/parser.h"
#include "util/rng.h"

namespace perfbench {
namespace {

using sparqlsim::graph::GraphDatabase;
using sparqlsim::graph::Triple;
using sparqlsim::sim::PruneReport;
using sparqlsim::sim::QueryService;

// Fixed serving parameters. The nominal rate is where latency is reported;
// the ladder climbs from it to find the highest rate whose tail latency
// stays within kTailLimitMs with no growing backlog.
constexpr double kNominalRate = 50;  // requests/s
constexpr double kLadderRates[] = {100, 150, 225, 340, 500, 750, 1100, 1700};
constexpr double kTailLimitMs = 150;
// The mix's latency classes, fastest first: the small queries (about a
// third of requests), the hot query B1 (to about 88%), then B13/D0, B2 (to
// about 96%) and the four slowest queries. p50 falls inside B1's class and
// p95 inside B2's rather than on an edge between classes; p95 leaves about
// 22 samples beyond it in the nominal phase and 12 on a ladder rung.
// Publishes are two inserts to one delete, so p50 and p75 both fall inside
// the inserts' class; at 4 per second p75 leaves about 16 beyond it.
constexpr double kTailPercentile = 95;
constexpr double kPublishTailPercentile = 75;
constexpr double kPublishRate = 4;  // publishes/s
constexpr size_t kWorkers = 2;
constexpr size_t kCacheCapacity = 32;
// Query popularity: Zipf with s = 2 over B1 (the hot query, a large 2-chain
// whose cached answer still costs a full extraction) followed by the rest
// of B0-B19, D0-D5 in order. The hot query takes just over half of all
// requests, so the median request sits inside its latency class rather
// than on a boundary between classes.
constexpr const char* kHotQuery = "B1";
constexpr double kZipfSkew = 2.0;
constexpr size_t kDeckSize = 100;  // before the one-copy minimum per query
constexpr size_t kDeltaTriples = 8;  // per delta predicate and publish
constexpr const char* kDeltaPredicates[] = {"spouse", "genre"};
constexpr const char* kStandingQueries[] = {"B8", "B14"};

struct Query {
  std::string id;
  std::string text;
  sparqlsim::sparql::Query parsed;
};

/// A finished request, as the gate needs it.
struct Served {
  size_t query = 0;
  uint64_t generation = 0;
  uint64_t digest = 0;
};

struct Phase {
  std::vector<double> latency_ms;
  std::vector<double> late_ms;
  std::vector<double> queue_wait_ms;
  std::vector<double> run_ms;
  std::map<size_t, std::vector<double>> per_query_ms;
  Clock::time_point start;
  Clock::time_point end;  // last completion
  uint64_t attempted = 0;
  uint64_t failed = 0;
  size_t backlog_at_end = 0;  // requests outstanding when the schedule ended
  // Per-layer sums (traced phase).
  double parse_ms = 0, unf_ms = 0, build_ms = 0, branches = 0,
         inequalities = 0, solve_ms = 0, rounds = 0, evaluations = 0,
         updates = 0, delta_evals = 0, compressed_ops = 0, scratch_allocs = 0,
         kept = 0;
  double Seconds() const {
    return std::chrono::duration<double>(end - start).count();
  }
};

struct PublishSample {
  Clock::time_point start;
  double latency_ms = 0;
  double with_delta_ms = 0;
  bool insert = false;
};

class ServeBench {
 public:
  explicit ServeBench(const Args& args)
      : args_(args), rng_(DeriveSeed(args.seed, 4)) {}
  ~ServeBench() { StopWriter(); }

  RunResult Run();

 private:
  void Setup();
  /// Runs the schedule at `rate` for `seconds`, then waits for every
  /// request of the phase to finish. With `whole_decks` the phase starts a
  /// fresh deck and issues whole decks only, so its mix is exact.
  Phase RunPhase(double rate, double seconds, bool traced, bool whole_decks);
  void StartWriter();
  void StopWriter();
  void WriterLoop();
  void TakeStandingReports();
  /// Checks every served report against an oracle solve on the snapshot
  /// it pinned; a mismatch fails the run.
  void CheckServed(RunResult* result);

  const Args& args_;
  sparqlsim::util::Rng rng_;
  std::optional<GraphDatabase> db_;
  std::vector<Query> queries_;
  /// The request mix: query indices in Zipf proportions, reshuffled
  /// (seeded) each time it is used up, so every deck has the same
  /// composition and only the order varies with the seed.
  std::vector<size_t> deck_;
  size_t deck_pos_ = 0;
  // Queue-wait probe: worker-side timestamps of QueryService's solve hook.
  std::mutex hook_mutex_;
  std::vector<Clock::time_point> hook_times_;

  // Declared after everything its workers and hook touch.
  std::unique_ptr<QueryService> service_;
  std::vector<std::shared_ptr<QueryService::Subscription>> subscriptions_;
  std::vector<size_t> standing_query_;  // query index per subscription

  // Delta material: per delta predicate, its id and observed endpoints.
  struct DeltaPool {
    uint32_t predicate = 0;
    std::vector<uint32_t> subjects;
    std::vector<uint32_t> objects;
    std::vector<Triple> originals;
  };
  std::vector<DeltaPool> delta_pools_;

  // Version ledger (generation -> snapshot) and served results.
  std::mutex ledger_mutex_;
  std::map<uint64_t, std::shared_ptr<const GraphDatabase>> ledger_;
  std::vector<Served> served_;  // generator thread only
  std::vector<Served> standing_served_;  // guarded by ledger_mutex_

  // Writer.
  std::thread writer_;
  std::atomic<bool> stop_writer_{false};
  std::atomic<bool> trace_writer_{false};
  std::mutex publish_mutex_;
  std::vector<PublishSample> publishes_;  // guarded by publish_mutex_

  SpanRecorder recorder_;
  std::atomic<uint64_t> next_op_{0};
};

void ServeBench::Setup() {
  queries_.clear();
  deck_.clear();
  delta_pools_.clear();
  ledger_.clear();
  served_.clear();
  standing_served_.clear();
  {
    std::lock_guard<std::mutex> lock(hook_mutex_);
    hook_times_.clear();
  }
  const auto& bench = sparqlsim::datagen::BenchmarkQueries();
  const auto& dbpedia = sparqlsim::datagen::DbpediaQueries();
  for (const auto& set : {bench, dbpedia}) {
    for (const auto& q : set) {
      auto parsed = sparqlsim::sparql::Parser::Parse(q.text);
      if (!parsed.ok()) {
        throw std::runtime_error(q.id + ": " + parsed.error_message());
      }
      queries_.push_back({q.id, q.text, std::move(parsed).value()});
    }
  }
  auto hot = std::find_if(queries_.begin(), queries_.end(),
                          [](const Query& q) { return q.id == kHotQuery; });
  if (hot == queries_.end()) {
    throw std::runtime_error(std::string("no query ") + kHotQuery);
  }
  std::rotate(queries_.begin(), hot, hot + 1);
  double weight_sum = 0;
  for (size_t r = 0; r < queries_.size(); ++r) {
    weight_sum += std::pow(static_cast<double>(r + 1), -kZipfSkew);
  }
  for (size_t r = 0; r < queries_.size(); ++r) {
    const double share =
        std::pow(static_cast<double>(r + 1), -kZipfSkew) / weight_sum;
    const size_t copies = std::max<size_t>(
        1, static_cast<size_t>(std::lround(share * kDeckSize)));
    deck_.insert(deck_.end(), copies, r);
  }
  deck_pos_ = deck_.size();

  for (const char* name : kDeltaPredicates) {
    auto id = db_->predicates().Lookup(name);
    if (!id) throw std::runtime_error(std::string("no predicate ") + name);
    DeltaPool pool;
    pool.predicate = *id;
    std::set<uint32_t> subjects, objects;
    db_->ForEachTriple(*id, [&](uint32_t s, uint32_t o) {
      subjects.insert(s);
      objects.insert(o);
      pool.originals.push_back({s, *id, o});
    });
    pool.subjects.assign(subjects.begin(), subjects.end());
    pool.objects.assign(objects.begin(), objects.end());
    delta_pools_.push_back(std::move(pool));
  }

  sparqlsim::sim::QueryServiceOptions options;
  options.num_workers = kWorkers;
  options.cache_capacity = kCacheCapacity;
  options.solve_hook = [this] {
    const Clock::time_point now = Clock::now();
    std::lock_guard<std::mutex> lock(hook_mutex_);
    hook_times_.push_back(now);
  };
  service_ = std::make_unique<QueryService>(&*db_, options);
  ledger_.emplace(service_->CurrentGeneration(), service_->CurrentSnapshot());
  for (const char* id : kStandingQueries) {
    for (size_t i = 0; i < queries_.size(); ++i) {
      if (queries_[i].id != id) continue;
      subscriptions_.push_back(service_->Subscribe(queries_[i].parsed));
      standing_query_.push_back(i);
    }
  }
  TakeStandingReports();

  // Warm-up: every query once, one at a time (so the service's lifetime
  // in-flight peak reflects the measured load), so each has met the cache
  // and the scratch pool before timing starts.
  for (size_t i = 0; i < queries_.size(); ++i) {
    const PruneReport report = service_->Submit(queries_[i].parsed).get();
    served_.push_back({i, report.snapshot_generation, ReportDigest(report)});
  }
}

void ServeBench::TakeStandingReports() {
  for (size_t i = 0; i < subscriptions_.size(); ++i) {
    for (const PruneReport& r : subscriptions_[i]->TakeReports()) {
      std::lock_guard<std::mutex> lock(ledger_mutex_);
      standing_served_.push_back(
          {standing_query_[i], r.snapshot_generation, ReportDigest(r)});
    }
  }
}

void ServeBench::WriterLoop() {
  // The writer owns its own seeded stream, so the delta sequence does not
  // depend on how many requests the generator drew.
  sparqlsim::util::Rng rng(DeriveSeed(args_.seed, 5));
  std::vector<Triple> inserted;  // since the last delete
  const auto interval = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(1.0 / kPublishRate));
  Clock::time_point due = Clock::now() + interval;
  for (size_t round = 0; !stop_writer_.load(); ++round) {
    std::this_thread::sleep_until(due);
    if (stop_writer_.load()) break;
    due += interval;
    // Two inserts, then one delete retracting both plus a few original
    // triples: two thirds of the publishes are of one kind, so the median
    // and the tail each fall inside one kind's latency class.
    std::vector<Triple> delta;
    const bool insert = round % 3 != 2;
    if (insert) {
      for (const DeltaPool& pool : delta_pools_) {
        for (size_t i = 0; i < kDeltaTriples; ++i) {
          delta.push_back(
              {pool.subjects[rng.NextBounded(pool.subjects.size())],
               pool.predicate,
               pool.objects[rng.NextBounded(pool.objects.size())]});
        }
      }
      inserted.insert(inserted.end(), delta.begin(), delta.end());
    } else {
      delta.swap(inserted);
      for (const DeltaPool& pool : delta_pools_) {
        for (size_t i = 0; i < kDeltaTriples / 2; ++i) {
          delta.push_back(
              pool.originals[rng.NextBounded(pool.originals.size())]);
        }
      }
    }
    const bool traced = trace_writer_.load();
    const uint64_t op = next_op_++;
    PublishSample sample;
    sample.start = Clock::now();
    sample.insert = insert;
    if (traced) {
      // Replays the version build the service performs, so its cost is
      // visible on its own.
      std::shared_ptr<const GraphDatabase> current =
          service_->CurrentSnapshot();
      const Clock::time_point t = Clock::now();
      GraphDatabase next = insert ? current->WithTriplesAdded(delta)
                                  : current->WithTriplesRemoved(delta);
      sample.with_delta_ms = MsBetween(t, Clock::now());
      recorder_.Add("graph.graph_database.with_delta", op, -1, 2, t,
                    Clock::now());
    }
    const Clock::time_point t0 = Clock::now();
    if (insert) {
      service_->IngestTriples(delta);
    } else {
      service_->DeleteTriples(delta);
    }
    const Clock::time_point t1 = Clock::now();
    sample.latency_ms = MsBetween(t0, t1);
    recorder_.Add("sim.query_service.publish", op, -1, 2, t0, t1);
    {
      std::lock_guard<std::mutex> lock(ledger_mutex_);
      ledger_.emplace(service_->CurrentGeneration(),
                      service_->CurrentSnapshot());
    }
    TakeStandingReports();
    std::lock_guard<std::mutex> lock(publish_mutex_);
    publishes_.push_back(sample);
  }
}

void ServeBench::StartWriter() {
  stop_writer_.store(false);
  writer_ = std::thread([this] { WriterLoop(); });
}

void ServeBench::StopWriter() {
  stop_writer_.store(true);
  if (writer_.joinable()) writer_.join();
}

Phase ServeBench::RunPhase(double rate, double seconds, bool traced,
                           bool whole_decks) {
  namespace sparql = sparqlsim::sparql;
  struct Pending {
    size_t query;
    uint64_t op;
    Clock::time_point due, submitted, submit_end;
    std::optional<size_t> exec_index;  // position among non-coalesced
    std::future<PruneReport> future;
  };
  Phase phase;
  size_t hook_base = 0;
  {
    std::lock_guard<std::mutex> lock(hook_mutex_);
    hook_base = hook_times_.size();
  }
  size_t executed_in_phase = 0;
  size_t total = static_cast<size_t>(rate * seconds);
  if (whole_decks) {
    total = std::max<size_t>(1, total / deck_.size()) * deck_.size();
    deck_pos_ = deck_.size();
  }
  const auto gap = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(1.0 / rate));
  std::vector<Pending> pending;
  phase.start = Clock::now();
  auto due_at = [&](size_t i) {
    return phase.start + gap * static_cast<int64_t>(i);
  };
  size_t issued = 0;
  while (issued < total || !pending.empty()) {
    Clock::time_point now = Clock::now();
    const Clock::time_point due = due_at(issued);
    if (issued < total && now >= due) {
      if (deck_pos_ == deck_.size()) {
        for (size_t i = deck_.size(); i > 1; --i) {
          std::swap(deck_[i - 1], deck_[rng_.NextBounded(i)]);
        }
        deck_pos_ = 0;
      }
      const size_t qi = deck_[deck_pos_++];
      const Query& q = queries_[qi];
      Pending p;
      p.query = qi;
      p.op = next_op_++;
      p.due = due;
      p.submitted = now;
      auto parsed = sparql::Parser::Parse(q.text);
      const Clock::time_point parsed_at = Clock::now();
      phase.parse_ms += MsBetween(now, parsed_at);
      if (!parsed.ok()) {
        ++phase.failed;
        ++phase.attempted;
        ++issued;
        continue;
      }
      size_t coalesced_before = 0;
      if (traced) coalesced_before = service_->stats().coalesced;
      p.future = service_->Submit(parsed.value());
      p.submit_end = Clock::now();
      if (traced && service_->stats().coalesced == coalesced_before) {
        p.exec_index = executed_in_phase++;
      }
      phase.late_ms.push_back(MsBetween(due, now));
      if (traced) {
        // Replays the stages the service runs before solving, against the
        // snapshot new admissions see; a root span of its own, since it
        // overlaps the request's queueing in time.
        const Clock::time_point r0 = Clock::now();
        auto branches = sparql::UnionNormalForm(*parsed.value().where);
        const Clock::time_point r1 = Clock::now();
        std::shared_ptr<const GraphDatabase> snapshot =
            service_->CurrentSnapshot();
        for (const auto& branch : branches) {
          sparqlsim::sim::Soi soi =
              sparqlsim::sim::BuildSoiFromPattern(*branch, *snapshot);
          phase.inequalities += static_cast<double>(soi.matrix_ineqs.size() +
                                                    soi.sub_ineqs.size());
        }
        const Clock::time_point r2 = Clock::now();
        phase.unf_ms += MsBetween(r0, r1);
        phase.build_ms += MsBetween(r1, r2);
        phase.branches += static_cast<double>(branches.size());
        const int64_t replay =
            recorder_.Add("bench.replay", p.op, -1, 0, r0, r2);
        recorder_.Add("sparql.normalize.unf", p.op, replay, 0, r0, r1);
        recorder_.Add("sim.soi_builder.build", p.op, replay, 0, r1, r2);
      }
      pending.push_back(std::move(p));
      ++issued;
      continue;
    }
    // Collect: stamp every finished request first, then digest them.
    std::vector<std::pair<Pending, Clock::time_point>> done;
    for (size_t i = 0; i < pending.size();) {
      if (pending[i].future.wait_for(std::chrono::seconds(0)) ==
          std::future_status::ready) {
        done.emplace_back(std::move(pending[i]), now);
        pending[i] = std::move(pending.back());
        pending.pop_back();
      } else {
        ++i;
      }
    }
    if (issued == total && phase.backlog_at_end == 0 && !pending.empty() &&
        now >= due_at(total)) {
      phase.backlog_at_end = pending.size();
    }
    for (auto& [p, finished] : done) {
      PruneReport report = p.future.get();
      ++phase.attempted;
      if (report.truncated) ++phase.failed;
      phase.latency_ms.push_back(MsBetween(p.due, finished));
      phase.run_ms.push_back(report.total_seconds * 1e3);
      phase.per_query_ms[p.query].push_back(MsBetween(p.due, finished));
      phase.end = std::max(phase.end, finished);
      const sparqlsim::sim::SolveStats& st = report.stats;
      phase.solve_ms += st.solve_seconds * 1e3;
      phase.rounds += static_cast<double>(st.rounds);
      phase.evaluations += static_cast<double>(st.evaluations);
      phase.updates += static_cast<double>(st.updates);
      phase.delta_evals += static_cast<double>(st.delta_evals);
      phase.compressed_ops += static_cast<double>(st.compressed_ops);
      phase.scratch_allocs += static_cast<double>(st.scratch_allocs);
      phase.kept += static_cast<double>(report.kept_triples.size());
      std::optional<Clock::time_point> hook;
      if (p.exec_index) {
        std::lock_guard<std::mutex> lock(hook_mutex_);
        const size_t at = hook_base + *p.exec_index;
        if (at < hook_times_.size()) hook = hook_times_[at];
      }
      if (hook) phase.queue_wait_ms.push_back(MsBetween(p.submit_end, *hook));
      if (traced) {
        const int64_t root =
            recorder_.Add("request", p.op, -1, 0, p.due, finished);
        recorder_.Add("bench.generator.late", p.op, root, 0, p.due,
                      p.submitted);
        recorder_.Add("sim.query_service.submit", p.op, root, 0, p.submitted,
                      p.submit_end);
        if (hook) {
          recorder_.Add("sim.query_service.queue_wait", p.op, root, 0,
                        p.submit_end, *hook);
          const auto run = std::chrono::duration_cast<Clock::duration>(
              std::chrono::duration<double>(report.total_seconds));
          recorder_.Add("sim.query_service.run", p.op, root, 1, *hook,
                        std::min(finished, *hook + run));
        }
      }
      served_.push_back(
          {p.query, report.snapshot_generation, ReportDigest(report)});
    }
    if (issued < total) {
      std::this_thread::sleep_until(
          std::min(due_at(issued),
                   Clock::now() + std::chrono::microseconds(200)));
    } else if (!pending.empty()) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }
  if (phase.end < phase.start) phase.end = Clock::now();
  return phase;
}

void ServeBench::CheckServed(RunResult* result) {
  // One oracle solve per (generation, query) actually served, spread over
  // nproc threads; the load has ended, so nothing else competes.
  std::vector<Served> all = served_;
  {
    std::lock_guard<std::mutex> lock(ledger_mutex_);
    all.insert(all.end(), standing_served_.begin(), standing_served_.end());
  }
  std::map<std::pair<uint64_t, size_t>, uint64_t> reference;
  for (const Served& s : all) reference.emplace(std::make_pair(s.generation, s.query), 0);
  std::vector<std::pair<uint64_t, size_t>> keys;
  for (const auto& [key, digest] : reference) keys.push_back(key);
  std::vector<uint64_t> digests(keys.size(), 0);
  std::vector<char> known(keys.size(), 0);
  std::atomic<size_t> next{0};
  auto work = [&] {
    for (size_t i = next++; i < keys.size(); i = next++) {
      auto snapshot = ledger_.find(keys[i].first);
      if (snapshot == ledger_.end()) continue;
      sparqlsim::sim::SimEngine oracle(snapshot->second.get(),
                                       OracleOptions());
      digests[i] = ReportDigest(oracle.Prune(queries_[keys[i].second].parsed));
      known[i] = 1;
    }
  };
  const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
  std::vector<std::thread> threads;
  for (unsigned t = 1; t < nproc; ++t) threads.emplace_back(work);
  work();
  for (std::thread& t : threads) t.join();
  for (size_t i = 0; i < keys.size(); ++i) reference[keys[i]] = digests[i];
  if (args_.corrupt_digest && !keys.empty()) reference[keys.front()] ^= 1;

  for (size_t i = 0; i < keys.size(); ++i) {
    if (!known[i]) {
      result->Mismatch("report pinned unknown generation " +
                       std::to_string(keys[i].first));
    }
  }
  for (const Served& s : all) {
    if (reference[{s.generation, s.query}] != s.digest) {
      result->Mismatch(queries_[s.query].id + " at generation " +
                       std::to_string(s.generation) +
                       " differs from the oracle on its pinned snapshot");
      break;
    }
  }
  result->Note("oracle_checks", static_cast<double>(all.size()));
  result->Note("oracle_solves", static_cast<double>(keys.size()));
}

RunResult ServeBench::Run() {
  RunResult result;
  InitMetrics(&result);

  // Set-up (data, service, standing queries, warm-up) three times over;
  // the median counts.
  std::vector<double> setup_reps;
  for (int rep = 0; rep < 3; ++rep) {
    subscriptions_.clear();
    standing_query_.clear();
    service_.reset();
    db_.reset();
    const Clock::time_point t = Clock::now();
    db_.emplace(MakeDbpedia(args_));
    Setup();
    setup_reps.push_back(
        std::chrono::duration<double>(Clock::now() - t).count());
  }
  result.datasets.push_back(
      Describe(args_.tiny ? "dbpedia-1" : "dbpedia-4", *db_));
  const double setup_s = Median(setup_reps);

  StartWriter();
  const double main_s = args_.seconds / 2;
  Phase nominal = RunPhase(kNominalRate, main_s, /*traced=*/false,
                           /*whole_decks=*/true);
  const double nominal_qps =
      nominal.Seconds() > 0
          ? static_cast<double>(nominal.latency_ms.size()) / nominal.Seconds()
          : 0.0;
  result.attempted += nominal.attempted;
  result.failed += nominal.failed;

  Metrics& e2e = result.end_to_end;
  Metrics& layer = result.per_layer;
  if (!args_.trace) {
    // Ladder: climb until a rung misses the tail limit or ends with more
    // outstanding requests than the limit lets it clear. The sustained
    // rate is interpolated on tail latency between the last rung that met
    // the limit and the first that missed, so it moves smoothly instead of
    // jumping a whole rung. The nominal phase is the first rung; an
    // implicit rung at rate 0 with no latency anchors the interpolation
    // below it. Every rung issues the same number of requests (250 at 20
    // seconds), so each tail has the same number of samples beyond it.
    const double rung_requests = 12.5 * args_.seconds;
    double sustained = 0, passed_tail = 0;
    std::string ladder;
    for (size_t r = 0; r <= std::size(kLadderRates); ++r) {
      Phase rung;
      double rate = kNominalRate;
      if (r > 0) {
        rate = kLadderRates[r - 1];
        rung = RunPhase(rate, rung_requests / rate, /*traced=*/false,
                        /*whole_decks=*/false);
        result.attempted += rung.attempted;
        result.failed += rung.failed;
      }
      const Phase& measured = r > 0 ? rung : nominal;
      const double tail = Summarize(measured.latency_ms, kTailPercentile).tail;
      const bool backlog = static_cast<double>(measured.backlog_at_end) >
                           std::max(2.0, rate * kTailLimitMs / 1e3);
      const bool ok =
          tail <= kTailLimitMs && !backlog && measured.failed == 0;
      char buf[96];
      std::snprintf(buf, sizeof(buf), "%s%g:%.1fms/%zu%s",
                    ladder.empty() ? "" : " ", rate, tail,
                    measured.backlog_at_end, ok ? "" : "(miss)");
      ladder += buf;
      if (ok) {
        sustained = rate;
        passed_tail = tail;
        continue;
      }
      // A rung missed on backlog alone counts as sitting at the limit.
      const double missed_tail = std::max(tail, kTailLimitMs);
      const double frac =
          missed_tail > passed_tail
              ? (kTailLimitMs - passed_tail) / (missed_tail - passed_tail)
              : 0.0;
      sustained += (rate - sustained) * std::clamp(frac, 0.0, 1.0);
      break;
    }
    // Recorded, not gated: with in-flight coalescing and a hot query, tail
    // latency grows too slowly with the offered rate for the crossing to
    // be steady from run to run (see perfbench/README.md).
    result.Note("sustained_qps", sustained);
    result.Note("ladder_tail_ms_backlog", ladder);
  }
  StopWriter();

  const Summary lat = Summarize(nominal.latency_ms, kTailPercentile);
  std::vector<double> publish_ms, with_delta_ms;
  {
    std::lock_guard<std::mutex> lock(publish_mutex_);
    // Every publish of the untraced run (nominal phase and ladder): the
    // writer keeps its fixed rate throughout.
    std::vector<double> inserts, deletes;
    for (const PublishSample& p : publishes_) {
      publish_ms.push_back(p.latency_ms);
      (p.insert ? inserts : deletes).push_back(p.latency_ms);
    }
    result.Note("publish_insert_p50_ms", Median(inserts));
    result.Note("publish_delete_p50_ms", Median(deletes));
  }
  const Summary pub = Summarize(publish_ms, kPublishTailPercentile);
  e2e.Set("setup_s", setup_s, "s");
  e2e.Set("throughput_qps", nominal_qps, "ops/s");
  e2e.Set("latency_p50_ms", lat.p50, "ms");
  e2e.Set("latency_tail_ms", lat.tail, "ms");
  e2e.Set("ops_ok_frac",
          nominal.attempted > 0
              ? static_cast<double>(nominal.attempted - nominal.failed) /
                    static_cast<double>(nominal.attempted)
              : 0.0,
          "ratio");
  e2e.Set("publish_p50_ms", pub.p50, "ms");
  e2e.Set("publish_tail_ms", pub.tail, "ms");
  result.Note("offered_rate_qps", kNominalRate);
  for (const auto& [qi, ms] : nominal.per_query_ms) {
    result.Note("query." + queries_[qi].id + ".p50_ms", Median(ms));
  }
  result.Note("tail_limit_ms", kTailLimitMs);
  result.Note("publish_rate_per_s", kPublishRate);
  result.Note("latency_tail_percentile", lat.tail_percentile);
  result.Note("latency_samples", static_cast<double>(lat.samples));
  result.Note("latency_beyond_tail", static_cast<double>(lat.beyond_tail));
  result.Note("publish_tail_percentile", pub.tail_percentile);
  result.Note("publish_samples", static_cast<double>(pub.samples));
  result.Note("publish_beyond_tail", static_cast<double>(pub.beyond_tail));
  result.Note("ops_failed_frac",
              nominal.attempted > 0 ? static_cast<double>(nominal.failed) /
                                          static_cast<double>(nominal.attempted)
                                    : 0.0);

  if (args_.trace) {
    // Traced half: same rate, spans on, writer replaying its version builds.
    const QueryService::Stats traced_before = service_->stats();
    std::vector<sparqlsim::sim::StandingStats> standing_traced_before;
    for (const auto& s : subscriptions_) {
      standing_traced_before.push_back(s->stats());
    }
    size_t publishes_before = 0;
    {
      std::lock_guard<std::mutex> lock(publish_mutex_);
      publishes_before = publishes_.size();
    }
    recorder_.Enable();
    trace_writer_.store(true);
    StartWriter();
    Phase traced = RunPhase(kNominalRate, args_.seconds / 2, /*traced=*/true,
                            /*whole_decks=*/true);
    StopWriter();
    result.attempted += traced.attempted;
    result.failed += traced.failed;
    const QueryService::Stats after = service_->stats();
    const double n =
        std::max<double>(1.0, static_cast<double>(traced.latency_ms.size()));
    layer.Set("sparql.parser.parse_ms", traced.parse_ms / n, "ms");
    layer.Set("sparql.normalize.unf_ms", traced.unf_ms / n, "ms");
    layer.Set("sparql.normalize.branches", traced.branches / n, "count");
    layer.Set("sim.soi_builder.build_ms", traced.build_ms / n, "ms");
    layer.Set("sim.soi_builder.inequalities", traced.inequalities / n,
              "count");
    layer.Set("sim.solver.solve_ms", traced.solve_ms / n, "ms");
    layer.Set("sim.solver.rounds", traced.rounds / n, "count");
    layer.Set("sim.solver.evaluations", traced.evaluations / n, "count");
    layer.Set("sim.solver.useful_eval_ratio",
              traced.evaluations > 0 ? traced.updates / traced.evaluations
                                     : 0.0,
              "ratio");
    layer.Set("sim.solver.delta_eval_share",
              traced.evaluations > 0 ? traced.delta_evals / traced.evaluations
                                     : 0.0,
              "ratio");
    layer.Set("sim.solver.compressed_ops", traced.compressed_ops / n, "count");
    layer.Set("sim.solver.scratch_allocs", traced.scratch_allocs / n, "count");
    layer.Set("sim.sim_engine.prune_ms", Summarize(traced.run_ms).mean, "ms");
    layer.Set("sim.sim_engine.kept_triples", traced.kept / n, "count");

    auto ratio = [](double num, double den) {
      return den > 0 ? num / den : 0.0;
    };
    const auto& c0 = traced_before.cache;
    const auto& c1 = after.cache;
    layer.Set("sim.soi_cache.soi_hit_ratio",
              ratio(static_cast<double>(c1.soi_hits - c0.soi_hits),
                    static_cast<double>(c1.soi_hits - c0.soi_hits +
                                        c1.soi_misses - c0.soi_misses)),
              "ratio");
    layer.Set("sim.soi_cache.solution_hit_ratio",
              ratio(static_cast<double>(c1.solution_hits - c0.solution_hits),
                    static_cast<double>(c1.solution_hits - c0.solution_hits +
                                        c1.solution_misses -
                                        c0.solution_misses)),
              "ratio");
    layer.Set("sim.soi_cache.evictions",
              static_cast<double>(c1.soi_evictions - c0.soi_evictions),
              "count");
    layer.Set("sim.soi_cache.generation_evictions",
              static_cast<double>(c1.generation_evictions -
                                  c0.generation_evictions),
              "count");
    layer.Set("sim.query_service.queue_wait_ms",
              Summarize(traced.queue_wait_ms).p50, "ms");
    layer.Set("sim.query_service.run_ms", Summarize(traced.run_ms).p50, "ms");
    layer.Set("sim.query_service.coalesced_ratio",
              ratio(static_cast<double>(after.coalesced -
                                        traced_before.coalesced),
                    static_cast<double>(after.submitted -
                                        traced_before.submitted)),
              "ratio");
    layer.Set("sim.query_service.gate_blocked",
              static_cast<double>(after.gate.high.blocked -
                                  traced_before.gate.high.blocked),
              "count");
    layer.Set("sim.query_service.peak_in_flight",
              static_cast<double>(after.peak_in_flight), "count");
    layer.Set("sim.query_service.snapshots_live_peak",
              static_cast<double>(after.peak_snapshots_live), "count");

    double maintain_s = 0, maintained = 0, recomputed = 0, armed = 0,
           total_ineqs = 0;
    for (size_t i = 0; i < subscriptions_.size(); ++i) {
      const sparqlsim::sim::StandingStats s1 = subscriptions_[i]->stats();
      const sparqlsim::sim::StandingStats& s0 = standing_traced_before[i];
      maintain_s += s1.maintain_seconds - s0.maintain_seconds;
      maintained += static_cast<double>(s1.maintained - s0.maintained);
      recomputed += static_cast<double>(s1.recomputed - s0.recomputed);
      armed += static_cast<double>(s1.armed_ineqs - s0.armed_ineqs);
      total_ineqs += static_cast<double>(s1.total_ineqs - s0.total_ineqs);
    }
    std::vector<double> traced_publish_ms;
    {
      std::lock_guard<std::mutex> lock(publish_mutex_);
      for (size_t i = publishes_before; i < publishes_.size(); ++i) {
        with_delta_ms.push_back(publishes_[i].with_delta_ms);
        traced_publish_ms.push_back(publishes_[i].latency_ms);
      }
    }
    const double pubs =
        std::max<double>(1.0, static_cast<double>(traced_publish_ms.size()));
    layer.Set("sim.standing_query.maintain_ms", maintain_s * 1e3 / pubs, "ms");
    layer.Set("sim.standing_query.recompute_ratio",
              ratio(recomputed, maintained + recomputed), "ratio");
    layer.Set("sim.standing_query.armed_ratio", ratio(armed, total_ineqs),
              "ratio");
    layer.Set("graph.graph_database.with_delta_ms",
              Summarize(with_delta_ms).mean, "ms");
    layer.Set("bench.generator.late_ms", Summarize(traced.late_ms).tail, "ms");
    layer.Set("bench.tracing.untraced_qps", nominal_qps, "ops/s");
    layer.Set("bench.tracing.traced_qps",
              traced.Seconds() > 0
                  ? static_cast<double>(traced.latency_ms.size()) /
                        traced.Seconds()
                  : 0.0,
              "ops/s");
    result.table = SelfTimeTable(recorder_, traced.latency_ms.size());
    std::error_code ec;
    std::filesystem::create_directories(args_.out_dir + "/traces", ec);
    const std::string path = args_.out_dir + "/traces/" + args_.workload +
                             "-seed" + std::to_string(args_.seed) + ".json";
    if (recorder_.WriteChromeTrace(path)) result.Note("trace_file", path);
  }

  service_->Drain();
  CheckServed(&result);
  e2e.Set("peak_rss_mb", PeakRssMb(), "MiB");
  return result;
}

}  // namespace

RunResult RunServeWorkload(const Args& args) { return ServeBench(args).Run(); }

}  // namespace perfbench
