// Benchmark program for sparqlsim. One process runs one workload:
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                    [--tiny] [--corrupt-digest] [--out-dir <dir>]
//                    [--revision <rev>] [--source-digest <hex>]
//
// Workloads: prune-output, prune-fixpoint, prune-outofcore, serve-mixed
// (see perfbench/README.md). The last line of stdout is the result object
// {"correct", "attempted", "failed", "metrics"}: end-to-end metrics with
// --trace 0, per-layer metrics with --trace 1. A full record with the
// stamp (revision, nproc, seed, build type, dataset sizes) lands under
// <out-dir>/records/. Exit code 0 iff every output matched the oracle.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <string>
#include <thread>

#include "common.h"

namespace perfbench {
namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <prune-output|"
               "prune-fixpoint|prune-outofcore|serve-mixed> --seed <n> "
               "--seconds <s> --trace <0|1> [--tiny] [--corrupt-digest] "
               "[--out-dir <dir>] [--revision <rev>] "
               "[--source-digest <hex>]\n");
  return 2;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&](std::string* out) {
      if (i + 1 >= argc) return false;
      *out = argv[++i];
      return true;
    };
    std::string v;
    if (flag == "--tiny") {
      args->tiny = true;
    } else if (flag == "--corrupt-digest") {
      args->corrupt_digest = true;
    } else if (flag == "--workload") {
      if (!value(&args->workload)) return false;
    } else if (flag == "--out-dir") {
      if (!value(&args->out_dir)) return false;
    } else if (flag == "--revision") {
      if (!value(&args->revision)) return false;
    } else if (flag == "--source-digest") {
      if (!value(&args->source_digest)) return false;
    } else if (flag == "--seed") {
      if (!value(&v)) return false;
      args->seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      if (!value(&v)) return false;
      args->seconds = std::strtod(v.c_str(), nullptr);
    } else if (flag == "--trace") {
      if (!value(&v) || (v != "0" && v != "1")) return false;
      args->trace = v == "1";
    } else {
      return false;
    }
  }
  return !args->workload.empty() && args->seconds > 0;
}

void WriteRecord(const Args& args, const RunResult& r,
                 const std::string& path) {
  FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(out, "{\"workload\": \"%s\", \"seed\": %llu, \"trace\": %d,\n",
               args.workload.c_str(),
               static_cast<unsigned long long>(args.seed), args.trace ? 1 : 0);
  std::fprintf(out,
               " \"stamp\": {\"revision\": \"%s\", \"source_digest\": \"%s\", "
               "\"nproc\": %u, \"build_type\": \"%s\", \"seconds\": %g, "
               "\"scale\": \"%s\"},\n",
               args.revision.c_str(), args.source_digest.c_str(),
               std::thread::hardware_concurrency(), PERFBENCH_BUILD_TYPE,
               args.seconds, args.tiny ? "tiny" : "full");
  std::fprintf(out, " \"datasets\": [");
  for (size_t i = 0; i < r.datasets.size(); ++i) {
    const DatasetInfo& d = r.datasets[i];
    std::fprintf(out,
                 "%s{\"name\": \"%s\", \"triples\": %zu, \"nodes\": %zu, "
                 "\"predicates\": %zu}",
                 i == 0 ? "" : ", ", d.name.c_str(), d.triples, d.nodes,
                 d.predicates);
  }
  std::fprintf(out, "],\n \"notes\": {");
  for (size_t i = 0; i < r.notes.size(); ++i) {
    std::fprintf(out, "%s\"%s\": %s", i == 0 ? "" : ", ",
                 r.notes[i].first.c_str(), r.notes[i].second.c_str());
  }
  std::fprintf(out, "},\n \"correct\": %s, \"attempted\": %llu, "
               "\"failed\": %llu,\n",
               r.correct ? "true" : "false",
               static_cast<unsigned long long>(r.attempted),
               static_cast<unsigned long long>(r.failed));
  std::fprintf(out, " \"end_to_end\": %s,\n \"per_layer\": %s}\n",
               r.end_to_end.ToJson().c_str(), r.per_layer.ToJson().c_str());
  std::fclose(out);
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) return Usage();

  RunResult result;
  try {
    if (args.workload == "serve-mixed") {
      result = RunServeWorkload(args);
    } else if (args.workload == "prune-output" ||
               args.workload == "prune-fixpoint" ||
               args.workload == "prune-outofcore") {
      result = RunPruneWorkload(args);
    } else {
      return Usage();
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 3;
  }

  std::printf("# stamp: workload=%s revision=%s source=%s nproc=%u "
              "seed=%llu build=%s scale=%s\n",
              args.workload.c_str(), args.revision.c_str(),
              args.source_digest.c_str(),
              std::thread::hardware_concurrency(),
              static_cast<unsigned long long>(args.seed), PERFBENCH_BUILD_TYPE,
              args.tiny ? "tiny" : "full");
  for (const DatasetInfo& d : result.datasets) {
    std::printf("# dataset %s: %zu triples, %zu nodes, %zu predicates\n",
                d.name.c_str(), d.triples, d.nodes, d.predicates);
  }
  for (const auto& [key, value] : result.notes) {
    std::printf("# %s = %s\n", key.c_str(), value.c_str());
  }
  const Metrics& shown = args.trace ? result.per_layer : result.end_to_end;
  for (const Metrics::Entry& e : shown.entries()) {
    std::printf("%-40s %14.4f %s\n", e.name.c_str(), e.value, e.unit.c_str());
  }
  if (!result.table.empty()) {
    std::printf("# per-layer self time (%s, traced phase)\n%s",
                args.workload.c_str(), result.table.c_str());
  }
  if (!result.correct) {
    std::printf("# ORACLE MISMATCH: %s\n", result.failure.c_str());
  }

  std::error_code ec;
  std::filesystem::create_directories(args.out_dir + "/records", ec);
  WriteRecord(args, result,
              args.out_dir + "/records/" + args.workload + "-seed" +
                  std::to_string(args.seed) + "-trace" +
                  (args.trace ? "1" : "0") + ".json");

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              result.correct ? "true" : "false",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed),
              shown.ToJson().c_str());
  std::fflush(stdout);
  return result.correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
