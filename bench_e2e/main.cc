// bench_e2e: the WikiMatch end-to-end benchmark. One command runs one
// workload (or all four), checks its outputs, and prints every metric by
// name with its unit. The last line of standard output is the result:
//
//   {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Usage:
//   bench_e2e --workload <build_dumps|apply_delta|serve_hot|serve_tail|all>
//             --seed <n> [--seconds <s>] [--trace <file>] [--smoke]
//             [--out <json>] [--work-dir <dir>]
//
// Untraced runs report the end-to-end metrics; --trace runs record spans
// around every public call, report the per-layer metrics and a layer
// self-time table, and write the spans as Chrome trace-event JSON. The
// exit status is nonzero when an output check fails.
// See README.md.

#include <sys/utsname.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "harness.h"
#include "inputs.h"
#include "util/thread_pool.h"
#include "workloads.h"

namespace wikimatch {
namespace benche2e {
namespace {

const std::vector<std::string>& Workloads() {
  static const std::vector<std::string> kNames = {
      "build_dumps", "apply_delta", "serve_hot", "serve_tail"};
  return kNames;
}

void Usage() {
  std::fprintf(stderr,
               "usage: bench_e2e --workload <build_dumps|apply_delta|"
               "serve_hot|serve_tail|all> --seed <n> [--seconds <s>] "
               "[--trace <file>] [--smoke] [--out <json>] "
               "[--work-dir <dir>]\n");
}

bool ParseArgs(int argc, char** argv, RunConfig* config) {
  bool have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (arg == "--smoke") {
      config->smoke = true;
      continue;
    }
    if (arg != "--workload" && arg != "--seed" && arg != "--seconds" &&
        arg != "--trace" && arg != "--out" && arg != "--work-dir") {
      std::fprintf(stderr, "unknown argument %s\n", arg.c_str());
      return false;
    }
    if ((v = value()) == nullptr) {
      std::fprintf(stderr, "%s needs a value\n", arg.c_str());
      return false;
    }
    if (arg == "--workload") {
      config->workload = v;
    } else if (arg == "--seed") {
      char* end = nullptr;
      config->seed = std::strtoull(v, &end, 10);
      if (end == v || *end != '\0') return false;
    } else if (arg == "--seconds") {
      config->seconds = std::atof(v);
      have_seconds = true;
      if (!(config->seconds > 0.0)) return false;
    } else if (arg == "--trace") {
      config->trace = true;
      config->trace_path = v;
    } else if (arg == "--out") {
      config->out_path = v;
    } else {
      config->work_dir = v;
    }
  }
  if (config->smoke && !have_seconds) config->seconds = 1.0;
  config->params = Params::For(config->smoke);
  if (config->workload == "all") return true;
  for (const auto& name : Workloads()) {
    if (config->workload == name) return true;
  }
  std::fprintf(stderr, "unknown workload '%s'\n", config->workload.c_str());
  return false;
}

std::vector<std::pair<std::string, std::string>> Stamp(
    const RunConfig& config) {
  utsname un;
  std::string kernel = "unknown";
  if (::uname(&un) == 0) kernel = std::string(un.sysname) + " " + un.release;
  char host[256] = "unknown";
  ::gethostname(host, sizeof(host) - 1);
  const Params& p = config.params;
  return {
      {"host", JsonString(host)},
      {"nproc", std::to_string(::sysconf(_SC_NPROCESSORS_ONLN))},
      {"pool_threads", std::to_string(util::DefaultThreads())},
      {"compiler", JsonString(BENCH_E2E_COMPILER)},
      {"build_type", JsonString(BENCH_E2E_BUILD_TYPE)},
      {"git_rev", JsonString(BENCH_E2E_GIT_REV)},
      {"kernel", JsonString(kernel)},
      {"workload", JsonString(config.workload)},
      {"seed", std::to_string(config.seed)},
      {"seconds", JsonNumber(config.seconds)},
      {"smoke", config.smoke ? "true" : "false"},
      {"trace", config.trace ? "true" : "false"},
      {"build_scale", JsonNumber(p.build_scale)},
      {"base_scale", JsonNumber(p.base_scale)},
      {"R_hot", JsonNumber(p.rate_hot)},
      {"R_tail", JsonNumber(p.rate_tail)},
  };
}

std::string JsonObject(
    const std::vector<std::pair<std::string, std::string>>& fields) {
  std::string out = "{";
  for (size_t i = 0; i < fields.size(); ++i) {
    if (i > 0) out += ", ";
    out += JsonString(fields[i].first) + ": " + fields[i].second;
  }
  return out + "}";
}

std::string MetricsJson(const std::vector<Metric>& metrics,
                        const std::string& prefix) {
  std::vector<std::pair<std::string, std::string>> fields;
  for (const Metric& m : metrics) {
    fields.emplace_back(prefix + m.name,
                        "{\"value\": " + JsonNumber(m.value) +
                            ", \"unit\": " + JsonString(m.unit) + "}");
  }
  return JsonObject(fields);
}

std::string ResultRecord(const WorkloadResult& r, bool trace) {
  std::vector<std::pair<std::string, std::string>> fields = {
      {"workload", JsonString(r.workload)},
      {"correct", r.correct() ? "true" : "false"},
      {"attempted", std::to_string(r.attempted)},
      {"failed", std::to_string(r.failed)},
  };
  std::string failures = "[";
  for (size_t i = 0; i < r.check_failures.size(); ++i) {
    failures += (i > 0 ? ", " : "") + JsonString(r.check_failures[i]);
  }
  fields.emplace_back("check_failures", failures + "]");
  if (!r.warning.empty()) fields.emplace_back("warning", JsonString(r.warning));
  fields.emplace_back("metrics",
                      MetricsJson(trace ? r.per_layer : r.end_to_end, ""));
  fields.emplace_back("facts", JsonObject(r.facts));
  if (trace) fields.emplace_back("layer_table", JsonString(r.layer_table));
  return JsonObject(fields);
}

int Main(int argc, char** argv) {
  RunConfig config;
  if (!ParseArgs(argc, argv, &config)) {
    Usage();
    return 2;
  }
  if (std::strcmp(BENCH_E2E_BUILD_TYPE, "Release") != 0) {
    std::fprintf(stderr,
                 "bench_e2e: refusing to measure a '%s' build; configure "
                 "with -DCMAKE_BUILD_TYPE=Release\n",
                 BENCH_E2E_BUILD_TYPE);
    return 2;
  }
  const auto stamp = Stamp(config);
  std::fprintf(stderr, "stamp %s\n", JsonObject(stamp).c_str());

  std::vector<std::string> names;
  if (config.workload == "all") {
    names = Workloads();
  } else {
    names = {config.workload};
  }
  // The cached base is built in a child process, which must be forked
  // before this process starts its first thread.
  BaseInputs base;
  for (const auto& name : names) {
    if (name == "build_dumps") continue;
    auto ensured = EnsureBaseInputs(config);
    if (!ensured.ok()) {
      std::fprintf(stderr, "bench_e2e: %s\n",
                   ensured.status().ToString().c_str());
      return 1;
    }
    base = std::move(ensured).ValueOrDie();
    break;
  }

  std::vector<WorkloadResult> results;
  for (const auto& name : names) {
    RunConfig run = config;
    if (names.size() > 1 && !config.trace_path.empty()) {
      run.trace_path = config.trace_path + "." + name + ".json";
    }
    WorkloadResult result;
    result.workload = name;
    if (name == "build_dumps") {
      RunBuildDumps(run, &result);
    } else if (name == "apply_delta") {
      RunApplyDelta(run, base, &result);
    } else {
      RunServe(run, base, name == "serve_tail", &result);
    }
    if (result.end_to_end.empty()) result.end_to_end = EndToEndMetrics();
    if (run.trace && result.per_layer.empty()) SetPerLayer({}, &result);
    for (const auto& failure : result.check_failures) {
      std::fprintf(stderr, "%s: CHECK FAILED: %s\n", name.c_str(),
                   failure.c_str());
    }
    if (!result.warning.empty()) {
      std::fprintf(stderr, "%s: WARNING: %s\n", name.c_str(),
                   result.warning.c_str());
    }
    if (run.trace) std::fprintf(stderr, "%s", result.layer_table.c_str());
    for (const Metric& m : run.trace ? result.per_layer : result.end_to_end) {
      std::fprintf(stderr, "%s %-34s %18.6f %s\n", name.c_str(),
                   m.name.c_str(), m.value, m.unit.c_str());
    }
    results.push_back(std::move(result));
  }

  bool correct = true;
  uint64_t attempted = 0, failed = 0;
  std::vector<Metric> metrics;
  std::string records = "[";
  for (size_t i = 0; i < results.size(); ++i) {
    const WorkloadResult& r = results[i];
    correct = correct && r.correct();
    attempted += r.attempted;
    failed += r.failed;
    for (const Metric& m : config.trace ? r.per_layer : r.end_to_end) {
      metrics.push_back(
          {results.size() > 1 ? r.workload + "/" + m.name : m.name, m.value,
           m.unit});
    }
    records += (i > 0 ? ",\n" : "") + ResultRecord(r, config.trace);
  }
  records += "]";
  if (attempted == 0) {
    // Nothing ran: the set-up itself was the attempt, and it failed.
    attempted = 1;
    failed = std::max<uint64_t>(failed, 1);
    correct = false;
  }
  if (!config.out_path.empty()) {
    std::ofstream out(config.out_path);
    out << "{\"stamp\": " << JsonObject(stamp) << ",\n\"results\": " << records
        << "}\n";
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", config.out_path.c_str());
    }
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed),
              MetricsJson(metrics, "").c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace benche2e
}  // namespace wikimatch

int main(int argc, char** argv) {
  return wikimatch::benche2e::Main(argc, argv);
}
