#include "harness.h"

#include <malloc.h>
#include <sys/stat.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "util/thread_pool.h"

namespace wikimatch {
namespace benche2e {

Params Params::For(bool smoke) {
  Params p;
  if (smoke) {
    p.build_scale = 0.02;
    p.base_scale = 0.02;
    p.build_min_ops = 2;
    p.delta_min_ops = 2;
    p.setup_cycles_build = 2;
    p.setup_cycles_delta = 2;
    p.setup_cycles_serve = 2;
    p.rate_hot = 2000.0;
    p.rate_tail = 200.0;
    p.segments = 2;
    p.reload_window_s = 0.5;
    p.hot_query_keys = 100;
    p.tail_min_keys = 0;
    p.f1_reference = 0.756567;
    p.f1_floor = 0.50;
  }
  return p;
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  double rank = std::ceil(q * static_cast<double>(values.size()));
  size_t index = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

bool ResetPeakRss() {
  malloc_trim(0);
  std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (f == nullptr) return false;
  bool ok = std::fputs("5", f) >= 0;
  return std::fclose(f) == 0 && ok;
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.compare(0, 6, "VmHWM:") == 0) {
      return std::atof(line.c_str() + 6) / 1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

std::set<pid_t> ThreadIds() {
  std::set<pid_t> tids;
  std::error_code ec;
  for (const auto& entry :
       std::filesystem::directory_iterator("/proc/self/task", ec)) {
    tids.insert(static_cast<pid_t>(
        std::atol(entry.path().filename().string().c_str())));
  }
  return tids;
}

namespace {

bool PinThread(pid_t tid, int cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  return ::sched_setaffinity(tid, sizeof(set), &set) == 0;
}

}  // namespace

CpuRotation::CpuRotation() {
  util::ThreadPool::Global();
  CPU_ZERO(&saved_);
  if (::sched_getaffinity(0, sizeof(saved_), &saved_) != 0) return;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &saved_)) cpus_.push_back(cpu);
  }
}

CpuRotation::~CpuRotation() {
  if (active()) ::sched_setaffinity(0, sizeof(saved_), &saved_);
}

void CpuRotation::PinThisThread(size_t step) {
  if (active()) PinThread(0, cpus_[step % cpus_.size()]);
}

void CpuRotation::PinServerAndClient(size_t step,
                                     const std::set<pid_t>& server_threads) {
  if (!active()) return;
  const size_t n = cpus_.size();
  for (pid_t tid : server_threads) PinThread(tid, cpus_[step % n]);
  PinThread(0, cpus_[(step + n / 2) % n]);
}

uint64_t FileBytes(const std::string& path) {
  struct stat st;
  if (::stat(path.c_str(), &st) != 0) return 0;
  return static_cast<uint64_t>(st.st_size);
}

// ---- Tracer ---------------------------------------------------------------

Tracer::Span::Span(Tracer* tracer, const char* name) : tracer_(tracer) {
  if (tracer_ != nullptr && tracer_->enabled_) index_ = tracer_->Open(name);
}

void Tracer::Span::End() {
  if (index_ >= 0) tracer_->Close(index_);
  index_ = -1;
}

int Tracer::Open(const char* name) {
  SpanRecord record;
  record.name = name;
  record.parent = stack_.empty() ? -1 : stack_.back();
  int index = static_cast<int>(spans_.size());
  record.unit = record.parent < 0 ? index : spans_[record.parent].unit;
  if (record.parent < 0) last_unit_ = index;
  record.start_ms = MsSince(origin_);
  spans_.push_back(std::move(record));
  stack_.push_back(index);
  return index;
}

void Tracer::Close(int index) {
  spans_[index].end_ms = MsSince(origin_);
  // Spans close innermost-first (RAII); tolerate an early End() anyway.
  auto it = std::find(stack_.begin(), stack_.end(), index);
  if (it != stack_.end()) stack_.erase(it, stack_.end());
}

void Tracer::Count(const std::string& name, double value) {
  if (!enabled_ || last_unit_ < 0) return;
  counters_[last_unit_][name] += value;
}

std::map<std::string, double> Tracer::UnitMedians() const {
  std::map<int, std::map<std::string, double>> by_unit;
  std::map<int, double> child_ms;  // per span: summed direct-child time
  for (const SpanRecord& span : spans_) {
    by_unit[span.unit][span.name] += span.dur();
    if (span.parent >= 0) child_ms[span.parent] += span.dur();
  }
  std::map<std::string, std::vector<double>> samples;
  for (auto& [unit, sums] : by_unit) {
    const SpanRecord& root = spans_[unit];
    sums[root.name + ".self_ms"] = root.dur() - child_ms[unit];
    auto counters = counters_.find(unit);
    if (counters != counters_.end()) {
      for (const auto& [name, value] : counters->second) sums[name] = value;
    }
    for (const auto& [name, value] : sums) samples[name].push_back(value);
  }
  std::map<std::string, double> medians;
  for (auto& [name, values] : samples) {
    medians[name] = Median(std::move(values));
  }
  return medians;
}

std::vector<std::pair<std::string, double>> Tracer::LayerTable(
    const std::string& root) const {
  std::map<int, double> child_ms;
  for (const SpanRecord& span : spans_) {
    if (span.parent >= 0) child_ms[span.parent] += span.dur();
  }
  std::map<std::string, double> layers;
  double unaccounted = 0.0;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& span = spans_[i];
    if (spans_[span.unit].name != root) continue;
    double self = span.dur() - child_ms[static_cast<int>(i)];
    if (span.parent < 0) {
      unaccounted += self;
    } else {
      layers[span.name.substr(0, span.name.find('.'))] += self;
    }
  }
  std::vector<std::pair<std::string, double>> rows(layers.begin(),
                                                   layers.end());
  std::stable_sort(rows.begin(), rows.end(),
                   [](const auto& a, const auto& b) {
                     return a.second > b.second;
                   });
  rows.emplace_back("unaccounted", unaccounted);
  return rows;
}

bool Tracer::WriteChromeTrace(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& span = spans_[i];
    if (i > 0) out << ",\n";
    out << "{\"name\":" << JsonString(span.name) << ",\"cat\":"
        << JsonString(span.name.substr(0, span.name.find('.')))
        << ",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":"
        << JsonNumber(span.start_ms * 1000.0)
        << ",\"dur\":" << JsonNumber(span.dur() * 1000.0)
        << ",\"args\":{\"unit\":" << span.unit << ",\"parent\":"
        << span.parent << "}}";
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

// ---- Metric catalog -------------------------------------------------------

const std::vector<Metric>& EndToEndMetrics() {
  static const std::vector<Metric> kMetrics = {
      {"setup_s", 0.0, "s"},         {"p50_ms", 0.0, "ms"},
      {"max_rps", 0.0, "1/s"},       {"peak_rss_mb", 0.0, "MiB"},
      {"snapshot_mb", 0.0, "MiB"},
  };
  return kMetrics;
}

void SetEndToEnd(double setup_s, double p50_ms, double max_rps,
                 double peak_rss_mb, double snapshot_mb,
                 WorkloadResult* result) {
  const double values[] = {setup_s, p50_ms, max_rps, peak_rss_mb,
                           snapshot_mb};
  result->end_to_end = EndToEndMetrics();
  for (size_t i = 0; i < result->end_to_end.size(); ++i) {
    result->end_to_end[i].value = values[i];
  }
}

const std::vector<Metric>& PerLayerMetrics() {
  static const std::vector<Metric> kMetrics = [] {
    std::vector<Metric> m = {
        {"wiki.dump_read_ms", 0, "ms"},
        {"wiki.dump_mb", 0, "MiB"},
        {"wiki.ingest_ms", 0, "ms"},
        {"wiki.finalize_ms", 0, "ms"},
        {"wiki.pages", 0, "count"},
        {"match.dictionary_ms", 0, "ms"},
        {"match.pipeline_ms", 0, "ms"},
        {"match.type_match_cpu_ms", 0, "ms"},
        {"match.schema_cpu_ms", 0, "ms"},
        {"match.align_cpu_ms", 0, "ms"},
        {"match.postings_visited", 0, "count"},
        {"match.pairs_generated", 0, "count"},
        {"match.pairs_pruned", 0, "count"},
        {"sync.run_ms", 0, "ms"},
        {"sync.resync_ms", 0, "ms"},
        {"sync.cells", 0, "count"},
        {"store.write_ms", 0, "ms"},
        {"store.read_ms", 0, "ms"},
        {"store.bytes_written", 0, "bytes"},
        {"ingest.from_snapshot_ms", 0, "ms"},
        {"ingest.apply_ms", 0, "ms"},
        {"ingest.to_snapshot_ms", 0, "ms"},
        {"ingest.corpus_ms", 0, "ms"},
        {"ingest.dictionary_ms", 0, "ms"},
        {"ingest.align_ms", 0, "ms"},
        {"ingest.units_recomputed", 0, "count"},
        {"ingest.units_total", 0, "count"},
        {"serve.load_ms", 0, "ms"},
        {"serve.first_answer_ms", 0, "ms"},
    };
    for (const char* verb : {"attr", "alignments", "query", "sync",
                             "sync-status", "types", "pairs", "health"}) {
      m.push_back({std::string("serve.handle_us.") + verb + ".p50", 0, "us"});
      m.push_back({std::string("serve.handle_us.") + verb + ".p99", 0, "us"});
    }
    std::vector<Metric> rest = {
        {"serve.cache_hit_rate", 0, "ratio"},
        {"serve.cache_evictions", 0, "count"},
        {"serve.reload_ms", 0, "ms"},
        {"serve.reloads", 0, "count"},
        {"net.start_ms", 0, "ms"},
        {"net.loop_busy_share", 0, "ratio"},
        {"net.overhead_us.p50", 0, "us"},
        {"net.bytes_read_per_req", 0, "bytes"},
        {"net.bytes_written_per_req", 0, "bytes"},
        {"net.backpressure_pauses", 0, "count"},
        {"net.shed", 0, "count"},
        {"net.protocol_errors", 0, "count"},
        {"build.unaccounted_ms", 0, "ms"},
        {"delta.unaccounted_ms", 0, "ms"},
        {"setup.unaccounted_ms", 0, "ms"},
        {"trace.overhead_pct", 0, "%"},
        {"client.p99_ms", 0, "ms"},
        {"client.late_ms.p99", 0, "ms"},
        {"client.wall_rps", 0, "1/s"},
        {"client.reload_max_ms", 0, "ms"},
    };
    m.insert(m.end(), rest.begin(), rest.end());
    return m;
  }();
  return kMetrics;
}

void SetPerLayer(const std::map<std::string, double>& values,
                 WorkloadResult* result) {
  result->per_layer.clear();
  for (const Metric& m : PerLayerMetrics()) {
    auto it = values.find(m.name);
    result->per_layer.push_back(
        {m.name, it == values.end() ? 0.0 : it->second, m.unit});
  }
}

std::string RenderLayerTable(
    const std::string& title,
    const std::vector<std::pair<std::string, double>>& rows) {
  double total = 0.0;
  for (const auto& row : rows) total += row.second;
  std::ostringstream os;
  os << title << "\n";
  char line[160];
  std::snprintf(line, sizeof(line), "  %-14s %12s %8s\n", "layer", "self_ms",
                "share");
  os << line;
  for (const auto& [layer, ms] : rows) {
    std::snprintf(line, sizeof(line), "  %-14s %12.3f %7.2f%%\n",
                  layer.c_str(), ms, total > 0 ? 100.0 * ms / total : 0.0);
    os << line;
  }
  std::snprintf(line, sizeof(line), "  %-14s %12.3f %7.2f%%\n", "total", total,
                total > 0 ? 100.0 : 0.0);
  os << line;
  return os.str();
}

double TraceOverheadPct(const std::vector<double>& traced_ms,
                        const std::vector<double>& untraced_ms) {
  if (traced_ms.empty() || untraced_ms.empty()) return 0.0;
  double base = Median(untraced_ms);
  return base > 0 ? 100.0 * (Median(traced_ms) - base) / base : 0.0;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string JsonArray(const std::vector<double>& values) {
  std::string out = "[";
  for (size_t i = 0; i < values.size(); ++i) {
    out += (i > 0 ? ", " : "") + JsonNumber(values[i]);
  }
  return out + "]";
}

}  // namespace benche2e
}  // namespace wikimatch
