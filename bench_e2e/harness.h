// Shared pieces of the end-to-end benchmark: run configuration and frozen
// workload parameters, timing and sample statistics, peak-RSS accounting,
// the span tracer, and the result record every workload fills in.
//
// Every layer is timed from outside, at its public functions: the tracer
// records spans around calls into src/, never inside them.

#ifndef WIKIMATCH_BENCH_E2E_HARNESS_H_
#define WIKIMATCH_BENCH_E2E_HARNESS_H_

#include <sched.h>
#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

namespace wikimatch {
namespace benche2e {

using Clock = std::chrono::steady_clock;

inline double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}
inline double MsSince(Clock::time_point a) {
  return MsBetween(a, Clock::now());
}

/// \brief Frozen workload parameters. The full-size values are the ones
/// BENCHMARK.json's workloads are defined by (see README.md); --smoke swaps
/// in a miniature of every workload that finishes in seconds.
struct Params {
  double build_scale = 0.1;   ///< build_dumps: Paper(scale) dumps
  double base_scale = 1.0;    ///< apply_delta / serve_*: Paper(scale) base
  size_t build_min_ops = 5;
  size_t delta_min_ops = 8;
  /// Set-ups per run, whose median is setup_s. build_dumps' set-up takes
  /// about 0.15 s, and its median of 3 spread 41% over ten seeds.
  size_t setup_cycles_build = 9;
  size_t setup_cycles_delta = 3;
  size_t setup_cycles_serve = 5;
  /// Open-loop request rates, 5-10% of each workload's max_rps at the
  /// commit that defined the benchmark, so that p50 is the time to
  /// answer a request rather than the time it queued behind others. At
  /// 300 req/s (half of serve_tail's max_rps) most requests queued, and a
  /// host that slowed query evaluation by a third doubled p50. serve_hot's
  /// one-thread generator kept its lateness p99 near 0.3 ms at 25k req/s
  /// but at 0.5-0.6 ms, close to the 1 ms warning limit, at 120k req/s.
  double rate_hot = 25000.0;
  double rate_tail = 60.0;
  double zipf_exponent = 0.99;
  size_t hot_query_keys = 500;
  size_t tail_min_keys = 50000;
  /// Requests each connection keeps in flight in the closed loop, so
  /// max_rps measures serving capacity rather than one round trip. At 16,
  /// serve_hot's event loop sat idle a fifth of the time waiting for the
  /// generator, and its requests per CPU-second varied with how many
  /// requests each wake-up happened to find (16: ~330k, 64: ~410k, 256:
  /// ~400-470k req/s); at 256 it is busy throughout. serve_tail's requests
  /// take about 1.3 ms each, so 16 per connection already keep it busy.
  size_t closed_window_hot = 256;
  size_t closed_window_tail = 16;
  /// The open-loop generator stops sleeping this long before a request is
  /// due and polls instead (see README.md, "Generator lateness").
  double spin_ahead_us = 500.0;
  /// Interleaved open/closed segment pairs of a serve run.
  size_t segments = 12;
  /// serve_tail's reload window: an open loop of this length after the
  /// timed phases, with one reload at its middle.
  double reload_window_s = 2.0;
  size_t sample_keys = 200;
  /// Quality pin: pt:en weighted F1 of MatchPipeline on the generated
  /// Paper(build_scale) corpus, measured when the benchmark was defined;
  /// a run fails outside +/- f1_tolerance of it.
  double f1_reference = 0.805847;
  double f1_tolerance = 0.005;
  /// Floor for the pt:en F1 of the build_dumps output, which shifts with
  /// the page order the seed picks (the dictionary breaks ties by article
  /// order) and with the generator seed (0.655-0.915 over seeds 1-120).
  double f1_floor = 0.60;
  /// Generator lateness p99 past which a run carries a warning (see
  /// README.md, "Generator lateness").
  double late_warn_p99_ms = 1.0;
  /// Server event loops. One: with two, the kernel's EPOLLEXCLUSIVE
  /// accept wake-ups split the client's connections 2+2, 3+1 or 4+0
  /// differently from run to run, and each run's max_rps followed the
  /// split (146k-425k req/s on serve_hot).
  size_t net_threads = 1;

  static Params For(bool smoke);
};

/// \brief What one invocation was asked to do.
struct RunConfig {
  std::string workload;  ///< one workload, or "all"
  uint64_t seed = 1;
  double seconds = 20.0;  ///< length of each workload's timed phase
  bool smoke = false;
  bool trace = false;
  std::string trace_path;  ///< Chrome trace-event JSON (trace runs)
  std::string out_path;    ///< full result record (optional)
  std::string work_dir = ".bench_build/work";
  Params params;
};

/// \brief Nearest-rank quantile of `values` (q in [0, 1]); 0 when empty.
double Quantile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

/// \brief Returns freed heap to the kernel and resets the kernel's peak
/// RSS mark (VmHWM) to the current RSS, so the next PeakRssMb() reports
/// the peak of what ran in between. False when the reset is unsupported.
bool ResetPeakRss();
/// \brief VmHWM of this process, in MiB.
double PeakRssMb();

/// \brief Kernel thread ids of this process's threads.
std::set<pid_t> ThreadIds();

/// \brief Moves the measured threads to another CPU at each step (set-up
/// cycle, op, serve segment), so every allowed CPU takes its turn and the
/// per-step median rejects a CPU that is slow for a while. On the shared
/// virtual machine the benchmark was defined on, one vCPU ran the same
/// single-threaded set-up 1.45x slower than another for minutes at a time,
/// and a process that stayed on it reported a slow run.
///
/// Construction makes the global thread pool first, so its workers keep
/// every allowed CPU; destruction restores the calling thread's CPUs.
class CpuRotation {
 public:
  CpuRotation();
  ~CpuRotation();
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  /// \brief Pins the calling thread (and threads it creates afterwards)
  /// to CPU `step` mod n.
  void PinThisThread(size_t step);
  /// \brief Pins `server_threads` to CPU `step` mod n and the calling
  /// thread, which generates load, to the CPU half the set away.
  void PinServerAndClient(size_t step, const std::set<pid_t>& server_threads);
  /// \brief False with fewer than two allowed CPUs: nothing is pinned.
  bool active() const { return cpus_.size() >= 2; }

 private:
  std::vector<int> cpus_;
  cpu_set_t saved_;
};

/// \brief Size of a file in bytes (0 when missing).
uint64_t FileBytes(const std::string& path);

/// \brief In-memory span recorder. Spans nest on one thread (the benchmark
/// drives every layer from its main thread); a root span is one unit of
/// the workload: an op or a set-up cycle. A disabled tracer records
/// nothing and costs a branch.
class Tracer {
 public:
  struct SpanRecord {
    std::string name;
    int parent = -1;  ///< index of the enclosing span, -1 for a root
    int unit = -1;    ///< index of the root span this one belongs to
    double start_ms = 0.0;  ///< since tracer construction
    double end_ms = 0.0;
    double dur() const { return end_ms - start_ms; }
  };

  /// RAII span: opened on construction, closed on destruction or End().
  class Span {
   public:
    Span(Tracer* tracer, const char* name);
    ~Span() { End(); }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;
    void End();

   private:
    Tracer* tracer_;
    int index_ = -1;
  };

  explicit Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  bool enabled() const { return enabled_; }
  void set_enabled(bool enabled) { enabled_ = enabled; }

  /// \brief Adds `value` to counter `name` of the most recently opened
  /// unit (which may have closed already: counts read off a returned
  /// stats struct belong to the unit that produced it).
  void Count(const std::string& name, double value);

  /// \brief Medians over units (root spans) of: each span name's summed
  /// duration within the unit (the root's own name included), each
  /// counter, and "<root>.self_ms", the root's time not covered by a
  /// child span.
  std::map<std::string, double> UnitMedians() const;

  /// \brief Layer self-time table over all units whose root is named
  /// `root`: layer (span name up to the first '.') -> summed self time,
  /// plus the "unaccounted" root self time. Rows sum to the root total.
  std::vector<std::pair<std::string, double>> LayerTable(
      const std::string& root) const;

  /// \brief Writes every span as Chrome trace-event JSON.
  bool WriteChromeTrace(const std::string& path) const;

 private:
  int Open(const char* name);
  void Close(int index);

  bool enabled_;
  Clock::time_point origin_;
  std::vector<SpanRecord> spans_;
  std::vector<int> stack_;
  int last_unit_ = -1;
  std::map<int, std::map<std::string, double>> counters_;  // by unit
};

/// \brief One reported metric.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// \brief Everything one workload run produced.
struct WorkloadResult {
  std::string workload;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// Failed output checks, one line each; any entry makes the run incorrect.
  std::vector<std::string> check_failures;
  /// A caveat on the measurement (generator lateness); reported, but the
  /// outputs were checked and the run still counts.
  std::string warning;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  /// Rendered layer tables (trace runs).
  std::string layer_table;
  /// Extra facts for the result record (scale, rates, key counts...).
  std::vector<std::pair<std::string, std::string>> facts;

  bool correct() const { return check_failures.empty(); }
  void Fail(const std::string& what) { check_failures.push_back(what); }
};

/// \brief The end-to-end metric names and units, in report order
/// (BENCHMARK.json's end_to_end list).
const std::vector<Metric>& EndToEndMetrics();

/// \brief Fills result->end_to_end, in EndToEndMetrics() order.
void SetEndToEnd(double setup_s, double p50_ms, double max_rps,
                 double peak_rss_mb, double snapshot_mb,
                 WorkloadResult* result);
/// \brief The per-layer metric names and units (BENCHMARK.json's
/// per_layer list). Layers a workload does not exercise report 0.
const std::vector<Metric>& PerLayerMetrics();

/// \brief Fills result->per_layer in PerLayerMetrics() order from
/// `values`, defaulting absent names to 0.
void SetPerLayer(const std::map<std::string, double>& values,
                 WorkloadResult* result);

/// \brief Renders a layer table as text: layer, self ms, share of total.
std::string RenderLayerTable(
    const std::string& title,
    const std::vector<std::pair<std::string, double>>& rows);

/// \brief Tracing overhead: median of traced units against median of
/// untraced ones, in percent (0 when either side is empty).
double TraceOverheadPct(const std::vector<double>& traced_ms,
                        const std::vector<double>& untraced_ms);

/// \brief JSON string literal for `s`.
std::string JsonString(const std::string& s);
/// \brief A number with every significant digit.
std::string JsonNumber(double v);
/// \brief A JSON array of JsonNumber()s.
std::string JsonArray(const std::vector<double>& values);

}  // namespace benche2e
}  // namespace wikimatch

#endif  // WIKIMATCH_BENCH_E2E_HARNESS_H_
