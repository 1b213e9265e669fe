// serve_hot and serve_tail: `wikimatch serve --listen` in-process
// (MatchService behind a net::Server on loopback), loaded by one client
// thread.

#include <time.h>

#include <algorithm>
#include <numeric>

#include "loadgen.h"
#include "net/server.h"
#include "serve/match_service.h"
#include "util/rng.h"
#include "workloads.h"

namespace wikimatch {
namespace benche2e {
namespace {

constexpr double kMiB = 1024.0 * 1024.0;

std::string VerbOf(const std::string& key) {
  return key.substr(0, key.find(' '));
}

// Draws key indexes: Zipf (hot) or uniform (tail), from `seed`. The Zipf
// popularity order is one fixed permutation of the keys, not the seed's:
// response sizes span 17 bytes (attr) to 2 MB (sync of a large type), so a
// per-seed order made max_rps a property of which keys the seed ranked
// first (141k-410k req/s over eight seeds).
class KeyMix {
 public:
  KeyMix(size_t n, bool zipf, double exponent, uint64_t seed)
      : rng_(seed), zipf_(zipf), sampler_(zipf ? n : 1, exponent), order_(n) {
    std::iota(order_.begin(), order_.end(), 0u);
    util::Rng order_rng(kCorpusSeed);
    order_rng.Shuffle(&order_);
  }
  uint32_t Next() {
    return zipf_ ? order_[sampler_.Sample(&rng_)]
                 : static_cast<uint32_t>(rng_.NextBounded(order_.size()));
  }

 private:
  util::Rng rng_;
  bool zipf_;
  util::ZipfSampler sampler_;
  std::vector<uint32_t> order_;
};

bool IsOk(const std::string& response) {
  return response.compare(0, 3, "ok ") == 0;
}

double CpuSeconds(clockid_t clock) {
  timespec ts;
  ::clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

// CPU time of every thread of this process but the calling one, which is
// the load generator: while load runs, that is the server's event loop.
// The kernel's per-thread clocks leave out time the host hypervisor takes
// from a virtual CPU (paravirtual steal accounting), and time a thread
// spends waiting to be woken.
double ServerCpuSeconds() {
  return CpuSeconds(CLOCK_PROCESS_CPUTIME_ID) -
         CpuSeconds(CLOCK_THREAD_CPUTIME_ID);
}

}  // namespace

void RunServe(const RunConfig& config, const BaseInputs& inputs, bool tail,
              WorkloadResult* result) {
  const Params& p = config.params;
  auto loaded = ReadLines(tail ? inputs.tail_keys : inputs.hot_keys);
  if (!loaded.ok()) {
    result->Fail(loaded.status().ToString());
    return;
  }
  const std::vector<std::string> keys = std::move(loaded).ValueOrDie();
  const serve::ServiceOptions service_options;
  if (!tail && keys.size() >= service_options.cache_capacity) {
    result->Fail("hot keyspace (" + std::to_string(keys.size()) +
                 " keys) does not fit the result cache");
    return;
  }
  if (tail && keys.size() < p.tail_min_keys) {
    result->Fail("tail keyspace has only " + std::to_string(keys.size()) +
                 " keys");
    return;
  }
  result->facts.emplace_back("scale", JsonNumber(p.base_scale));
  result->facts.emplace_back("keys", std::to_string(keys.size()));
  const double rate = tail ? p.rate_tail : p.rate_hot;
  result->facts.emplace_back("rate", JsonNumber(rate));

  net::ServerOptions server_options;
  server_options.num_threads = p.net_threads;
  CpuRotation rotation;
  result->facts.emplace_back("pinned", rotation.active() ? "true" : "false");

  // Set-up, repeated cold: Load (mmap) + Server::Start + the first data
  // answer over TCP, which pays the deferred snapshot decode.
  Tracer tracer(config.trace);
  std::vector<double> setup_ms, traced_ms, untraced_ms;
  std::unique_ptr<serve::MatchService> service;
  std::unique_ptr<net::Server> server;
  std::set<pid_t> server_threads;  // the event loop(s) Start() spawned
  auto stop_server = [&]() {
    if (server != nullptr) {
      server->Shutdown();
      server->Wait();
    }
    server.reset();
    service.reset();
  };
  for (size_t c = 0; c < p.setup_cycles_serve; ++c) {
    stop_server();
    tracer.set_enabled(config.trace && c % 2 == 0);
    rotation.PinThisThread(config.trace ? c / 2 : c);
    auto start = Clock::now();
    Tracer::Span cycle(&tracer, "setup.cycle");
    util::Status status = util::Status::OK();
    {
      Tracer::Span span(&tracer, "serve.load");
      auto loaded_service =
          serve::MatchService::Load(inputs.base_snapshot, service_options);
      if (loaded_service.ok()) {
        service = std::move(loaded_service).ValueOrDie();
      } else {
        status = loaded_service.status();
      }
    }
    if (status.ok()) {
      Tracer::Span span(&tracer, "net.start");
      auto created = net::Server::Create(service.get(), server_options);
      if (created.ok()) {
        server = std::move(created).ValueOrDie();
        const std::set<pid_t> before = ThreadIds();
        status = server->Start();
        server_threads.clear();
        for (pid_t tid : ThreadIds()) {
          if (before.count(tid) == 0) server_threads.insert(tid);
        }
      } else {
        status = created.status();
      }
    }
    if (status.ok()) {
      Tracer::Span span(&tracer, "serve.first_answer");
      auto probe = SyncClient::Connect(server->port());
      if (probe.ok()) {
        auto answer = (*probe)->Request("types pt:en");
        if (!answer.ok()) {
          status = answer.status();
        } else if (!IsOk(*answer)) {
          status = util::Status::Internal("first answer: " + *answer);
        }
      } else {
        status = probe.status();
      }
    }
    cycle.End();
    const double ms = MsSince(start);
    if (!status.ok()) {
      result->Fail("set-up: " + status.ToString());
      stop_server();
      return;
    }
    setup_ms.push_back(ms);
    (tracer.enabled() ? traced_ms : untraced_ms).push_back(ms);
  }
  tracer.set_enabled(false);
  rotation.PinServerAndClient(0, server_threads);

  if (!tail) {
    // serve_hot measures the steady state of a warm cache: answer every
    // key once before the clock starts.
    auto warm = SyncClient::Connect(server->port());
    for (size_t i = 0; warm.ok() && i < keys.size(); ++i) {
      auto answer = (*warm)->Request(keys[i]);
      if (!answer.ok() || !IsOk(*answer)) {
        result->Fail("warm-up: '" + keys[i] + "' was not answered ok");
        break;
      }
    }
    if (!warm.ok()) result->Fail("warm-up: " + warm.status().ToString());
  }

  const serve::ServiceStats service_before = service->Stats();
  const net::ServerStats net_before = server->Stats();
  auto client = LoadClient::Connect(server->port(), tail ? 3 : 4, tail);
  if (!client.ok()) {
    result->Fail("connect: " + client.status().ToString());
    stop_server();
    return;
  }
  (*client)->set_spin_ahead_us(p.spin_ahead_us);
  // Open-loop requests come from one stream, closed-loop ones from
  // another, so the open-loop requests a seed sends do not depend on how
  // many the closed loop got through.
  KeyMix mix(keys.size(), !tail, p.zipf_exponent, config.seed ^ 0x6d6978ULL);
  KeyMix closed_mix(keys.size(), !tail, p.zipf_exponent,
                    config.seed ^ 0x636c6fULL);  // "clo"
  auto draw = [&mix](size_t n) {
    std::vector<uint32_t> requests(n);
    for (auto& k : requests) k = mix.Next();
    return requests;
  };
  ReloadPlan plan;
  plan.paths = {inputs.delta_snapshot, inputs.base_snapshot};
  ReloadPlan* reloads = tail ? &plan : nullptr;

  // One second of the same open loop first, not measured: the first
  // second's p99 ran 2-3x the steady state's (connection buffers and the
  // generator's own pages warming up). serve_tail also reloads once in it,
  // because the first reload of a process, which grows the heap to hold
  // two generations, ran up to 40% longer than the ones after it.
  const std::vector<uint32_t> warm_sequence = draw(static_cast<size_t>(rate));
  plan.Restart(Clock::now(), 1.0);
  PhaseStats warm = (*client)->RunOpenLoop(keys, warm_sequence, rate, reloads);
  const size_t warm_reloads = plan.done_ms.size();

  // The timed phases: open loop at the frozen rate for two thirds of the
  // run and closed loop for one third, cut into interleaved segments so
  // both sample the whole run. Each segment pair moves the event loop and
  // the load generator to another pair of CPUs (CpuRotation), and the
  // reported p50_ms and max_rps are medians over segments.
  const double open_s = config.seconds * 2.0 / 3.0;
  const double closed_s = config.seconds - open_s;
  const size_t per_segment =
      static_cast<size_t>(rate * open_s / static_cast<double>(p.segments));
  const size_t window = tail ? p.closed_window_tail : p.closed_window_hot;
  const std::vector<uint32_t> sequence = draw(per_segment * p.segments);
  bool rss_reset = ResetPeakRss();
  PhaseStats open, closed;
  std::vector<double> segment_p50_ms, segment_rps, segment_busy;
  for (size_t seg = 0; seg < p.segments; ++seg) {
    rotation.PinServerAndClient(seg, server_threads);
    const std::vector<uint32_t> slice(
        sequence.begin() + static_cast<long>(seg * per_segment),
        sequence.begin() + static_cast<long>((seg + 1) * per_segment));
    PhaseStats segment = (*client)->RunOpenLoop(keys, slice, rate, nullptr);
    segment_p50_ms.push_back(Quantile(segment.latency_ms, 0.5));
    open.Append(segment);

    const double cpu_before = ServerCpuSeconds();
    const auto wall_before = Clock::now();
    segment = (*client)->RunClosedLoop(
        keys, [&closed_mix]() { return closed_mix.Next(); }, window,
        closed_s / static_cast<double>(p.segments));
    const double cpu_s = ServerCpuSeconds() - cpu_before;
    const double wall_s = MsSince(wall_before) / 1000.0;
    const double done = static_cast<double>(segment.sent - segment.failed());
    segment_rps.push_back(cpu_s > 0 ? done / cpu_s : 0.0);
    segment_busy.push_back(wall_s > 0 ? cpu_s / wall_s : 0.0);
    closed.Append(segment);
  }

  // serve_tail's reload window, after the timed phases: the same open loop
  // for reload_window_s, with one reload at its middle. A reload stalls
  // the event loop for 0.6-1 s; inside the timed phases its delayed
  // requests pushed p50 around with the reload's length and the backlog
  // it left (IQR up to 183% of the median over ten seeds).
  PhaseStats reload_window;
  if (tail) {
    plan.Restart(Clock::now(), p.reload_window_s);
    reload_window = (*client)->RunOpenLoop(
        keys, draw(static_cast<size_t>(rate * p.reload_window_s)), rate,
        &plan);
  }
  const double peak_mb = PeakRssMb();
  client->reset();
  const std::vector<double> reload_ms(plan.done_ms.begin() + warm_reloads,
                                      plan.done_ms.end());
  const serve::ServiceStats service_after = service->Stats();
  const net::ServerStats net_after = server->Stats();

  PhaseStats all = warm;
  all.Append(open);
  all.Append(closed);
  all.Append(reload_window);
  result->attempted = all.sent + plan.sent;
  result->failed = all.failed() + plan.failed;
  if (result->failed > 0) {
    result->Fail(std::to_string(all.err_replies) + " err replies, " +
                 std::to_string(all.unanswered) + " unanswered, " +
                 std::to_string(all.framing_errors) + " framing errors, " +
                 std::to_string(plan.failed) + " failed reloads");
  }
  const double late_p99 = Quantile(open.late_ms, 0.99);
  if (late_p99 > p.late_warn_p99_ms) {
    result->warning = "generator lateness p99 " + JsonNumber(late_p99) +
                      " ms exceeds " + JsonNumber(p.late_warn_p99_ms) + " ms";
  }

  // An in-process service on the generation the server ended on answers
  // the replay (trace runs) and the byte-identity sample.
  const std::string served_path =
      plan.served_path.empty() ? inputs.base_snapshot : plan.served_path;
  auto local = serve::MatchService::Load(served_path, service_options);
  std::map<std::string, std::vector<double>> handle_us;
  std::vector<double> all_handle_us;
  if (!local.ok()) {
    result->Fail("local service: " + local.status().ToString());
  } else {
    if (config.trace) {
      for (uint32_t k : sequence) {
        auto start = Clock::now();
        (*local)->Handle(keys[k]);
        const double us = MsSince(start) * 1000.0;
        handle_us[VerbOf(keys[k])].push_back(us);
        all_handle_us.push_back(us);
      }
    }
    std::vector<uint32_t> order(keys.size());
    std::iota(order.begin(), order.end(), 0u);
    util::Rng sample_rng(config.seed ^ 0x73616d70ULL);  // "samp"
    sample_rng.Shuffle(&order);
    auto probe = SyncClient::Connect(server->port());
    size_t checked = 0, mismatched = 0;
    for (size_t i = 0;
         probe.ok() && i < order.size() && checked < p.sample_keys; ++i) {
      const std::string& key = keys[order[i]];
      if (key == "health") continue;  // carries the server's uptime
      auto tcp = (*probe)->Request(key);
      ++checked;
      if (!tcp.ok() || *tcp != (*local)->Handle(key)) ++mismatched;
    }
    if (!probe.ok()) result->Fail("sample: " + probe.status().ToString());
    result->attempted += checked;
    if (mismatched > 0) {
      result->failed += mismatched;
      result->Fail(std::to_string(mismatched) + " of " +
                   std::to_string(checked) +
                   " sampled TCP answers differ from in-process Handle");
    }
  }
  stop_server();

  result->facts.emplace_back("rss_reset", rss_reset ? "true" : "false");
  result->facts.emplace_back("setup_ms", JsonArray(setup_ms));
  // max_rps: reads the server completed per second of its own CPU time in
  // a closed-loop segment, i.e. the rate its event loop sustains with a
  // CPU to itself; the deep closed-loop window keeps the loop busy. Reads
  // per wall second (client.wall_rps) also count time the loop's vCPU was
  // taken by the host or idle between wake-ups.
  const double wall_rps =
      closed.window_s > 0
          ? static_cast<double>(closed.answered_in_window) / closed.window_s
          : 0.0;
  const double reload_max_ms =
      reload_window.latency_ms.empty()
          ? 0.0
          : *std::max_element(reload_window.latency_ms.begin(),
                              reload_window.latency_ms.end());
  result->facts.emplace_back("open_sent", std::to_string(open.sent));
  result->facts.emplace_back("segment_p50_ms", JsonArray(segment_p50_ms));
  result->facts.emplace_back("segment_rps", JsonArray(segment_rps));
  result->facts.emplace_back("segment_loop_busy", JsonArray(segment_busy));
  result->facts.emplace_back("wall_rps", JsonNumber(wall_rps));
  result->facts.emplace_back("reload_ms", JsonArray(reload_ms));
  result->facts.emplace_back("reload_max_ms", JsonNumber(reload_max_ms));
  result->facts.emplace_back("late_ms_p99", JsonNumber(late_p99));  SetEndToEnd(Median(setup_ms) / 1000.0, Median(segment_p50_ms),
              Median(segment_rps), peak_mb,
              static_cast<double>(FileBytes(inputs.base_snapshot)) / kMiB,
              result);

  if (config.trace) {
    std::map<std::string, double> medians = tracer.UnitMedians();
    std::map<std::string, double> layer = {
        {"serve.load_ms", medians["serve.load"]},
        {"serve.first_answer_ms", medians["serve.first_answer"]},
        {"net.start_ms", medians["net.start"]},
        {"setup.unaccounted_ms", medians["setup.cycle.self_ms"]},
    };
    for (const auto& [verb, values] : handle_us) {
      layer["serve.handle_us." + verb + ".p50"] = Quantile(values, 0.5);
      layer["serve.handle_us." + verb + ".p99"] = Quantile(values, 0.99);
    }
    const double hits = static_cast<double>(service_after.cache.hits -
                                            service_before.cache.hits);
    const double misses = static_cast<double>(service_after.cache.misses -
                                              service_before.cache.misses);
    layer["serve.cache_hit_rate"] = hits + misses > 0 ? hits / (hits + misses)
                                                      : 0.0;
    layer["serve.cache_evictions"] = static_cast<double>(
        service_after.cache.evictions - service_before.cache.evictions);
    layer["serve.reload_ms"] = Median(reload_ms);
    layer["serve.reloads"] = static_cast<double>(reload_ms.size());
    const double tcp_p50_us = Quantile(open.latency_ms, 0.5) * 1000.0;
    const double handle_p50_us = Quantile(all_handle_us, 0.5);
    layer["net.overhead_us.p50"] = tcp_p50_us - handle_p50_us;
    const double requests =
        static_cast<double>(net_after.requests - net_before.requests);
    if (requests > 0) {
      layer["net.bytes_read_per_req"] =
          static_cast<double>(net_after.bytes_read - net_before.bytes_read) /
          requests;
      layer["net.bytes_written_per_req"] =
          static_cast<double>(net_after.bytes_written -
                              net_before.bytes_written) /
          requests;
    }
    layer["net.backpressure_pauses"] = static_cast<double>(
        net_after.backpressure_pauses - net_before.backpressure_pauses);
    layer["net.shed"] = static_cast<double>(net_after.shed - net_before.shed);
    layer["net.protocol_errors"] = static_cast<double>(
        net_after.protocol_errors - net_before.protocol_errors);
    layer["trace.overhead_pct"] = TraceOverheadPct(traced_ms, untraced_ms);
    layer["client.late_ms.p99"] = late_p99;
    layer["client.p99_ms"] = Quantile(open.latency_ms, 0.99);
    layer["client.wall_rps"] = wall_rps;
    layer["client.reload_max_ms"] = reload_max_ms;
    layer["net.loop_busy_share"] = Median(segment_busy);
    SetPerLayer(layer, result);

    result->layer_table =
        RenderLayerTable("serve set-up: Load + Start + first answer (" +
                             std::to_string(traced_ms.size()) +
                             " traced cycles summed)",
                         tracer.LayerTable("setup.cycle")) +
        RenderLayerTable("serve request at p50 (open loop, us)",
                         {{"serve", handle_p50_us},
                          {"unaccounted", tcp_p50_us - handle_p50_us}});
    if (!config.trace_path.empty() &&
        !tracer.WriteChromeTrace(config.trace_path)) {
      result->Fail("cannot write trace " + config.trace_path);
    }
  }
}

}  // namespace benche2e
}  // namespace wikimatch
