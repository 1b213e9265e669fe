// Network serving benchmark: drives the epoll TCP server (net::Server)
// with a multi-connection load generator and reports p50/p90/p99 request
// latency and sustained RPS at high connection counts. Each connection is
// closed-loop (one request in flight), so concurrency comes from the
// number of simultaneous connections — the production shape for this
// service — and latency includes the full socket round trip, not just
// MatchService::Handle.
//
// Scale comes from $WIKIMATCH_SCALE (default 0.1); connection count from
// $WIKIMATCH_NET_CONNS (default 1000, the acceptance floor).
// Emits one JSON object on stdout so runs are diffable across commits.

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include "match/pipeline.h"
#include "net/server.h"
#include "serve/match_service.h"
#include "store/snapshot.h"
#include "synth/generator.h"
#include "util/thread_pool.h"

namespace wikimatch {
namespace {

using Clock = std::chrono::steady_clock;

double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

// The stdin-bench request mix plus the health probe a load balancer adds.
std::vector<std::string> RequestMix() {
  return {
      "query pt:en filme(receita > 1000000, elenco=?)",
      "query pt:en filme(diretor=?, elenco=?)",
      "attr pt:en film pt elenco",
      "alignments pt:en film",
      "types pt:en",
      "health",
  };
}

// One closed-loop connection owned by a load-generator thread.
struct Conn {
  int fd = -1;
  std::string outbox;        // unsent request bytes
  std::string inbox;         // received, not yet framed
  long lines_needed = -1;    // body lines left; -1 = header not seen
  int requests_done = 0;
  Clock::time_point sent_at;
};

struct LoadResult {
  std::vector<double> latencies_ms;
  long errors = 0;
};

void RaiseFdLimit(rlim_t want) {
  rlimit limit;
  if (::getrlimit(RLIMIT_NOFILE, &limit) != 0) return;
  if (limit.rlim_cur >= want) return;
  limit.rlim_cur = std::min(want, limit.rlim_max);
  ::setrlimit(RLIMIT_NOFILE, &limit);
}

bool SetNonBlocking(int fd) {
  int flags = ::fcntl(fd, F_GETFL, 0);
  return flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

// Queues the next request on `conn` (closed loop: called once at start
// and again after each completed response).
void QueueRequest(Conn* conn, const std::vector<std::string>& mix,
                  size_t conn_index) {
  const std::string& request =
      mix[(static_cast<size_t>(conn->requests_done) + conn_index) %
          mix.size()];
  conn->outbox = request + "\n";
  conn->lines_needed = -1;
  conn->sent_at = Clock::now();
}

// Flushes as much of the outbox as the socket accepts.
bool PumpSend(Conn* conn) {
  while (!conn->outbox.empty()) {
    ssize_t w = ::send(conn->fd, conn->outbox.data(), conn->outbox.size(),
                       MSG_NOSIGNAL);
    if (w > 0) {
      conn->outbox.erase(0, static_cast<size_t>(w));
      continue;
    }
    if (w < 0 && errno == EINTR) continue;
    return w < 0 && (errno == EAGAIN || errno == EWOULDBLOCK);
  }
  return true;
}

// Consumes complete response lines from the inbox. Returns the number of
// responses completed in this call (0 or 1 under the closed loop).
int PumpLines(Conn* conn) {
  int completed = 0;
  for (;;) {
    size_t newline = conn->inbox.find('\n');
    if (newline == std::string::npos) return completed;
    std::string line = conn->inbox.substr(0, newline);
    conn->inbox.erase(0, newline + 1);
    if (conn->lines_needed < 0) {
      // Header: "ok N" promises N body lines; anything else is one line.
      conn->lines_needed =
          line.compare(0, 3, "ok ") == 0 ? std::atol(line.c_str() + 3) : 0;
    } else {
      conn->lines_needed--;
    }
    if (conn->lines_needed == 0) {
      conn->requests_done++;
      completed++;
      conn->lines_needed = -1;
    }
  }
}

// Runs `conns` closed-loop connections to completion on one epoll set.
LoadResult RunClientThread(uint16_t port, size_t thread_index,
                           size_t num_conns, int requests_per_conn,
                           const std::vector<std::string>& mix) {
  LoadResult result;
  result.latencies_ms.reserve(num_conns *
                              static_cast<size_t>(requests_per_conn));
  int epoll_fd = ::epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd < 0) {
    result.errors = static_cast<long>(num_conns);
    return result;
  }
  std::vector<Conn> conns(num_conns);
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  for (size_t i = 0; i < num_conns; ++i) {
    Conn& conn = conns[i];
    conn.fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (conn.fd < 0 ||
        ::connect(conn.fd, reinterpret_cast<sockaddr*>(&addr),
                  sizeof(addr)) != 0 ||
        !SetNonBlocking(conn.fd)) {
      result.errors++;
      if (conn.fd >= 0) ::close(conn.fd);
      conn.fd = -1;
      continue;
    }
    int one = 1;
    ::setsockopt(conn.fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    epoll_event ev;
    std::memset(&ev, 0, sizeof(ev));
    ev.events = EPOLLIN | EPOLLOUT | EPOLLET;
    ev.data.u64 = i;
    ::epoll_ctl(epoll_fd, EPOLL_CTL_ADD, conn.fd, &ev);
    QueueRequest(&conn, mix, thread_index + i);
    PumpSend(&conn);
  }

  size_t remaining = 0;
  for (const Conn& conn : conns) {
    if (conn.fd >= 0) remaining++;
  }
  auto deadline = Clock::now() + std::chrono::seconds(180);
  std::vector<epoll_event> events(256);
  char buf[16 * 1024];
  while (remaining > 0 && Clock::now() < deadline) {
    int n = ::epoll_wait(epoll_fd, events.data(),
                         static_cast<int>(events.size()), 1000);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    for (int e = 0; e < n; ++e) {
      Conn& conn = conns[events[e].data.u64];
      if (conn.fd < 0) continue;
      bool dead = (events[e].events & (EPOLLERR | EPOLLHUP)) != 0;
      if (!dead && (events[e].events & EPOLLOUT)) dead = !PumpSend(&conn);
      while (!dead && (events[e].events & EPOLLIN)) {
        ssize_t r = ::recv(conn.fd, buf, sizeof(buf), 0);
        if (r > 0) {
          conn.inbox.append(buf, static_cast<size_t>(r));
          if (PumpLines(&conn) > 0) {
            result.latencies_ms.push_back(MsSince(conn.sent_at));
            if (conn.requests_done >= requests_per_conn) {
              ::close(conn.fd);
              conn.fd = -1;
              remaining--;
            } else {
              QueueRequest(&conn, mix, thread_index + events[e].data.u64);
              dead = !PumpSend(&conn);
            }
          }
          continue;
        }
        if (r < 0 && errno == EINTR) continue;
        if (r < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
        dead = true;  // EOF or a hard error mid-run
      }
      if (dead && conn.fd >= 0) {
        result.errors++;
        ::close(conn.fd);
        conn.fd = -1;
        remaining--;
      }
    }
  }
  // Connections still open past the deadline are stuck — count them.
  for (Conn& conn : conns) {
    if (conn.fd >= 0) {
      result.errors++;
      ::close(conn.fd);
    }
  }
  ::close(epoll_fd);
  return result;
}

double Percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  size_t index = static_cast<size_t>(p * static_cast<double>(sorted.size()));
  return sorted[std::min(index, sorted.size() - 1)];
}

int Run() {
  const char* scale_env = std::getenv("WIKIMATCH_SCALE");
  double scale = scale_env ? std::atof(scale_env) : 0.1;
  if (scale <= 0) scale = 0.1;
  const char* conns_env = std::getenv("WIKIMATCH_NET_CONNS");
  size_t total_conns =
      conns_env ? static_cast<size_t>(std::atol(conns_env)) : 1000;
  if (total_conns == 0) total_conns = 1000;
  constexpr int kRequestsPerConn = 25;
  RaiseFdLimit(static_cast<rlim_t>(2 * total_conns + 256));

  // ---- offline: corpus -> pipeline -> in-memory service ----
  synth::CorpusGenerator generator(synth::GeneratorOptions::Paper(scale));
  auto gc = generator.Generate();
  if (!gc.ok()) {
    std::fprintf(stderr, "generate: %s\n", gc.status().ToString().c_str());
    return 1;
  }
  match::MatchPipeline pipeline(&gc->corpus);
  match::PipelineOptions pipeline_options;
  pipeline_options.num_threads = util::DefaultThreads();
  auto result = pipeline.Run("pt", "en", pipeline_options);
  if (!result.ok()) {
    std::fprintf(stderr, "pipeline: %s\n",
                 result.status().ToString().c_str());
    return 1;
  }
  store::Snapshot snapshot;
  snapshot.corpus = gc->corpus;
  snapshot.dictionary = pipeline.dictionary();
  snapshot.pipelines.emplace(store::LanguagePair("pt", "en"),
                             std::move(result).ValueOrDie());
  size_t articles = gc->corpus.size();
  auto service = serve::MatchService::Create(std::move(snapshot));

  // ---- the server under test ----
  net::ServerOptions server_options;
  server_options.num_threads = util::DefaultThreads();
  server_options.max_connections = total_conns + 64;
  server_options.max_pending_requests = 1u << 30;
  auto server = net::Server::Create(service.get(), server_options);
  if (!server.ok()) {
    std::fprintf(stderr, "server: %s\n",
                 server.status().ToString().c_str());
    return 1;
  }
  auto started = (*server)->Start();
  if (!started.ok()) {
    std::fprintf(stderr, "start: %s\n", started.ToString().c_str());
    return 1;
  }

  // ---- load generation (connections all established before timing) ----
  const auto mix = RequestMix();
  size_t client_threads =
      std::min<size_t>(4, std::max<size_t>(2, util::DefaultThreads()));
  size_t per_thread = (total_conns + client_threads - 1) / client_threads;
  auto load_start = Clock::now();
  std::vector<std::thread> threads;
  std::vector<LoadResult> results(client_threads);
  size_t assigned = 0;
  for (size_t t = 0; t < client_threads; ++t) {
    size_t count = std::min(per_thread, total_conns - assigned);
    assigned += count;
    threads.emplace_back([&, t, count]() {
      results[t] = RunClientThread((*server)->port(), t, count,
                                   kRequestsPerConn, mix);
    });
  }
  for (auto& thread : threads) thread.join();
  double duration_s = MsSince(load_start) / 1000.0;

  std::vector<double> latencies;
  long errors = 0;
  for (const auto& r : results) {
    latencies.insert(latencies.end(), r.latencies_ms.begin(),
                     r.latencies_ms.end());
    errors += r.errors;
  }
  std::sort(latencies.begin(), latencies.end());
  double rps = duration_s > 0
                   ? static_cast<double>(latencies.size()) / duration_s
                   : 0.0;

  (*server)->Shutdown();
  (*server)->Wait();
  net::ServerStats stats = (*server)->Stats();
  if (errors > 0) {
    std::fprintf(stderr, "warning: %ld connections errored or stalled\n",
                 errors);
  }

  std::printf("{\n");
  std::printf("  \"bench\": \"serve_net\",\n");
  std::printf("  \"scale\": %g,\n", scale);
  std::printf("  \"articles\": %zu,\n", articles);
  std::printf("  \"connections\": %zu,\n", total_conns);
  std::printf("  \"net_threads\": %zu,\n", server_options.num_threads);
  std::printf("  \"client_threads\": %zu,\n", client_threads);
  std::printf("  \"requests\": %zu,\n", latencies.size());
  std::printf("  \"connection_errors\": %ld,\n", errors);
  std::printf("  \"duration_s\": %.3f,\n", duration_s);
  std::printf("  \"requests_per_sec\": %.0f,\n", rps);
  std::printf("  \"p50_ms\": %.3f,\n", Percentile(latencies, 0.50));
  std::printf("  \"p90_ms\": %.3f,\n", Percentile(latencies, 0.90));
  std::printf("  \"p99_ms\": %.3f,\n", Percentile(latencies, 0.99));
  std::printf("  \"max_ms\": %.3f,\n",
              latencies.empty() ? 0.0 : latencies.back());
  std::printf("  \"shed\": %llu,\n",
              static_cast<unsigned long long>(stats.shed));
  std::printf("  \"protocol_errors\": %llu\n",
              static_cast<unsigned long long>(stats.protocol_errors));
  std::printf("}\n");
  return errors == 0 ? 0 : 1;
}

}  // namespace
}  // namespace wikimatch

int main() { return wikimatch::Run(); }
