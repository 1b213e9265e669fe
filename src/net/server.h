// net::Server — the async TCP serving layer. Speaks the serve::protocol
// line protocol over sockets and dispatches to a thread-safe
// serve::MatchService, owning the full production-concurrency story:
//
//  - Non-blocking, edge-triggered epoll event loops (one epoll per worker
//    thread; the listener is registered in every loop with EPOLLEXCLUSIVE
//    so accepts spread across threads without a thundering herd).
//  - Per-connection read/write buffers with partial-line reassembly via
//    serve::LineSplitter — requests may arrive a byte at a time or as a
//    pipelined burst, and responses are written in request order.
//  - Backpressure: when a connection's unflushed write buffer exceeds
//    `write_buffer_limit`, the server stops *reading* from it (drops
//    EPOLLIN) until the buffer drains, so a slow reader bounds its own
//    memory instead of ballooning the server.
//  - Load shedding: past `max_connections` active connections or a
//    `max_pending_requests` in-flight watermark, new accepts are answered
//    with one "err Unavailable: ..." line and closed immediately.
//  - Idle timeout: connections quiet for `idle_timeout_ms` are closed.
//  - Graceful drain: when the shutdown flag fires (SIGINT/SIGTERM via
//    net::InstallShutdownHandlers, or Shutdown()), the listener stops
//    accepting, every request already received in full is answered, write
//    buffers are flushed (bounded by `drain_timeout_ms`), and Run()
//    returns cleanly.
//
// Each connection is owned by exactly one event-loop thread, so per
// connection state needs no locks; cross-thread state is atomics plus the
// internally synchronized MatchService. Hot reload needs nothing special
// here: Handle() pins a generation per request (see match_service.h), so
// a `reload` racing live traffic can neither drop nor mix responses —
// tests/net_server_test.cc stresses exactly that under TSan.

#ifndef WIKIMATCH_NET_SERVER_H_
#define WIKIMATCH_NET_SERVER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "net/shutdown.h"
#include "serve/match_service.h"
#include "serve/protocol.h"
#include "util/mutex.h"
#include "util/result.h"
#include "util/thread_annotations.h"

namespace wikimatch {
namespace net {

/// \brief Listener and event-loop configuration.
struct ServerOptions {
  /// Address to bind ("127.0.0.1" for tests/bench, "0.0.0.0" to serve).
  std::string bind_address = "127.0.0.1";
  /// TCP port; 0 binds an ephemeral port (read it back via port()).
  uint16_t port = 0;
  /// Event-loop threads; 0 = one per core (util::DefaultThreads()).
  size_t num_threads = 1;
  /// Active-connection cap; accepts beyond it are shed with
  /// "err Unavailable: ...".
  size_t max_connections = 1024;
  /// Shed accepts while this many requests are parsed-but-unanswered
  /// across all connections; 0 sheds every accept (maintenance mode).
  size_t max_pending_requests = 4096;
  /// Unflushed response bytes per connection before the server stops
  /// reading from that connection (backpressure), resuming on drain.
  size_t write_buffer_limit = 1 << 20;
  /// Per-line cap during reassembly (oversized lines get a protocol
  /// error and are skipped to the next newline).
  size_t max_line_bytes = serve::kMaxRequestBytes;
  /// Close connections idle this long; 0 disables the timeout.
  int idle_timeout_ms = 0;
  /// Drain budget after shutdown: flushing in-flight replies stops and
  /// remaining connections are force-closed past this deadline.
  int drain_timeout_ms = 5000;
  /// When > 0, sets SO_SNDBUF on accepted sockets (tests shrink it to
  /// force backpressure deterministically).
  int send_buffer_bytes = 0;
};

/// \brief Monotonic counters, aggregated across event loops.
struct ServerStats {
  uint64_t accepted = 0;         ///< connections accepted (incl. shed)
  uint64_t shed = 0;             ///< accepts refused with "err Unavailable"
  uint64_t requests = 0;         ///< lines dispatched to the service
  uint64_t protocol_errors = 0;  ///< oversized/NUL lines answered "err"
  uint64_t idle_closed = 0;      ///< connections closed by the timeout
  uint64_t backpressure_pauses = 0;  ///< times reading was paused
  uint64_t bytes_read = 0;
  uint64_t bytes_written = 0;
  size_t active_connections = 0;  ///< currently open (gauge)
};

/// \brief Epoll-based TCP front end for one MatchService.
class Server {
 public:
  /// \brief Binds and listens. `service` must outlive the server. When
  /// `shutdown` is null the server owns a private flag (tests call
  /// Shutdown()); the CLI passes the signal-installed flag so SIGINT/
  /// SIGTERM drain the socket path and the stdin path identically.
  static util::Result<std::unique_ptr<Server>> Create(
      serve::MatchService* service, const ServerOptions& options,
      ShutdownFlag* shutdown = nullptr);

  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// \brief Port actually bound (resolves an ephemeral request).
  uint16_t port() const { return port_; }

  /// \brief Spawns the event-loop threads and returns.
  util::Status Start();

  /// \brief Joins the event loops (they exit after a drain completes).
  void Wait();

  /// \brief Start() + Wait(): serves until the shutdown flag fires, then
  /// drains and returns OK. This is the CLI entry point.
  util::Status Run();

  /// \brief Requests a graceful drain (same path as SIGINT/SIGTERM).
  void Shutdown() { shutdown_->Request(); }

  ServerStats Stats() const;

 private:
  struct Connection;
  struct Loop;

  Server(serve::MatchService* service, const ServerOptions& options,
         ShutdownFlag* shutdown);

  util::Status Listen();
  void LoopMain();

  // One event loop's body, split by concern; all operate on loop-owned
  // connections only (no cross-thread connection access).
  void HandleAccepts(Loop* loop);
  bool DispatchLine(Connection* conn, const std::string& line);
  void OnReadable(Loop* loop, Connection* conn);
  void OnWritable(Loop* loop, Connection* conn);
  void ProcessLines(Loop* loop, Connection* conn);
  void FlushWrites(Loop* loop, Connection* conn);
  void PauseReading(Loop* loop, Connection* conn);
  void ResumeReading(Loop* loop, Connection* conn);
  void CloseConnection(Loop* loop, Connection* conn);
  void SweepIdle(Loop* loop);
  void Drain(Loop* loop);

  serve::MatchService* service_;
  ServerOptions options_;
  ShutdownFlag* shutdown_;                  // owned_shutdown_ or external
  std::unique_ptr<ShutdownFlag> owned_shutdown_;
  int listen_fd_ = -1;
  uint16_t port_ = 0;

  util::Mutex state_mu_;  // guards the thread handles across Start/Wait
  std::vector<std::thread> threads_ WIKIMATCH_GUARDED_BY(state_mu_);

  std::atomic<size_t> active_connections_{0};
  std::atomic<size_t> pending_requests_{0};
  std::atomic<uint64_t> accepted_{0};
  std::atomic<uint64_t> shed_{0};
  std::atomic<uint64_t> requests_{0};
  std::atomic<uint64_t> protocol_errors_{0};
  std::atomic<uint64_t> idle_closed_{0};
  std::atomic<uint64_t> backpressure_pauses_{0};
  std::atomic<uint64_t> bytes_read_{0};
  std::atomic<uint64_t> bytes_written_{0};
};

}  // namespace net
}  // namespace wikimatch

#endif  // WIKIMATCH_NET_SERVER_H_
