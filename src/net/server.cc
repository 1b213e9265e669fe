#include "net/server.h"

#include <array>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <unordered_map>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "util/logging.h"
#include "util/thread_pool.h"

namespace wikimatch {
namespace net {
namespace {

using Clock = std::chrono::steady_clock;

// epoll_event.data values for the two non-connection fds. Real
// Connection pointers are aligned allocations and can never equal these.
constexpr uint64_t kListenerTag = 1;
constexpr uint64_t kWakeTag = 2;

// The one-line reply a shed accept gets before its socket is closed, in
// the protocol's one error form.
const std::string& BusyReply() {
  static const std::string reply = serve::ErrorResponse(
      util::Status::Unavailable("server overloaded, retry later"));
  return reply;
}

std::string Errno(const char* what) {
  return std::string(what) + ": " + std::strerror(errno);
}

}  // namespace

// Per-connection state, owned by exactly one event loop (never touched
// from another thread, so none of it needs a lock).
struct Server::Connection {
  Connection(int fd_in, size_t max_line_bytes)
      : fd(fd_in), splitter(max_line_bytes) {}

  int fd;
  serve::LineSplitter splitter;  // bytes read, not yet a full line
  std::string wbuf;              // responses not yet accepted by the kernel
  size_t wpos = 0;               // flushed prefix of wbuf
  bool paused = false;           // EPOLLIN dropped (backpressure)
  bool peer_eof = false;         // client half-closed; tail handled
  bool want_close = false;       // close once wbuf is flushed
  bool closed = false;           // fd closed; free at end of event
  Clock::time_point last_active;
};

// One event-loop thread's world: its epoll set and the connections it
// owns. `graveyard` defers freeing a closed connection to the end of the
// current event so no dangling pointer is touched mid-handler.
struct Server::Loop {
  int epoll_fd = -1;
  bool draining = false;
  std::unordered_map<int, std::unique_ptr<Connection>> conns;
  std::vector<std::unique_ptr<Connection>> graveyard;
  Clock::time_point last_idle_sweep;
};

util::Result<std::unique_ptr<Server>> Server::Create(
    serve::MatchService* service, const ServerOptions& options,
    ShutdownFlag* shutdown) {
  if (service == nullptr) {
    return util::Status::InvalidArgument("net::Server needs a MatchService");
  }
  std::unique_ptr<Server> server(new Server(service, options, shutdown));
  if (server->shutdown_->wake_fd() < 0) {
    return util::Status::IoError("eventfd for the shutdown flag failed");
  }
  auto status = server->Listen();
  if (!status.ok()) return status;
  return server;
}

Server::Server(serve::MatchService* service, const ServerOptions& options,
               ShutdownFlag* shutdown)
    : service_(service), options_(options), shutdown_(shutdown) {
  if (shutdown_ == nullptr) {
    owned_shutdown_ = std::make_unique<ShutdownFlag>();
    shutdown_ = owned_shutdown_.get();
  }
  if (options_.num_threads == 0) {
    options_.num_threads = util::DefaultThreads();
  }
  if (options_.max_line_bytes == 0 ||
      options_.max_line_bytes > serve::kMaxRequestBytes) {
    options_.max_line_bytes = serve::kMaxRequestBytes;
  }
}

Server::~Server() {
  Shutdown();
  Wait();
}

util::Status Server::Listen() {
  listen_fd_ =
      ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) return util::Status::IoError(Errno("socket"));
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.bind_address.c_str(), &addr.sin_addr) !=
      1) {
    return util::Status::InvalidArgument("bad bind address '" +
                                         options_.bind_address + "'");
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    return util::Status::IoError(
        Errno(("bind " + options_.bind_address + ":" +
               std::to_string(options_.port))
                  .c_str()));
  }
  if (::listen(listen_fd_, 4096) != 0) {
    return util::Status::IoError(Errno("listen"));
  }
  sockaddr_in bound;
  socklen_t len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len) !=
      0) {
    return util::Status::IoError(Errno("getsockname"));
  }
  port_ = ntohs(bound.sin_port);
  return util::Status::OK();
}

util::Status Server::Start() {
  util::MutexLock lock(state_mu_);
  if (!threads_.empty()) {
    return util::Status::InvalidArgument("server already started");
  }
  threads_.reserve(options_.num_threads);
  for (size_t t = 0; t < options_.num_threads; ++t) {
    threads_.emplace_back([this]() { LoopMain(); });
  }
  return util::Status::OK();
}

void Server::Wait() {
  std::vector<std::thread> joined;
  {
    util::MutexLock lock(state_mu_);
    joined.swap(threads_);
  }
  for (auto& thread : joined) thread.join();
  // All loops have drained; closing the listener makes further connect
  // attempts fail fast instead of parking in the backlog.
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
}

util::Status Server::Run() {
  auto status = Start();
  if (!status.ok()) return status;
  Wait();
  return util::Status::OK();
}

ServerStats Server::Stats() const {
  ServerStats stats;
  stats.accepted = accepted_.load(std::memory_order_relaxed);
  stats.shed = shed_.load(std::memory_order_relaxed);
  stats.requests = requests_.load(std::memory_order_relaxed);
  stats.protocol_errors = protocol_errors_.load(std::memory_order_relaxed);
  stats.idle_closed = idle_closed_.load(std::memory_order_relaxed);
  stats.backpressure_pauses =
      backpressure_pauses_.load(std::memory_order_relaxed);
  stats.bytes_read = bytes_read_.load(std::memory_order_relaxed);
  stats.bytes_written = bytes_written_.load(std::memory_order_relaxed);
  stats.active_connections =
      active_connections_.load(std::memory_order_relaxed);
  return stats;
}

void Server::LoopMain() {
  Loop loop;
  loop.epoll_fd = ::epoll_create1(EPOLL_CLOEXEC);
  if (loop.epoll_fd < 0) {
    WIKIMATCH_LOG(Warning) << "net: epoll_create1 failed: "
                           << std::strerror(errno);
    return;
  }
  epoll_event ev;
  std::memset(&ev, 0, sizeof(ev));
  ev.events = EPOLLIN | EPOLLEXCLUSIVE;
  ev.data.u64 = kListenerTag;
  if (::epoll_ctl(loop.epoll_fd, EPOLL_CTL_ADD, listen_fd_, &ev) != 0) {
    // EPOLLEXCLUSIVE needs kernel >= 4.5; fall back to a shared wakeup.
    ev.events = EPOLLIN;
    ::epoll_ctl(loop.epoll_fd, EPOLL_CTL_ADD, listen_fd_, &ev);
  }
  std::memset(&ev, 0, sizeof(ev));
  // Level-triggered and never drained, so one Request() wakes every loop.
  ev.events = EPOLLIN;
  ev.data.u64 = kWakeTag;
  ::epoll_ctl(loop.epoll_fd, EPOLL_CTL_ADD, shutdown_->wake_fd(), &ev);

  loop.last_idle_sweep = Clock::now();
  std::array<epoll_event, 64> events;
  while (!shutdown_->requested()) {
    int timeout_ms = options_.idle_timeout_ms > 0
                         ? std::min(options_.idle_timeout_ms, 250)
                         : 1000;
    int n = ::epoll_wait(loop.epoll_fd, events.data(),
                         static_cast<int>(events.size()), timeout_ms);
    if (n < 0) {
      if (errno == EINTR) continue;
      WIKIMATCH_LOG(Warning) << "net: epoll_wait failed: "
                             << std::strerror(errno);
      break;
    }
    for (int i = 0; i < n; ++i) {
      const epoll_event& event = events[i];
      if (event.data.u64 == kListenerTag) {
        HandleAccepts(&loop);
        continue;
      }
      if (event.data.u64 == kWakeTag) continue;
      auto* conn = static_cast<Connection*>(event.data.ptr);
      if (conn->closed) continue;
      if (event.events & (EPOLLERR | EPOLLHUP)) {
        CloseConnection(&loop, conn);
      } else {
        if (event.events & EPOLLOUT) OnWritable(&loop, conn);
        if (!conn->closed && (event.events & (EPOLLIN | EPOLLRDHUP))) {
          OnReadable(&loop, conn);
        }
      }
      loop.graveyard.clear();
    }
    SweepIdle(&loop);
  }
  Drain(&loop);
  ::close(loop.epoll_fd);
}

void Server::HandleAccepts(Loop* loop) {
  if (loop->draining) return;
  for (;;) {
    int fd = ::accept4(listen_fd_, nullptr, nullptr,
                       SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR || errno == ECONNABORTED) continue;
      break;  // EAGAIN (drained) or a transient error; epoll re-arms us
    }
    accepted_.fetch_add(1, std::memory_order_relaxed);
    // Load shedding: a one-line refusal is far cheaper for the client
    // than a silent close — the load balancer can back off immediately.
    if (active_connections_.load(std::memory_order_relaxed) >=
            options_.max_connections ||
        pending_requests_.load(std::memory_order_relaxed) >=
            options_.max_pending_requests) {
      // Count before the reply: a client that has read the busy line must
      // already see it in Stats().
      shed_.fetch_add(1, std::memory_order_relaxed);
      (void)::send(fd, BusyReply().data(), BusyReply().size(), MSG_NOSIGNAL);
      ::close(fd);
      continue;
    }
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    if (options_.send_buffer_bytes > 0) {
      ::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &options_.send_buffer_bytes,
                   sizeof(options_.send_buffer_bytes));
    }
    auto conn = std::make_unique<Connection>(fd, options_.max_line_bytes);
    conn->last_active = Clock::now();
    epoll_event ev;
    std::memset(&ev, 0, sizeof(ev));
    ev.events = EPOLLIN | EPOLLOUT | EPOLLET | EPOLLRDHUP;
    ev.data.ptr = conn.get();
    if (::epoll_ctl(loop->epoll_fd, EPOLL_CTL_ADD, fd, &ev) != 0) {
      ::close(fd);
      continue;
    }
    active_connections_.fetch_add(1, std::memory_order_relaxed);
    loop->conns.emplace(fd, std::move(conn));
  }
}

// Runs one complete line through the shared protocol semantics and queues
// the response. Returns true when the line was an answered `quit`.
bool Server::DispatchLine(Connection* conn, const std::string& line) {
  pending_requests_.fetch_add(1, std::memory_order_relaxed);
  serve::LineOutcome outcome = serve::HandleRequestLine(service_, line);
  pending_requests_.fetch_sub(1, std::memory_order_relaxed);
  if (outcome.response.empty()) return false;  // blank line
  requests_.fetch_add(1, std::memory_order_relaxed);
  if (outcome.protocol_error) {
    protocol_errors_.fetch_add(1, std::memory_order_relaxed);
  }
  conn->wbuf += outcome.response;
  return outcome.quit;
}

void Server::ProcessLines(Loop* loop, Connection* conn) {
  while (!conn->closed && !conn->paused && !conn->want_close) {
    std::string line;
    serve::LineSplitter::Next next = conn->splitter.Pop(&line);
    if (next == serve::LineSplitter::Next::kNeedMore) break;
    if (next == serve::LineSplitter::Next::kOversized) {
      conn->wbuf += serve::OversizedLineResponse(options_.max_line_bytes);
      protocol_errors_.fetch_add(1, std::memory_order_relaxed);
    } else if (DispatchLine(conn, line)) {
      // `quit`: flush what is owed, its `bye` included, and drop the rest
      // of the pipeline.
      conn->want_close = true;
      break;
    }
    if (conn->wbuf.size() - conn->wpos > options_.write_buffer_limit) {
      FlushWrites(loop, conn);
      if (conn->closed) return;
      if (!loop->draining &&
          conn->wbuf.size() - conn->wpos > options_.write_buffer_limit) {
        PauseReading(loop, conn);
        break;
      }
    }
  }
  if (conn->closed) return;
  if (conn->peer_eof && !conn->paused && !conn->want_close) {
    // The client half-closed without terminating its last line; serve the
    // tail as a final request, then close after the flush.
    std::string tail;
    if (conn->splitter.Finish(&tail)) (void)DispatchLine(conn, tail);
    conn->want_close = true;
  }
  FlushWrites(loop, conn);
}

void Server::OnReadable(Loop* loop, Connection* conn) {
  conn->last_active = Clock::now();
  char buf[16 * 1024];
  // Edge-triggered: drain the socket until EAGAIN — but stop the moment
  // backpressure pauses the connection, leaving unread bytes in the
  // kernel buffer (which is the whole point: TCP flow control pushes the
  // pressure back to the client).
  while (!conn->closed && !conn->paused && !conn->want_close &&
         !conn->peer_eof) {
    ssize_t r = ::recv(conn->fd, buf, sizeof(buf), 0);
    if (r > 0) {
      bytes_read_.fetch_add(static_cast<uint64_t>(r),
                            std::memory_order_relaxed);
      conn->splitter.Append(buf, static_cast<size_t>(r));
      ProcessLines(loop, conn);
      continue;
    }
    if (r == 0) {
      conn->peer_eof = true;
      ProcessLines(loop, conn);
      break;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    CloseConnection(loop, conn);
    return;
  }
}

void Server::OnWritable(Loop* loop, Connection* conn) {
  FlushWrites(loop, conn);
  if (conn->closed) return;
  if (conn->paused &&
      conn->wbuf.size() - conn->wpos <= options_.write_buffer_limit) {
    ResumeReading(loop, conn);
    // Lines buffered while paused (and a pending peer EOF) are handled
    // now; fresh socket data arrives via the re-armed EPOLLIN.
    ProcessLines(loop, conn);
  }
}

void Server::FlushWrites(Loop* loop, Connection* conn) {
  if (conn->closed) return;
  while (conn->wpos < conn->wbuf.size()) {
    ssize_t w = ::send(conn->fd, conn->wbuf.data() + conn->wpos,
                       conn->wbuf.size() - conn->wpos, MSG_NOSIGNAL);
    if (w > 0) {
      conn->wpos += static_cast<size_t>(w);
      bytes_written_.fetch_add(static_cast<uint64_t>(w),
                               std::memory_order_relaxed);
      continue;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return;  // EPOLLOUT re-arms
    CloseConnection(loop, conn);  // peer vanished; nothing left to flush to
    return;
  }
  conn->wbuf.clear();
  conn->wpos = 0;
  if (conn->want_close) CloseConnection(loop, conn);
}

void Server::PauseReading(Loop* loop, Connection* conn) {
  epoll_event ev;
  std::memset(&ev, 0, sizeof(ev));
  ev.events = EPOLLOUT | EPOLLET | EPOLLRDHUP;
  ev.data.ptr = conn;
  ::epoll_ctl(loop->epoll_fd, EPOLL_CTL_MOD, conn->fd, &ev);
  conn->paused = true;
  backpressure_pauses_.fetch_add(1, std::memory_order_relaxed);
}

void Server::ResumeReading(Loop* loop, Connection* conn) {
  epoll_event ev;
  std::memset(&ev, 0, sizeof(ev));
  // EPOLL_CTL_MOD re-checks readiness, so bytes that arrived while paused
  // deliver a fresh edge immediately.
  ev.events = EPOLLIN | EPOLLOUT | EPOLLET | EPOLLRDHUP;
  ev.data.ptr = conn;
  ::epoll_ctl(loop->epoll_fd, EPOLL_CTL_MOD, conn->fd, &ev);
  conn->paused = false;
}

void Server::CloseConnection(Loop* loop, Connection* conn) {
  if (conn->closed) return;
  conn->closed = true;
  ::epoll_ctl(loop->epoll_fd, EPOLL_CTL_DEL, conn->fd, nullptr);
  // Drain unread input first (bounded): close(2) with bytes still queued
  // in the receive buffer makes TCP send RST instead of FIN, which would
  // destroy responses the peer has not read yet — e.g. the replies owed
  // before a `quit` that arrived in the same burst as later requests.
  char discard[4096];
  for (int i = 0; i < 16; ++i) {
    if (::recv(conn->fd, discard, sizeof(discard), 0) <= 0) break;
  }
  ::close(conn->fd);
  active_connections_.fetch_sub(1, std::memory_order_relaxed);
  auto it = loop->conns.find(conn->fd);
  if (it != loop->conns.end() && it->second.get() == conn) {
    loop->graveyard.push_back(std::move(it->second));
    loop->conns.erase(it);
  }
}

void Server::SweepIdle(Loop* loop) {
  if (options_.idle_timeout_ms <= 0) return;
  auto now = Clock::now();
  auto interval =
      std::chrono::milliseconds(std::max(1, options_.idle_timeout_ms / 4));
  if (now - loop->last_idle_sweep < interval) return;
  loop->last_idle_sweep = now;
  auto limit = std::chrono::milliseconds(options_.idle_timeout_ms);
  std::vector<Connection*> stale;
  // Sweep order is per-connection bookkeeping; no response bytes depend
  // on which stale peer closes first.
  for (auto& [fd, conn] : loop->conns) {  // NOLINT(unordered-iter)
    if (now - conn->last_active > limit) stale.push_back(conn.get());
  }
  for (auto* conn : stale) {
    idle_closed_.fetch_add(1, std::memory_order_relaxed);
    CloseConnection(loop, conn);
  }
  loop->graveyard.clear();
}

void Server::Drain(Loop* loop) {
  loop->draining = true;
  // Stop accepting (this loop's share of the shared listener) and stop
  // spinning on the never-drained wake eventfd.
  ::epoll_ctl(loop->epoll_fd, EPOLL_CTL_DEL, listen_fd_, nullptr);
  ::epoll_ctl(loop->epoll_fd, EPOLL_CTL_DEL, shutdown_->wake_fd(), nullptr);

  // Answer everything already received in full; read nothing new.
  std::vector<Connection*> open;
  open.reserve(loop->conns.size());
  // Each connection's replies stay ordered within that connection; the
  // drain visit order across peers cannot reorder any byte stream.
  for (auto& [fd, conn] : loop->conns) {  // NOLINT(unordered-iter)
    open.push_back(conn.get());
  }
  for (auto* conn : open) {
    if (conn->closed) continue;
    conn->paused = false;  // drain ignores backpressure: flush everything
    ProcessLines(loop, conn);
    if (conn->closed) continue;
    conn->want_close = true;
    FlushWrites(loop, conn);
  }
  loop->graveyard.clear();

  // Flush stragglers (peers slow to read) until done or out of budget.
  auto deadline = Clock::now() + std::chrono::milliseconds(
                                     std::max(0, options_.drain_timeout_ms));
  std::array<epoll_event, 64> events;
  while (!loop->conns.empty() && Clock::now() < deadline) {
    int n = ::epoll_wait(loop->epoll_fd, events.data(),
                         static_cast<int>(events.size()), 50);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    for (int i = 0; i < n; ++i) {
      if (events[i].data.u64 == kListenerTag ||
          events[i].data.u64 == kWakeTag) {
        continue;
      }
      auto* conn = static_cast<Connection*>(events[i].data.ptr);
      if (conn->closed) continue;
      if (events[i].events & (EPOLLERR | EPOLLHUP)) {
        CloseConnection(loop, conn);
      } else if (events[i].events & EPOLLOUT) {
        FlushWrites(loop, conn);
      }
      loop->graveyard.clear();
    }
  }
  // Past the budget: cut the remaining connections loose.
  std::vector<Connection*> rest;
  rest.reserve(loop->conns.size());
  // Tear-down order of abandoned peers is unobservable in any output.
  for (auto& [fd, conn] : loop->conns) {  // NOLINT(unordered-iter)
    rest.push_back(conn.get());
  }
  for (auto* conn : rest) CloseConnection(loop, conn);
  loop->graveyard.clear();
}

}  // namespace net
}  // namespace wikimatch
