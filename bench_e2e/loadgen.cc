#include "loadgen.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <deque>

namespace wikimatch {
namespace benche2e {
namespace {

util::Result<int> ConnectLoopback(uint16_t port) {
  int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    return util::Status::IoError("socket: " + std::string(strerror(errno)));
  }
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    int err = errno;
    ::close(fd);
    return util::Status::IoError("connect: " + std::string(strerror(err)));
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

// Length of the first complete response block in `data` starting at
// `offset` ("ok <n>" plus n lines, or one "err" line), 0 when more bytes
// are needed, or -1 when the bytes are not a response.
long ResponseLength(const std::string& data, size_t offset) {
  size_t nl = data.find('\n', offset);
  if (nl == std::string::npos) return 0;
  if (data.compare(offset, 4, "err ") == 0) {
    return static_cast<long>(nl + 1 - offset);
  }
  if (data.compare(offset, 3, "ok ") != 0) return -1;
  long lines = 0;
  for (size_t i = offset + 3; i < nl; ++i) {
    if (data[i] < '0' || data[i] > '9' || lines > (1L << 40)) return -1;
    lines = lines * 10 + (data[i] - '0');
  }
  if (nl == offset + 3) return -1;
  size_t pos = nl + 1;
  for (long i = 0; i < lines; ++i) {
    nl = data.find('\n', pos);
    if (nl == std::string::npos) return 0;
    pos = nl + 1;
  }
  return static_cast<long>(pos - offset);
}

}  // namespace

Clock::time_point ReloadPlan::NextDue() const {
  return origin + std::chrono::nanoseconds(static_cast<int64_t>(
                      (static_cast<double>(scheduled) + 0.5) * period_s * 1e9));
}

void PhaseStats::Append(const PhaseStats& other) {
  latency_ms.insert(latency_ms.end(), other.latency_ms.begin(),
                    other.latency_ms.end());
  late_ms.insert(late_ms.end(), other.late_ms.begin(), other.late_ms.end());
  sent += other.sent;
  answered_in_window += other.answered_in_window;
  err_replies += other.err_replies;
  unanswered += other.unanswered;
  framing_errors += other.framing_errors;
  window_s += other.window_s;
}

// ---- LoadClient -------------------------------------------------------------

struct LoadClient::Conn {
  struct Pending {
    Clock::time_point due;   // open loop: scheduled; else: send time
    std::string reload_path;  // admin reloads only
  };
  int fd = -1;
  bool write_armed = false;
  std::string outbox;
  size_t out_off = 0;
  std::string inbox;
  size_t in_off = 0;
  std::deque<Pending> pending;

  ~Conn() {
    if (fd >= 0) ::close(fd);
  }
};

LoadClient::LoadClient(int epoll_fd) : epoll_fd_(epoll_fd) {}

LoadClient::~LoadClient() {
  reads_.clear();
  admin_.reset();
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
}

util::Result<std::unique_ptr<LoadClient>> LoadClient::Connect(
    uint16_t port, size_t read_conns, bool admin) {
  // The open loop sleeps until each request is due; keep the kernel from
  // coalescing those wake-ups (the default slack is 50 us).
  ::prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);
  int epoll_fd = ::epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd < 0) return util::Status::IoError("epoll_create1");
  std::unique_ptr<LoadClient> client(new LoadClient(epoll_fd));
  for (size_t i = 0; i < read_conns + (admin ? 1 : 0); ++i) {
    auto fd = ConnectLoopback(port);
    if (!fd.ok()) return fd.status();
    auto conn = std::make_unique<Conn>();
    conn->fd = *fd;
    int flags = ::fcntl(conn->fd, F_GETFL, 0);
    if (flags < 0 || ::fcntl(conn->fd, F_SETFL, flags | O_NONBLOCK) != 0) {
      return util::Status::IoError("fcntl O_NONBLOCK");
    }
    epoll_event ev;
    std::memset(&ev, 0, sizeof(ev));
    ev.events = EPOLLIN;
    ev.data.ptr = conn.get();
    if (::epoll_ctl(epoll_fd, EPOLL_CTL_ADD, conn->fd, &ev) != 0) {
      return util::Status::IoError("epoll_ctl");
    }
    if (i < read_conns) {
      client->reads_.push_back(std::move(conn));
    } else {
      client->admin_ = std::move(conn);
    }
  }
  return client;
}

PhaseStats LoadClient::RunOpenLoop(const std::vector<std::string>& keys,
                                   const std::vector<uint32_t>& sequence,
                                   double rate, ReloadPlan* reloads) {
  return Run(true, keys, &sequence, rate, nullptr, 0, 0.0, reloads);
}

PhaseStats LoadClient::RunClosedLoop(const std::vector<std::string>& keys,
                                     const std::function<uint32_t()>& next_key,
                                     size_t window, double seconds) {
  return Run(false, keys, nullptr, 0.0, &next_key, window, seconds, nullptr);
}

PhaseStats LoadClient::Run(bool open, const std::vector<std::string>& keys,
                           const std::vector<uint32_t>* sequence, double rate,
                           const std::function<uint32_t()>* next_key,
                           size_t window, double seconds,
                           ReloadPlan* reloads) {
  using std::chrono::nanoseconds;
  PhaseStats st;
  const size_t n = reads_.size();
  const auto start = Clock::now() + std::chrono::milliseconds(2);
  const size_t total = open ? sequence->size() : 0;
  const double interval_ns = open ? 1e9 / rate : 0.0;
  auto due_of = [&](size_t i) {
    return start + nanoseconds(static_cast<int64_t>(
                       static_cast<double>(i) * interval_ns));
  };
  const auto window_end =
      open ? due_of(total)
           : start + nanoseconds(static_cast<int64_t>(seconds * 1e9));
  // Generous drain allowance: a reload stalls one server loop for the
  // length of a full snapshot decode.
  const auto deadline = window_end + std::chrono::seconds(15);
  st.window_s = std::chrono::duration<double>(window_end - start).count();
  if (open) {
    // Sized and touched before the phase, so recording a sample never
    // stalls the generator on a reallocation or a page fault.
    st.latency_ms.assign(total, 0.0);
    st.latency_ms.clear();
    st.late_ms.assign(total, 0.0);
    st.late_ms.clear();
  }

  auto enqueue = [&](Conn* conn, const std::string& line,
                     Clock::time_point due, std::string reload_path) {
    conn->outbox += line;
    conn->outbox += '\n';
    conn->pending.push_back({due, std::move(reload_path)});
  };
  auto send_key = [&](Conn* conn, uint32_t key, Clock::time_point due) {
    enqueue(conn, keys[key], due, "");
    st.sent++;
  };
  auto fail_conn = [&](Conn* conn) {
    for (const auto& p : conn->pending) {
      if (p.reload_path.empty()) {
        st.unanswered++;
      } else {
        reloads->failed++;
      }
    }
    conn->pending.clear();
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, conn->fd, nullptr);
    ::close(conn->fd);
    conn->fd = -1;
  };
  auto flush = [&](Conn* conn) {
    while (conn->fd >= 0 && conn->out_off < conn->outbox.size()) {
      ssize_t w = ::send(conn->fd, conn->outbox.data() + conn->out_off,
                         conn->outbox.size() - conn->out_off, MSG_NOSIGNAL);
      if (w > 0) {
        conn->out_off += static_cast<size_t>(w);
      } else if (w < 0 && errno == EINTR) {
        continue;
      } else if (w < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        break;
      } else {
        fail_conn(conn);
        return;
      }
    }
    if (conn->fd < 0) return;
    if (conn->out_off == conn->outbox.size()) {
      conn->outbox.clear();
      conn->out_off = 0;
    }
    bool want = !conn->outbox.empty();
    if (want != conn->write_armed) {
      epoll_event ev;
      std::memset(&ev, 0, sizeof(ev));
      ev.events = EPOLLIN | (want ? EPOLLOUT : 0u);
      ev.data.ptr = conn;
      ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn->fd, &ev);
      conn->write_armed = want;
    }
  };
  auto all_conns = [&]() {
    std::vector<Conn*> conns;
    for (auto& c : reads_) conns.push_back(c.get());
    if (admin_ != nullptr) conns.push_back(admin_.get());
    return conns;
  };
  const std::vector<Conn*> conns = all_conns();

  // Reads every available byte of `conn` and consumes complete responses.
  auto on_readable = [&](Conn* conn) {
    char buf[1 << 16];
    for (;;) {
      ssize_t r = ::recv(conn->fd, buf, sizeof(buf), 0);
      if (r > 0) {
        conn->inbox.append(buf, static_cast<size_t>(r));
        continue;
      }
      if (r < 0 && errno == EINTR) continue;
      if (r < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      fail_conn(conn);  // EOF or hard error with requests outstanding
      return;
    }
    const auto now = Clock::now();
    for (;;) {
      long len = ResponseLength(conn->inbox, conn->in_off);
      if (len == 0) break;
      if (len < 0 || conn->pending.empty()) {
        st.framing_errors++;
        fail_conn(conn);
        return;
      }
      const bool err = conn->inbox.compare(conn->in_off, 4, "err ") == 0;
      Conn::Pending done = std::move(conn->pending.front());
      conn->pending.pop_front();
      conn->in_off += static_cast<size_t>(len);
      if (!done.reload_path.empty()) {
        if (err) {
          reloads->failed++;
        } else {
          reloads->done_ms.push_back(MsBetween(done.due, now));
          reloads->served_path = done.reload_path;
        }
        continue;
      }
      if (err) st.err_replies++;
      if (open) {
        st.latency_ms.push_back(MsBetween(done.due, now));
      } else if (now <= window_end) {
        st.answered_in_window++;
        send_key(conn, (*next_key)(), now);
      }
    }
    if (conn->in_off == conn->inbox.size()) {
      conn->inbox.clear();
      conn->in_off = 0;
    } else if (conn->in_off > (1u << 20)) {
      conn->inbox.erase(0, conn->in_off);
      conn->in_off = 0;
    }
    flush(conn);
  };

  size_t next = 0;
  bool closed_started = false;
  std::vector<epoll_event> events(16);
  for (;;) {
    auto now = Clock::now();
    if (open) {
      while (next < total && due_of(next) <= now) {
        Clock::time_point due = due_of(next);
        Conn* conn = reads_[next % n].get();
        if (conn->fd >= 0) {
          send_key(conn, (*sequence)[next], due);
          st.late_ms.push_back(MsBetween(due, now));
        } else {
          st.sent++;
          st.unanswered++;
        }
        ++next;
      }
    } else if (!closed_started && now >= start) {
      closed_started = true;
      for (auto& conn : reads_) {
        for (size_t w = 0; conn->fd >= 0 && w < window; ++w) {
          send_key(conn.get(), (*next_key)(), now);
        }
      }
    }
    bool reload_pending = false;
    if (reloads != nullptr && admin_ != nullptr && admin_->fd >= 0 &&
        !reloads->paths.empty()) {
      if (admin_->pending.empty() && reloads->NextDue() <= now &&
          reloads->NextDue() < window_end) {
        const std::string& path =
            reloads->paths[reloads->sent % reloads->paths.size()];
        enqueue(admin_.get(), "reload " + path, now, path);
        reloads->sent++;
        reloads->scheduled++;
      }
      reload_pending = !admin_->pending.empty();
    }
    for (Conn* conn : conns) {
      if (conn->fd >= 0 && !conn->outbox.empty()) flush(conn);
    }

    bool reads_idle = true;
    for (auto& conn : reads_) {
      if (conn->fd >= 0 && !conn->pending.empty()) reads_idle = false;
    }
    const bool generated = open ? next == total
                                : closed_started && now >= window_end;
    if (generated && reads_idle && !reload_pending) break;
    if (now > deadline) {
      for (Conn* conn : conns) {
        if (conn->fd >= 0 && !conn->pending.empty()) fail_conn(conn);
      }
      break;
    }

    Clock::time_point wake = deadline;
    if (open && next < total) wake = std::min(wake, due_of(next));
    if (!open) wake = std::min(wake, closed_started ? window_end : start);
    if (reloads != nullptr && admin_ != nullptr && admin_->pending.empty() &&
        reloads->NextDue() < window_end) {
      wake = std::min(wake, reloads->NextDue());
    }
    auto wait_ns = std::max<int64_t>(
        0,
        std::chrono::duration_cast<nanoseconds>(wake - Clock::now()).count());
    // Open loop: wake up spin_ahead_ns early and poll (zero timeout) until
    // the request is due, so its send time does not wait on the vCPU
    // waking from idle.
    if (open && next < total) {
      wait_ns = std::max<int64_t>(0, wait_ns - spin_ahead_ns_);
    }
    timespec ts;
    ts.tv_sec = static_cast<time_t>(wait_ns / 1000000000);
    ts.tv_nsec = static_cast<long>(wait_ns % 1000000000);
    int ready = ::epoll_pwait2(epoll_fd_, events.data(),
                               static_cast<int>(events.size()), &ts, nullptr);
    if (ready < 0) {
      if (errno == EINTR) continue;
      break;
    }
    for (int e = 0; e < ready; ++e) {
      Conn* conn = static_cast<Conn*>(events[e].data.ptr);
      if (conn->fd < 0) continue;
      if (events[e].events & (EPOLLIN | EPOLLERR | EPOLLHUP)) on_readable(conn);
      if (conn->fd >= 0 && (events[e].events & EPOLLOUT)) flush(conn);
    }
  }
  return st;
}

// ---- SyncClient -------------------------------------------------------------

util::Result<std::unique_ptr<SyncClient>> SyncClient::Connect(uint16_t port) {
  auto fd = ConnectLoopback(port);
  if (!fd.ok()) return fd.status();
  return std::unique_ptr<SyncClient>(new SyncClient(*fd));
}

SyncClient::~SyncClient() {
  if (fd_ >= 0) ::close(fd_);
}

util::Result<std::string> SyncClient::Request(const std::string& line) {
  std::string out = line + "\n";
  size_t off = 0;
  while (off < out.size()) {
    ssize_t w = ::send(fd_, out.data() + off, out.size() - off, MSG_NOSIGNAL);
    if (w < 0 && errno == EINTR) continue;
    if (w <= 0) {
      return util::Status::IoError("send: " + std::string(strerror(errno)));
    }
    off += static_cast<size_t>(w);
  }
  char buf[1 << 16];
  for (;;) {
    long len = ResponseLength(inbox_, 0);
    if (len < 0) return util::Status::ParseError("malformed response");
    if (len > 0) {
      std::string response = inbox_.substr(0, static_cast<size_t>(len));
      inbox_.erase(0, static_cast<size_t>(len));
      return response;
    }
    ssize_t r = ::recv(fd_, buf, sizeof(buf), 0);
    if (r < 0 && errno == EINTR) continue;
    if (r <= 0) return util::Status::IoError("connection closed mid-response");
    inbox_.append(buf, static_cast<size_t>(r));
  }
}

}  // namespace benche2e
}  // namespace wikimatch
