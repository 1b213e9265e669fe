// Single-threaded epoll load generator for the serve line protocol: a few
// read connections plus an optional admin connection that hot-reloads the
// server on a schedule, driven either open loop (requests due at a fixed
// rate, timed from when each was due) or closed loop (a fixed number of
// requests in flight per connection).

#ifndef WIKIMATCH_BENCH_E2E_LOADGEN_H_
#define WIKIMATCH_BENCH_E2E_LOADGEN_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "harness.h"
#include "util/result.h"

namespace wikimatch {
namespace benche2e {

/// \brief Reloads sent on the admin connection: reload k is due at
/// origin + (k + 1/2) * period_s and goes out during the first open-loop
/// phase running at or after that time. Paths alternate through `paths`.
struct ReloadPlan {
  std::vector<std::string> paths;
  double period_s = 5.0;
  Clock::time_point origin;
  size_t sent = 0;
  std::string served_path;      ///< path of the last acknowledged reload
  std::vector<double> done_ms;  ///< per acknowledged reload, send -> reply
  uint64_t failed = 0;
  size_t scheduled = 0;  ///< reloads sent since the last Restart()

  /// \brief Restarts the schedule at `now` with `period`.
  void Restart(Clock::time_point now, double period) {
    origin = now;
    period_s = period;
    scheduled = 0;
  }
  Clock::time_point NextDue() const;
};

/// \brief Outcome of one phase on the read connections.
struct PhaseStats {
  std::vector<double> latency_ms;  ///< open loop: per answered read
  std::vector<double> late_ms;     ///< open loop: send time - due time
  uint64_t sent = 0;
  uint64_t answered_in_window = 0;  ///< closed loop: answered before the end
  uint64_t err_replies = 0;
  uint64_t unanswered = 0;  ///< lost to a broken connection or the deadline
  uint64_t framing_errors = 0;
  double window_s = 0.0;
  uint64_t failed() const { return err_replies + unanswered + framing_errors; }
  /// \brief Accumulates another phase of the same kind into this one.
  void Append(const PhaseStats& other);
};

class LoadClient {
 public:
  /// \brief Opens `read_conns` read connections (plus an admin connection
  /// when `admin`) to 127.0.0.1:`port`.
  static util::Result<std::unique_ptr<LoadClient>> Connect(uint16_t port,
                                                           size_t read_conns,
                                                           bool admin);
  ~LoadClient();
  LoadClient(const LoadClient&) = delete;
  LoadClient& operator=(const LoadClient&) = delete;

  /// \brief Open loop: stop sleeping `us` before each request is due and
  /// poll the connections until it is (default 0: sleep until due).
  void set_spin_ahead_us(double us) {
    spin_ahead_ns_ = static_cast<int64_t>(us * 1e3);
  }

  /// \brief Open loop: request i is keys[sequence[i]], due at start +
  /// i / rate on read connection i % read_conns (pipelined: it does not
  /// wait for earlier replies). Latency runs from the due time.
  PhaseStats RunOpenLoop(const std::vector<std::string>& keys,
                         const std::vector<uint32_t>& sequence, double rate,
                         ReloadPlan* reloads);

  /// \brief Closed loop for `seconds`: every read connection keeps
  /// `window` requests in flight, keys[next_key()] each time, sending the
  /// next as soon as one is answered. `answered_in_window` counts replies
  /// received before the window closed.
  PhaseStats RunClosedLoop(const std::vector<std::string>& keys,
                           const std::function<uint32_t()>& next_key,
                           size_t window, double seconds);

 private:
  struct Conn;
  explicit LoadClient(int epoll_fd);
  PhaseStats Run(bool open, const std::vector<std::string>& keys,
                 const std::vector<uint32_t>* sequence, double rate,
                 const std::function<uint32_t()>* next_key, size_t window,
                 double seconds, ReloadPlan* reloads);

  int epoll_fd_ = -1;
  int64_t spin_ahead_ns_ = 0;
  std::vector<std::unique_ptr<Conn>> reads_;
  std::unique_ptr<Conn> admin_;
};

/// \brief Blocking request/response on one connection, for set-up probes
/// and the byte-identity sample.
class SyncClient {
 public:
  static util::Result<std::unique_ptr<SyncClient>> Connect(uint16_t port);
  ~SyncClient();
  SyncClient(const SyncClient&) = delete;
  SyncClient& operator=(const SyncClient&) = delete;

  /// \brief Sends one request line and returns its full response block.
  util::Result<std::string> Request(const std::string& line);

 private:
  explicit SyncClient(int fd) : fd_(fd) {}
  int fd_ = -1;
  std::string inbox_;
};

}  // namespace benche2e
}  // namespace wikimatch

#endif  // WIKIMATCH_BENCH_E2E_LOADGEN_H_
