// End-to-end tests for the epoll TCP serving layer (net::Server): framing
// over real sockets (partial writes, pipelined bursts, unterminated final
// lines), connection and pending-request load shedding, idle timeouts,
// backpressure against slow readers, graceful drain, and — the acceptance
// criterion for hot reload — a reload racing live multi-connection
// traffic with zero dropped and zero cross-generation-mixed responses.
// Runs under TSan via tools/check.sh.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include "match/pipeline.h"
#include "net/server.h"
#include "net/shutdown.h"
#include "serve/match_service.h"
#include "store/snapshot.h"
#include "synth/generator.h"

namespace wikimatch {
namespace {

constexpr char kQuery[] = "filme(receita > 1000000, elenco=?)";

// One corpus + pipeline + snapshot file shared by the suite.
struct Fixture {
  synth::GeneratedCorpus gc;
  match::PipelineResult result;
  match::TranslationDictionary dictionary;
  std::string snapshot_path;
};

const Fixture& GetFixture() {
  static const Fixture* fixture = [] {
    auto* f = new Fixture();
    synth::CorpusGenerator generator(synth::GeneratorOptions::Tiny());
    f->gc = std::move(generator.Generate()).ValueOrDie();
    match::MatchPipeline pipeline(&f->gc.corpus);
    f->result = std::move(pipeline.Run("pt", "en")).ValueOrDie();
    f->dictionary = pipeline.dictionary();
    // ctest runs each TEST as its own process; a per-pid path keeps those
    // processes from truncating each other's snapshot mid-load.
    f->snapshot_path = ::testing::TempDir() + "/net_server_test." +
                       std::to_string(::getpid()) + ".snap";
    store::Snapshot snapshot;
    snapshot.corpus = f->gc.corpus;
    snapshot.dictionary = f->dictionary;
    snapshot.pipelines.emplace(store::LanguagePair("pt", "en"), f->result);
    auto status = store::WriteSnapshotFile(snapshot, f->snapshot_path);
    if (!status.ok()) ADD_FAILURE() << status.ToString();
    return f;
  }();
  return *fixture;
}

// A fixture-snapshot copy stamped as generation `gen` with `gen` delta
// records — same matching payload, distinguishable meta.
std::string WriteGenerationSnapshot(uint64_t gen, const std::string& name) {
  const Fixture& f = GetFixture();
  store::Snapshot snapshot;
  snapshot.corpus = f.gc.corpus;
  snapshot.dictionary = f.dictionary;
  snapshot.pipelines.emplace(store::LanguagePair("pt", "en"), f.result);
  snapshot.meta.generation = gen;
  for (uint64_t g = 1; g <= gen; ++g) {
    snapshot.meta.history.push_back({g, 1, 0, 0, 1, 0});
  }
  std::string path =
      ::testing::TempDir() + "/" + std::to_string(::getpid()) + "." + name;
  auto status = store::WriteSnapshotFile(snapshot, path);
  EXPECT_TRUE(status.ok()) << status.ToString();
  return path;
}

std::unique_ptr<serve::MatchService> LoadService() {
  auto service = serve::MatchService::Load(GetFixture().snapshot_path);
  EXPECT_TRUE(service.ok()) << service.status().ToString();
  return std::move(*service);
}

std::unique_ptr<net::Server> StartServer(serve::MatchService* service,
                                         net::ServerOptions options) {
  auto server = net::Server::Create(service, options);
  EXPECT_TRUE(server.ok()) << server.status().ToString();
  auto status = (*server)->Start();
  EXPECT_TRUE(status.ok()) << status.ToString();
  return std::move(*server);
}

// A deliberately simple blocking client: what a well-behaved (or, when a
// test wants it, badly-behaved) peer would do with the protocol.
class BlockingClient {
 public:
  // `rcv_buf_bytes` shrinks SO_RCVBUF before connecting so a test can
  // keep the peer's TCP window small and trigger server backpressure.
  explicit BlockingClient(uint16_t port, int rcv_buf_bytes = 0) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return;
    if (rcv_buf_bytes > 0) {
      ::setsockopt(fd_, SOL_SOCKET, SO_RCVBUF, &rcv_buf_bytes,
                   sizeof(rcv_buf_bytes));
    }
    timeval timeout{10, 0};  // a stuck read fails the test, never hangs it
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
    sockaddr_in addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
        0) {
      ::close(fd_);
      fd_ = -1;
    }
  }
  ~BlockingClient() { Close(); }
  BlockingClient(const BlockingClient&) = delete;
  BlockingClient& operator=(const BlockingClient&) = delete;

  bool connected() const { return fd_ >= 0; }
  void Close() {
    if (fd_ >= 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }
  void ShutdownWrite() { ::shutdown(fd_, SHUT_WR); }

  bool SendRaw(const std::string& data) {
    size_t off = 0;
    while (off < data.size()) {
      ssize_t w = ::send(fd_, data.data() + off, data.size() - off,
                         MSG_NOSIGNAL);
      if (w < 0) {
        if (errno == EINTR) continue;
        return false;
      }
      off += static_cast<size_t>(w);
    }
    return true;
  }

  bool ReadLine(std::string* line) {
    for (;;) {
      size_t newline = rbuf_.find('\n');
      if (newline != std::string::npos) {
        line->assign(rbuf_, 0, newline);
        rbuf_.erase(0, newline + 1);
        return true;
      }
      char buf[4096];
      ssize_t r = ::recv(fd_, buf, sizeof(buf), 0);
      if (r > 0) {
        rbuf_.append(buf, static_cast<size_t>(r));
        continue;
      }
      if (r < 0 && errno == EINTR) continue;
      return false;  // EOF or timeout
    }
  }

  // Reads one full protocol response ("ok N" + N lines, or a single err
  // line), returned with newlines so it compares byte-for-byte against
  // MatchService::Handle. Empty means EOF/timeout — a dropped response.
  std::string ReadResponse() {
    std::string line;
    if (!ReadLine(&line)) return "";
    std::string block = line + "\n";
    if (line.compare(0, 3, "ok ") == 0) {
      size_t body_lines = std::stoul(line.substr(3));
      for (size_t i = 0; i < body_lines; ++i) {
        if (!ReadLine(&line)) return block;  // truncated: caller notices
        block += line + "\n";
      }
    }
    return block;
  }

  bool AtEof() {
    if (!rbuf_.empty()) return false;
    char c;
    ssize_t r = ::recv(fd_, &c, 1, 0);
    if (r > 0) rbuf_.push_back(c);
    return r == 0;
  }

 private:
  int fd_ = -1;
  std::string rbuf_;
};

// ----------------------------------------------------------------- framing

TEST(NetServerTest, SpeaksTheProtocolOverTcp) {
  auto service = LoadService();
  net::ServerOptions options;
  options.num_threads = 2;
  auto server = StartServer(service.get(), options);
  ASSERT_NE(server->port(), 0);

  BlockingClient client(server->port());
  ASSERT_TRUE(client.connected());
  const std::string request = "alignments pt:en film";
  std::string baseline = service->Handle(request);
  ASSERT_TRUE(client.SendRaw(request + "\n"));
  EXPECT_EQ(client.ReadResponse(), baseline);
  ASSERT_TRUE(client.SendRaw("health\n"));
  std::string health = client.ReadResponse();
  EXPECT_EQ(health.compare(0, 25, "ok 1\nhealthy generation=0"), 0)
      << health;
  server->Shutdown();
  server->Wait();
  EXPECT_GE(server->Stats().requests, 2u);
}

TEST(NetServerTest, ReassemblesPartialWrites) {
  auto service = LoadService();
  auto server = StartServer(service.get(), net::ServerOptions());
  BlockingClient client(server->port());
  ASSERT_TRUE(client.connected());
  std::string baseline = service->Handle("alignments pt:en film");
  for (const char* piece : {"alig", "nments pt", ":en", " film", "\n"}) {
    ASSERT_TRUE(client.SendRaw(piece));
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(client.ReadResponse(), baseline);
}

TEST(NetServerTest, AnswersAPipelinedBurstInOrder) {
  auto service = LoadService();
  auto server = StartServer(service.get(), net::ServerOptions());
  const std::vector<std::string> requests = {
      "alignments pt:en film", "types pt:en", "pairs",
      std::string("query pt:en ") + kQuery};
  std::vector<std::string> baselines;
  std::string burst;
  for (const auto& request : requests) {
    baselines.push_back(service->Handle(request));
    burst += request + "\n";
  }
  BlockingClient client(server->port());
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(client.SendRaw(burst));
  for (size_t i = 0; i < requests.size(); ++i) {
    EXPECT_EQ(client.ReadResponse(), baselines[i]) << requests[i];
  }
}

TEST(NetServerTest, QuitAnswersEarlierRequestsThenCloses) {
  auto service = LoadService();
  auto server = StartServer(service.get(), net::ServerOptions());
  BlockingClient client(server->port());
  ASSERT_TRUE(client.connected());
  std::string baseline = service->Handle("pairs");
  // quit is answered; the request after it must never be.
  ASSERT_TRUE(client.SendRaw("pairs\nquit\npairs\n"));
  EXPECT_EQ(client.ReadResponse(), baseline);
  EXPECT_EQ(client.ReadResponse(), "ok 1\nbye\n");
  EXPECT_TRUE(client.AtEof());
}

TEST(NetServerTest, EverySpellingOfQuitAnswersByeThenCloses) {
  auto service = LoadService();
  auto server = StartServer(service.get(), net::ServerOptions());
  for (const char* quit : {"quit ", "\"quit\"", "quit\r", "exit"}) {
    BlockingClient client(server->port());
    ASSERT_TRUE(client.connected());
    ASSERT_TRUE(client.SendRaw(std::string(quit) + "\npairs\n"));
    EXPECT_EQ(client.ReadResponse(), "ok 1\nbye\n") << quit;
    EXPECT_TRUE(client.AtEof()) << quit;
  }
}

TEST(NetServerTest, SurplusArgumentsAndQuotedAttributesOverTcp) {
  auto service = LoadService();
  auto server = StartServer(service.get(), net::ServerOptions());
  BlockingClient client(server->port());
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(client.SendRaw(
      "pairs extra\nsync-status extra\n"
      "attr pt:en film pt \"direção\"\nattr pt:en film pt direção\n"));
  EXPECT_EQ(client.ReadResponse(), "err InvalidArgument: usage: pairs\n");
  EXPECT_EQ(client.ReadResponse(),
            "err InvalidArgument: usage: sync-status\n");
  const std::string unquoted = service->Handle("attr pt:en film pt direção");
  EXPECT_EQ(unquoted, "ok 1\nen:directed by\n");
  EXPECT_EQ(client.ReadResponse(), unquoted);
  EXPECT_EQ(client.ReadResponse(), unquoted);
  // A usage error is the service's answer, not a protocol error.
  EXPECT_EQ(server->Stats().protocol_errors, 0u);
}

TEST(NetServerTest, ServesTheUnterminatedFinalLine) {
  auto service = LoadService();
  auto server = StartServer(service.get(), net::ServerOptions());
  BlockingClient client(server->port());
  ASSERT_TRUE(client.connected());
  std::string baseline = service->Handle("types pt:en");
  ASSERT_TRUE(client.SendRaw("pairs\ntypes pt:en"));
  client.ShutdownWrite();  // half-close: no newline ever arrives
  EXPECT_EQ(client.ReadResponse(), service->Handle("pairs"));
  EXPECT_EQ(client.ReadResponse(), baseline);
  EXPECT_TRUE(client.AtEof());
}

// ------------------------------------------------------------ load shedding

TEST(NetServerTest, ShedsBeyondMaxConnectionsWithABusyReply) {
  auto service = LoadService();
  net::ServerOptions options;
  options.num_threads = 1;  // deterministic accept ordering
  options.max_connections = 2;
  auto server = StartServer(service.get(), options);

  BlockingClient first(server->port());
  BlockingClient second(server->port());
  ASSERT_TRUE(first.connected());
  ASSERT_TRUE(second.connected());
  // A round-trip guarantees both are accepted (not just SYN-acked)
  // before the third connection arrives.
  ASSERT_TRUE(first.SendRaw("health\n"));
  ASSERT_FALSE(first.ReadResponse().empty());
  ASSERT_TRUE(second.SendRaw("health\n"));
  ASSERT_FALSE(second.ReadResponse().empty());

  BlockingClient third(server->port());
  ASSERT_TRUE(third.connected());
  std::string line;
  ASSERT_TRUE(third.ReadLine(&line));
  EXPECT_EQ(line, "err Unavailable: server overloaded, retry later");
  EXPECT_TRUE(third.AtEof());

  // Room opens up again once an active connection leaves.
  first.Close();
  net::ServerStats stats = server->Stats();
  EXPECT_EQ(stats.shed, 1u);
  EXPECT_EQ(stats.accepted, 3u);
}

TEST(NetServerTest, ZeroPendingWatermarkShedsEveryAccept) {
  auto service = LoadService();
  net::ServerOptions options;
  options.num_threads = 1;
  options.max_pending_requests = 0;  // maintenance mode
  auto server = StartServer(service.get(), options);
  BlockingClient client(server->port());
  ASSERT_TRUE(client.connected());
  std::string line;
  ASSERT_TRUE(client.ReadLine(&line));
  EXPECT_EQ(line.rfind("err Unavailable: ", 0), 0u) << line;
  EXPECT_TRUE(client.AtEof());
  EXPECT_EQ(server->Stats().shed, 1u);
}

TEST(NetServerTest, IdleConnectionsAreClosed) {
  auto service = LoadService();
  net::ServerOptions options;
  options.num_threads = 1;
  options.idle_timeout_ms = 100;
  auto server = StartServer(service.get(), options);
  BlockingClient client(server->port());
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(client.SendRaw("health\n"));
  ASSERT_FALSE(client.ReadResponse().empty());
  // Silence. The sweep closes us within a few timeout periods.
  EXPECT_TRUE(client.AtEof());
  EXPECT_GE(server->Stats().idle_closed, 1u);
}

// -------------------------------------------------------- adversarial input

TEST(NetServerTest, OversizedLineGetsAnErrorAndFramingRecovers) {
  auto service = LoadService();
  net::ServerOptions options;
  options.max_line_bytes = 128;
  auto server = StartServer(service.get(), options);
  BlockingClient client(server->port());
  ASSERT_TRUE(client.connected());
  std::string huge(4096, 'a');
  ASSERT_TRUE(client.SendRaw(huge + "\nversion\n"));
  std::string line;
  ASSERT_TRUE(client.ReadLine(&line));
  EXPECT_EQ(line, "err OutOfRange: request line exceeds 128 bytes");
  // The stream resynchronizes at the newline: the next request works.
  EXPECT_EQ(client.ReadResponse(), service->Handle("version"));
  EXPECT_EQ(server->Stats().protocol_errors, 1u);
}

TEST(NetServerTest, EmbeddedNulGetsAProtocolError) {
  auto service = LoadService();
  auto server = StartServer(service.get(), net::ServerOptions());
  BlockingClient client(server->port());
  ASSERT_TRUE(client.connected());
  std::string request = "heal";
  request += '\0';
  request += "th\n";
  ASSERT_TRUE(client.SendRaw(request));
  std::string line;
  ASSERT_TRUE(client.ReadLine(&line));
  EXPECT_EQ(line, "err InvalidArgument: request contains a NUL byte");
  EXPECT_EQ(server->Stats().protocol_errors, 1u);
}

// -------------------------------------------------------------- backpressure

TEST(NetServerTest, SlowReaderTriggersBackpressureNotUnboundedBuffering) {
  auto service = LoadService();
  net::ServerOptions options;
  options.num_threads = 1;
  options.write_buffer_limit = 1024;
  options.send_buffer_bytes = 4096;  // small SO_SNDBUF: kernel fills fast
  auto server = StartServer(service.get(), options);

  // A client with a tiny receive window that pipelines a few hundred
  // requests and reads nothing until the end.
  BlockingClient client(server->port(), /*rcv_buf_bytes=*/2048);
  ASSERT_TRUE(client.connected());
  const std::string request = "alignments pt:en film";
  std::string baseline = service->Handle(request);
  constexpr int kRequests = 300;
  std::string burst;
  for (int i = 0; i < kRequests; ++i) burst += request + "\n";
  ASSERT_TRUE(client.SendRaw(burst));
  // Wait (bounded) for the server to fill the write buffer and pause;
  // a fixed sleep flakes when the box is busy.
  for (int i = 0; i < 500 && server->Stats().backpressure_pauses == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_GE(server->Stats().backpressure_pauses, 1u);

  // Draining the socket resumes reading; every response arrives intact
  // and in order — backpressure lost nothing.
  for (int i = 0; i < kRequests; ++i) {
    ASSERT_EQ(client.ReadResponse(), baseline) << "response " << i;
  }
  EXPECT_EQ(server->Stats().requests, static_cast<uint64_t>(kRequests));
}

// ------------------------------------------------------------ graceful drain

TEST(NetServerTest, GracefulDrainAnswersThenRefusesNewConnections) {
  auto service = LoadService();
  net::ServerOptions options;
  options.num_threads = 2;
  auto server = StartServer(service.get(), options);
  uint16_t port = server->port();

  BlockingClient client(port);
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(client.SendRaw("pairs\n"));
  EXPECT_EQ(client.ReadResponse(), service->Handle("pairs"));

  server->Shutdown();  // same path SIGINT/SIGTERM take
  server->Wait();
  EXPECT_TRUE(client.AtEof());  // drained, not reset

  BlockingClient late(port);
  EXPECT_FALSE(late.connected());  // listener is gone
}

TEST(NetServerTest, ExternalShutdownFlagDrainsTheServer) {
  auto service = LoadService();
  net::ShutdownFlag flag;
  net::ServerOptions options;
  auto server = net::Server::Create(service.get(), options, &flag);
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  auto status = (*server)->Start();
  ASSERT_TRUE(status.ok()) << status.ToString();
  BlockingClient client((*server)->port());
  ASSERT_TRUE(client.connected());
  // A round-trip guarantees the connection was accepted (not still in the
  // listen backlog, where a drain would reset rather than FIN it).
  ASSERT_TRUE(client.SendRaw("health\n"));
  ASSERT_FALSE(client.ReadResponse().empty());
  flag.Request();  // what the signal handler does
  (*server)->Wait();
  EXPECT_TRUE(client.AtEof());
}

// ------------------------------------------------------- reload under load

// The acceptance criterion: a hot reload racing live TCP traffic drops
// nothing and mixes nothing. Both snapshot generations carry the same
// matching payload, so every data response must be byte-identical to its
// baseline regardless of which generation served it; the generation verb
// must always describe exactly one generation, never a blend.
TEST(NetServerTest, ReloadUnderLiveTrafficDropsAndMixesNothing) {
  std::string next = WriteGenerationSnapshot(1, "net_stress_g1.snap");
  auto service = LoadService();
  net::ServerOptions options;
  options.num_threads = 2;
  auto server = StartServer(service.get(), options);

  const std::vector<std::string> requests = {
      std::string("query pt:en ") + kQuery,
      "alignments pt:en film",
      "types pt:en",
      "attr pt:en film en starring",
  };
  std::vector<std::string> baselines;
  for (const auto& request : requests) {
    baselines.push_back(service->Handle(request));
    ASSERT_EQ(baselines.back().compare(0, 3, "ok "), 0) << baselines.back();
  }

  constexpr int kReaders = 6;
  constexpr int kPerReader = 100;
  std::atomic<int> dropped{0};
  std::atomic<int> mismatches{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&, t]() {
      BlockingClient client(server->port());
      if (!client.connected()) {
        dropped.fetch_add(kPerReader);
        return;
      }
      for (int i = 0; i < kPerReader; ++i) {
        size_t pick = static_cast<size_t>(i + t) % requests.size();
        if (!client.SendRaw(requests[pick] + "\n")) {
          dropped.fetch_add(1);
          continue;
        }
        std::string response = client.ReadResponse();
        if (response.empty()) {
          dropped.fetch_add(1);  // timeout or EOF: a dropped response
        } else if (response != baselines[pick]) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  // One client watches the generation verb for torn answers.
  std::atomic<int> torn{0};
  std::thread watcher([&]() {
    BlockingClient client(server->port());
    if (!client.connected()) {
      torn.fetch_add(1);
      return;
    }
    for (int i = 0; i < 120; ++i) {
      if (!client.SendRaw("generation\n")) {
        torn.fetch_add(1);
        break;
      }
      std::string response = client.ReadResponse();
      bool gen0 = response.find("generation=0 ") != std::string::npos &&
                  response.find(" deltas_applied=0") != std::string::npos;
      bool gen1 = response.find("generation=1 ") != std::string::npos &&
                  response.find(" deltas_applied=1") != std::string::npos;
      if (gen0 == gen1) torn.fetch_add(1);  // neither, or a blend
    }
  });
  // The writer hot-swaps generations through the protocol, over TCP.
  std::atomic<int> failed_reloads{0};
  std::thread writer([&]() {
    BlockingClient client(server->port());
    if (!client.connected()) {
      failed_reloads.fetch_add(1);
      return;
    }
    for (int i = 0; i < 14; ++i) {
      const std::string& path =
          i % 2 == 0 ? next : GetFixture().snapshot_path;
      if (!client.SendRaw("reload " + path + "\n")) {
        failed_reloads.fetch_add(1);
        continue;
      }
      if (client.ReadResponse().compare(0, 3, "ok ") != 0) {
        failed_reloads.fetch_add(1);
      }
    }
  });
  for (auto& reader : readers) reader.join();
  watcher.join();
  writer.join();

  EXPECT_EQ(dropped.load(), 0);
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(torn.load(), 0);
  EXPECT_EQ(failed_reloads.load(), 0);
  EXPECT_EQ(service->Stats().loads, 15u);
  net::ServerStats stats = server->Stats();
  EXPECT_GE(stats.requests,
            static_cast<uint64_t>(kReaders * kPerReader + 120 + 14));
  std::remove(next.c_str());
}

// --------------------------------------------------------------- concurrency

// Raises the soft open-file limit to at least `want` where the hard limit
// allows, and returns the soft limit in force afterwards.
rlim_t RaiseFdLimit(rlim_t want) {
  rlimit limit;
  if (::getrlimit(RLIMIT_NOFILE, &limit) != 0) return 0;
  if (limit.rlim_cur < want) {
    limit.rlim_cur = std::min(want, limit.rlim_max);
    if (::setrlimit(RLIMIT_NOFILE, &limit) != 0) return 0;
  }
  return limit.rlim_cur;
}

// Every connection pipelines a health probe, a c-query and an attribute
// lookup; each must come back well formed with nothing shed. 1,000 clients
// is close to the default max_connections (1,024) of `serve --listen`.
TEST(NetServerTest, ServesManyConcurrentConnections) {
  auto service = LoadService();
  const std::string query = std::string("query pt:en ") + kQuery;
  const std::string attr = "attr pt:en film pt elenco";
  const std::string query_response = service->Handle(query);
  const std::string attr_response = service->Handle(attr);
  ASSERT_EQ(query_response.compare(0, 3, "ok "), 0) << query_response;
  ASSERT_EQ(attr_response.compare(0, 3, "ok "), 0) << attr_response;
  for (size_t num_clients : {size_t{50}, size_t{1000}}) {
    SCOPED_TRACE(std::to_string(num_clients) + " clients");
    // Both ends of every connection are file descriptors of this process.
    const rlim_t fds_needed = 2 * num_clients + 256;
    ASSERT_GE(RaiseFdLimit(fds_needed), fds_needed);
    net::ServerOptions options;
    options.num_threads = 2;
    options.max_connections = num_clients + 64;
    auto server = StartServer(service.get(), options);
    std::vector<std::unique_ptr<BlockingClient>> clients;
    clients.reserve(num_clients);
    for (size_t i = 0; i < num_clients; ++i) {
      clients.push_back(std::make_unique<BlockingClient>(server->port()));
      ASSERT_TRUE(clients.back()->connected()) << "client " << i;
    }
    const std::string requests = "health\n" + query + "\n" + attr + "\n";
    for (auto& client : clients) ASSERT_TRUE(client->SendRaw(requests));
    size_t malformed = 0;
    for (auto& client : clients) {
      std::string health = client->ReadResponse();
      std::string queried = client->ReadResponse();
      std::string attributed = client->ReadResponse();
      if (health.compare(0, 13, "ok 1\nhealthy ") != 0 ||
          queried != query_response || attributed != attr_response) {
        if (malformed++ == 0) {
          ADD_FAILURE() << "first malformed exchange:\n"
                        << health << queried << attributed;
        }
      }
    }
    EXPECT_EQ(malformed, 0u);
    net::ServerStats stats = server->Stats();
    EXPECT_EQ(stats.active_connections, num_clients);
    EXPECT_EQ(stats.shed, 0u);
    EXPECT_EQ(stats.protocol_errors, 0u);
  }
}

}  // namespace
}  // namespace wikimatch
