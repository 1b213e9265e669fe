// Line-oriented request/response framing for MatchService, shared by every
// transport: one request per input line, one "ok <n>"/"err <Class>: <msg>"
// response block per request. `ServeLoop` runs the protocol on any
// istream/ostream pair (so `wikimatch serve` is scriptable over stdin/stdout
// and tests drive it with stringstreams); `net::Server` runs the same
// per-line semantics over TCP sockets via `LineSplitter` +
// `HandleRequestLine`, so the two paths cannot drift apart.

#ifndef WIKIMATCH_SERVE_PROTOCOL_H_
#define WIKIMATCH_SERVE_PROTOCOL_H_

#include <atomic>
#include <cstddef>
#include <istream>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "serve/match_service.h"
#include "util/status.h"

namespace wikimatch {
namespace serve {

/// Version of the line protocol (reported by the `version` verb so load
/// balancers and clients can gate on capabilities). 1 = the original verb
/// set; 2 adds `health` and `version`; 3 adds `sync` and `sync-status`;
/// 4 reads every verb's declared arguments by one grammar, answers every
/// error as `err <Class>: <message>`, and answers `quit` with `bye`.
inline constexpr int kProtocolVersion = 4;

/// Human-readable server release, also reported by `version`.
inline constexpr char kServerVersion[] = "0.7.0";

/// \brief What a verb needs from the generation serving its request.
enum class VerbScope {
  kMeta,  ///< answers from the meta section; never builds the core
  kCore,  ///< needs the generation's core (built on first use)
  kPair,  ///< needs the core and a `<src>:<tgt>` pair the snapshot holds
};

/// \brief One declared argument of a verb.
struct ArgSpec {
  const char* name;  ///< as `help` and usage errors show it: "<type_b>"
  enum Kind {
    kToken,         ///< one blank-delimited or double-quoted token
    kRest,          ///< the rest of the line (a last argument only)
    kOptionalRest,  ///< the rest of the line, or nothing
  } kind = kToken;
};

/// \brief One protocol verb. This table is the single description of the
/// verb set: `help` and usage errors render it, MatchService::Handle()
/// parses and routes every request by it, and serve_test checks the
/// docs/SERVING.md verb table against it. A request is the verb, a pair
/// row's `<src>:<tgt>` token, then `args`; a line that does not fit them
/// is the row's usage error, answered before the core or pair is touched.
struct VerbSpec {
  const char* verb;
  std::vector<ArgSpec> args;  ///< after the pair token of a kPair row
  const char* description;    ///< one-line summary shown by `help`
  VerbScope scope;
  /// True: successful answers are cached under the serving generation.
  /// False: the verb never touches the cache.
  bool cacheable;
  MatchService::VerbHandler handler;
};

/// \brief Every verb of protocol version kProtocolVersion (defined with
/// the handlers, in match_service.cc).
const std::vector<VerbSpec>& ProtocolVerbs();

/// \brief The row of `verb` in ProtocolVerbs(), or null; `exit` is the
/// undocumented alias of `quit`.
const VerbSpec* FindVerb(std::string_view verb);

/// Hard cap on one request line, on every transport. Longer lines are
/// answered with a protocol error and discarded — the TCP splitter never
/// buffers more than this per line, so a hostile peer cannot balloon the
/// server by withholding the newline.
inline constexpr size_t kMaxRequestBytes = 64 * 1024;

/// \brief Incremental splitter turning a raw byte stream into protocol
/// lines: reassembles lines across arbitrary chunk boundaries, strips a
/// trailing CR, bounds per-line memory at `max_line_bytes` (an oversized
/// line is reported once, then skipped through its terminating newline so
/// the stream resynchronizes), and surfaces an unterminated final line via
/// Finish() when the peer half-closes.
class LineSplitter {
 public:
  enum class Next {
    kLine,       ///< `*line` holds the next complete request line
    kOversized,  ///< a line exceeded max_line_bytes (reported once)
    kNeedMore    ///< no complete line buffered; Append() more bytes
  };

  explicit LineSplitter(size_t max_line_bytes = kMaxRequestBytes)
      : max_line_bytes_(max_line_bytes) {}

  /// \brief Feeds `size` raw bytes into the splitter.
  void Append(const char* data, size_t size) { buffer_.append(data, size); }

  /// \brief Pulls the next complete line (without its terminator).
  Next Pop(std::string* line);

  /// \brief Surrenders the unterminated tail as a final line at stream
  /// end; false when there is no tail (or the tail belongs to a line
  /// already reported oversized).
  bool Finish(std::string* line);

  /// \brief Bytes currently buffered (bounded by max_line_bytes + one
  /// Append's worth).
  size_t buffered() const { return buffer_.size(); }

 private:
  size_t max_line_bytes_;
  bool skipping_ = false;  // discarding an oversized line up to its \n
  std::string buffer_;
};

/// \brief "err <Class>: <message>\n", the protocol's one error form.
std::string ErrorResponse(const util::Status& status);

/// \brief What one raw request line produced.
struct LineOutcome {
  std::string response;  ///< empty: nothing to send (a blank line)
  bool quit = false;     ///< answered by `quit`: send it, then end
  bool protocol_error = false;  ///< oversized or NUL: never reached Handle
};

/// \brief The per-line semantics shared by the stdin and TCP paths:
/// strips a trailing CR, skips blank lines, rejects oversized and
/// NUL-bearing lines, and otherwise dispatches to the service. Anything
/// else (malformed verbs, broken UTF-8 arguments) is the service's problem
/// and comes back as its "err" response — the transport never crashes on
/// request bytes.
LineOutcome HandleRequestLine(MatchService* service, std::string_view line);

/// \brief The error response for a line the splitter (or the stdin
/// path's length check) flagged as oversized.
std::string OversizedLineResponse(size_t max_line_bytes);

/// \brief Reads request lines from `in` until EOF, an answered `quit`,
/// or `stop` (the shared shutdown flag — see net::InstallShutdownHandlers;
/// a SIGINT/SIGTERM interrupts the blocking read and the loop exits
/// cleanly) becomes true, writing each response to `out` (flushed per
/// request). Blank lines are ignored. Returns the number of answers, the
/// `bye` included; an unterminated final line is served like any other.
/// A line longer than kMaxRequestBytes is answered as oversized, and at
/// most kMaxRequestBytes + 2 bytes of it are ever held in memory.
size_t ServeLoop(std::istream& in, std::ostream& out, MatchService* service,
                 const std::atomic<bool>* stop = nullptr);

}  // namespace serve
}  // namespace wikimatch

#endif  // WIKIMATCH_SERVE_PROTOCOL_H_
