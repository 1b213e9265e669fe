#include "serve/protocol.h"

#include <limits>
#include <string>

namespace wikimatch {
namespace serve {

const VerbSpec* FindVerb(std::string_view verb) {
  if (verb == "exit") verb = "quit";
  for (const VerbSpec& spec : ProtocolVerbs()) {
    if (verb == spec.verb) return &spec;
  }
  return nullptr;
}

LineSplitter::Next LineSplitter::Pop(std::string* line) {
  for (;;) {
    size_t newline = buffer_.find('\n');
    if (skipping_) {
      // Discarding an already-reported oversized line: throw bytes away
      // until its terminator shows up, then resume normal parsing.
      if (newline == std::string::npos) {
        buffer_.clear();
        return Next::kNeedMore;
      }
      buffer_.erase(0, newline + 1);
      skipping_ = false;
      continue;
    }
    if (newline == std::string::npos) {
      if (buffer_.size() > max_line_bytes_) {
        // The line is already too long and its end has not arrived; drop
        // what we have (bounding memory) and skip the rest as it streams.
        buffer_.clear();
        skipping_ = true;
        return Next::kOversized;
      }
      return Next::kNeedMore;
    }
    if (newline > max_line_bytes_) {
      buffer_.erase(0, newline + 1);
      return Next::kOversized;
    }
    line->assign(buffer_, 0, newline);
    if (!line->empty() && line->back() == '\r') line->pop_back();
    buffer_.erase(0, newline + 1);
    return Next::kLine;
  }
}

bool LineSplitter::Finish(std::string* line) {
  if (skipping_) {
    // The tail belongs to a line already reported oversized.
    skipping_ = false;
    buffer_.clear();
    return false;
  }
  if (buffer_.empty()) return false;
  *line = std::move(buffer_);
  buffer_.clear();
  if (!line->empty() && line->back() == '\r') line->pop_back();
  return !line->empty();
}

std::string ErrorResponse(const util::Status& status) {
  return "err " + status.ToString() + "\n";
}

LineOutcome HandleRequestLine(MatchService* service, std::string_view line) {
  LineOutcome out;
  if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
  if (line.empty()) return out;
  if (line.size() > kMaxRequestBytes) {
    // The TCP splitter enforces its own (possibly smaller) cap during
    // reassembly; this catches the stdin path's longest kept line.
    out.response = OversizedLineResponse(kMaxRequestBytes);
    out.protocol_error = true;
  } else if (line.find('\0') != std::string_view::npos) {
    out.response = ErrorResponse(
        util::Status::InvalidArgument("request contains a NUL byte"));
    out.protocol_error = true;
  } else {
    out.response = service->Handle(line, &out.quit);
  }
  return out;
}

std::string OversizedLineResponse(size_t max_line_bytes) {
  return ErrorResponse(util::Status::OutOfRange(
      "request line exceeds " + std::to_string(max_line_bytes) + " bytes"));
}

size_t ServeLoop(std::istream& in, std::ostream& out, MatchService* service,
                 const std::atomic<bool>* stop) {
  size_t served = 0;
  // One line at a time, as a pipe delivers it, but never more than the cap
  // plus one byte (and a CR) of it: the +2 leaves room for the CR that
  // HandleRequestLine strips and for getline's terminating NUL.
  std::string line(kMaxRequestBytes + 2, '\0');
  while (stop == nullptr || !stop->load(std::memory_order_acquire)) {
    in.getline(line.data(), static_cast<std::streamsize>(line.size()));
    const auto kept = static_cast<size_t>(in.gcount());
    LineOutcome outcome;
    if (in.fail() && kept == line.size() - 1) {
      // No newline within the cap: answer the line as oversized and skip
      // the rest of it unread into memory.
      in.clear();
      in.ignore(std::numeric_limits<std::streamsize>::max(), '\n');
      outcome.response = OversizedLineResponse(kMaxRequestBytes);
    } else if (in.fail()) {
      break;  // end of input (or a read interrupted by the stop signal)
    } else {
      // gcount() counts the newline getline consumed, unless the input
      // ended first.
      outcome = HandleRequestLine(
          service, std::string_view(line.data(), in.eof() ? kept : kept - 1));
    }
    if (outcome.response.empty()) continue;
    out << outcome.response;
    out.flush();
    ++served;
    if (outcome.quit) break;
  }
  return served;
}

}  // namespace serve
}  // namespace wikimatch
