#include "serve/protocol.h"

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

LineOutcome HandleRequestLine(MatchService* service,
                              const std::string& raw) {
  LineOutcome out;
  std::string line = raw;
  if (!line.empty() && line.back() == '\r') line.pop_back();
  if (line.empty()) return out;
  if (line.size() > kMaxRequestBytes) {
    // The TCP splitter enforces its own (possibly smaller) cap during
    // reassembly; this catches the stdin path, where getline is unbounded.
    out.response = OversizedLineResponse(kMaxRequestBytes);
    out.protocol_error = true;
  } else if (line.find('\0') != std::string::npos) {
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
  std::string line;
  while ((stop == nullptr || !stop->load(std::memory_order_acquire)) &&
         std::getline(in, line)) {
    LineOutcome outcome = HandleRequestLine(service, line);
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
