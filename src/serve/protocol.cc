#include "serve/protocol.h"

#include <algorithm>
#include <string>
#include <vector>

namespace wikimatch {
namespace serve {

const VerbSpec* FindVerb(std::string_view verb) {
  if (verb == "exit") verb = "quit";
  for (const VerbSpec& spec : ProtocolVerbs()) {
    if (verb == spec.verb) return &spec;
  }
  return nullptr;
}

const std::vector<std::string>& HelpLines() {
  static const std::vector<std::string> kLines = [] {
    size_t width = 0;
    auto usage = [](const VerbSpec& spec) {
      std::string u = spec.verb;
      if (spec.args[0] != '\0') u += std::string(" ") + spec.args;
      return u;
    };
    for (const VerbSpec& spec : ProtocolVerbs()) {
      width = std::max(width, usage(spec).size());
    }
    std::vector<std::string> lines;
    for (const VerbSpec& spec : ProtocolVerbs()) {
      std::string line = usage(spec);
      line.append(width + 3 - line.size(), ' ');
      line += spec.description;
      lines.push_back(std::move(line));
    }
    lines.push_back(
        "(quote multi-word type names: alignments pt:en \"artista "
        "musical\")");
    return lines;
  }();
  return kLines;
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

LineOutcome HandleRequestLine(MatchService* service,
                              const std::string& raw) {
  LineOutcome out;
  std::string line = raw;
  if (!line.empty() && line.back() == '\r') line.pop_back();
  if (line.empty()) return out;
  if (line == "quit" || line == "exit") {
    out.quit = true;
    return out;
  }
  if (line.size() > kMaxRequestBytes) {
    // The TCP splitter enforces its own (possibly smaller) cap during
    // reassembly; this catches the stdin path, where getline is unbounded.
    out.response = OversizedLineResponse(kMaxRequestBytes);
    return out;
  }
  if (line.find('\0') != std::string::npos) {
    out.response = "err protocol: request contains a NUL byte\n";
    return out;
  }
  out.response = service->Handle(line);
  return out;
}

std::string OversizedLineResponse(size_t max_line_bytes) {
  return "err protocol: request line exceeds " +
         std::to_string(max_line_bytes) + " bytes\n";
}

size_t ServeLoop(std::istream& in, std::ostream& out, MatchService* service,
                 const std::atomic<bool>* stop) {
  size_t served = 0;
  std::string line;
  while ((stop == nullptr || !stop->load(std::memory_order_acquire)) &&
         std::getline(in, line)) {
    LineOutcome outcome = HandleRequestLine(service, line);
    if (outcome.quit) break;
    if (outcome.response.empty()) continue;
    out << outcome.response;
    out.flush();
    ++served;
  }
  return served;
}

}  // namespace serve
}  // namespace wikimatch
