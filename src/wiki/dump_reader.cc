#include "wiki/dump_reader.h"

#include <cstdlib>
#include <optional>

#include "util/file_io.h"
#include "util/string_util.h"

namespace wikimatch {
namespace wiki {

std::string XmlUnescape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  size_t i = 0;
  while (i < s.size()) {
    if (s[i] != '&') {
      out.push_back(s[i]);
      ++i;
      continue;
    }
    // An entity ends at most 12 bytes after its '&'. Looking no further
    // keeps a run of bare '&' linear.
    size_t semi = s.substr(i + 1, 12).find(';');
    if (semi == std::string_view::npos) {
      out.push_back(s[i]);
      ++i;
      continue;
    }
    semi += i + 1;
    std::string_view ent = s.substr(i + 1, semi - i - 1);
    if (ent == "lt") {
      out.push_back('<');
    } else if (ent == "gt") {
      out.push_back('>');
    } else if (ent == "amp") {
      out.push_back('&');
    } else if (ent == "quot") {
      out.push_back('"');
    } else if (ent == "apos") {
      out.push_back('\'');
    } else if (!ent.empty() && ent[0] == '#') {
      long cp = 0;
      if (ent.size() > 2 && (ent[1] == 'x' || ent[1] == 'X')) {
        cp = std::strtol(std::string(ent.substr(2)).c_str(), nullptr, 16);
      } else {
        cp = std::strtol(std::string(ent.substr(1)).c_str(), nullptr, 10);
      }
      if (cp > 0 && cp <= 0x10FFFF) {
        // Inline UTF-8 encoding of the code point.
        char32_t c = static_cast<char32_t>(cp);
        if (c < 0x80) {
          out.push_back(static_cast<char>(c));
        } else if (c < 0x800) {
          out.push_back(static_cast<char>(0xC0 | (c >> 6)));
          out.push_back(static_cast<char>(0x80 | (c & 0x3F)));
        } else if (c < 0x10000) {
          out.push_back(static_cast<char>(0xE0 | (c >> 12)));
          out.push_back(static_cast<char>(0x80 | ((c >> 6) & 0x3F)));
          out.push_back(static_cast<char>(0x80 | (c & 0x3F)));
        } else {
          out.push_back(static_cast<char>(0xF0 | (c >> 18)));
          out.push_back(static_cast<char>(0x80 | ((c >> 12) & 0x3F)));
          out.push_back(static_cast<char>(0x80 | ((c >> 6) & 0x3F)));
          out.push_back(static_cast<char>(0x80 | (c & 0x3F)));
        }
      }
    } else {
      // Unknown entity: keep verbatim.
      out.append(s.substr(i, semi - i + 1));
    }
    i = semi + 1;
  }
  return out;
}

std::string XmlEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '<':
        out += "&lt;";
        break;
      case '>':
        out += "&gt;";
        break;
      case '&':
        out += "&amp;";
        break;
      case '"':
        out += "&quot;";
        break;
      default:
        out.push_back(c);
    }
  }
  return out;
}

namespace {

// The open and close markers of one element: `<tag>` and the attribute
// form `<tag attr="...">` open it, `</tag>` closes it.
struct Tag {
  std::string_view open;
  std::string_view open_with_attrs;
  std::string_view close;
};

constexpr Tag kTitle{"<title>", "<title ", "</title>"};
constexpr Tag kNs{"<ns>", "<ns ", "</ns>"};
constexpr Tag kText{"<text>", "<text ", "</text>"};

// Returns the unescaped text content of the first `tag` element in `page`,
// or nullopt when the element is absent or not closed within `page`.
std::optional<std::string> ExtractElement(std::string_view page,
                                          const Tag& tag) {
  size_t open_pos = page.find(tag.open);
  size_t open_len = tag.open.size();
  size_t alt = page.find(tag.open_with_attrs);
  if (alt != std::string_view::npos &&
      (open_pos == std::string_view::npos || alt < open_pos)) {
    // Attribute form: skip to the closing '>'.
    size_t gt = page.find('>', alt);
    if (gt == std::string_view::npos) return std::nullopt;
    open_pos = alt;
    open_len = gt - alt + 1;
  }
  if (open_pos == std::string_view::npos) return std::nullopt;
  size_t body_start = open_pos + open_len;
  size_t close_pos = page.find(tag.close, body_start);
  if (close_pos == std::string_view::npos) return std::nullopt;
  return XmlUnescape(page.substr(body_start, close_pos - body_start));
}

}  // namespace

util::Result<std::vector<DumpPage>> ParseDump(std::string_view xml) {
  constexpr std::string_view kPageOpen = "<page>";
  constexpr std::string_view kPageClose = "</page>";
  std::vector<DumpPage> pages;
  size_t pos = 0;
  while (true) {
    size_t page_open = xml.find(kPageOpen, pos);
    if (page_open == std::string_view::npos) break;
    size_t page_close = xml.find(kPageClose, page_open);
    if (page_close == std::string_view::npos) {
      return util::Status::ParseError("unterminated <page> element");
    }
    // Every search below stays inside this page, which keeps the reader
    // linear in the input. Bounding them changes no result: no suffix of
    // a marker searched for is a prefix of "</page>", so none can
    // straddle the page's end, and an attribute-form open tag whose '>'
    // lies past the end has no close tag inside the page either.
    std::string_view page = xml.substr(page_open, page_close - page_open);
    std::optional<std::string> title = ExtractElement(page, kTitle);
    if (!title.has_value()) {
      return util::Status::ParseError("<page> without <title>");
    }
    DumpPage& out = pages.emplace_back();
    out.title = std::move(*title);
    if (std::optional<std::string> ns = ExtractElement(page, kNs)) {
      out.ns = std::atoi(ns->c_str());
    }
    out.is_redirect = page.find("<redirect") != std::string_view::npos;
    if (std::optional<std::string> text = ExtractElement(page, kText)) {
      out.text = std::move(*text);
    }
    pos = page_close + kPageClose.size();
  }
  return pages;
}

util::Result<std::vector<DumpPage>> ReadDumpFile(const std::string& path) {
  WIKIMATCH_ASSIGN_OR_RETURN(std::string xml, util::ReadFile(path));
  return ParseDump(xml);
}

std::string WriteDump(const std::vector<DumpPage>& pages,
                      std::string_view language) {
  std::string out;
  out += "<mediawiki xml:lang=\"" + std::string(language) + "\">\n";
  for (const auto& page : pages) {
    out += "  <page>\n";
    out += "    <title>" + XmlEscape(page.title) + "</title>\n";
    out += "    <ns>" + std::to_string(page.ns) + "</ns>\n";
    if (page.is_redirect) out += "    <redirect/>\n";
    out += "    <revision>\n      <text xml:space=\"preserve\">" +
           XmlEscape(page.text) + "</text>\n    </revision>\n";
    out += "  </page>\n";
  }
  out += "</mediawiki>\n";
  return out;
}

}  // namespace wiki
}  // namespace wikimatch
