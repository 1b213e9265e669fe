// Reference dump reader for differential tests: the XmlUnescape,
// ExtractElement and ParseDump of the reader before its searches were
// confined to the current <page>. Each search there runs to the end of
// the document and is compared with the page's end afterwards, so a
// parse is quadratic in the number of pages; it is kept here only to pin
// the current reader's results, byte for byte and error for error.

#ifndef WIKIMATCH_TESTS_DUMP_ORACLE_H_
#define WIKIMATCH_TESTS_DUMP_ORACLE_H_

#include <cstdlib>
#include <string>
#include <string_view>
#include <vector>

#include "util/result.h"
#include "wiki/dump_reader.h"

namespace wikimatch {
namespace dump_oracle {

inline std::string XmlUnescape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  size_t i = 0;
  while (i < s.size()) {
    if (s[i] != '&') {
      out.push_back(s[i]);
      ++i;
      continue;
    }
    size_t semi = s.find(';', i + 1);
    if (semi == std::string_view::npos || semi - i > 12) {
      out.push_back(s[i]);
      ++i;
      continue;
    }
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

// Extracts the text content of the first <tag ...>...</tag> in `s` starting
// at `from`. Returns false when the open tag is absent. Sets *next to just
// past the close tag.
inline bool ExtractElement(std::string_view s, std::string_view tag,
                           size_t from, size_t limit, std::string* content,
                           size_t* next) {
  std::string open1 = "<" + std::string(tag) + ">";
  std::string open2 = "<" + std::string(tag) + " ";
  std::string close = "</" + std::string(tag) + ">";
  size_t open_pos = s.find(open1, from);
  size_t open_len = open1.size();
  size_t alt = s.find(open2, from);
  if (alt != std::string_view::npos &&
      (open_pos == std::string_view::npos || alt < open_pos)) {
    // Attribute form: skip to the closing '>'.
    size_t gt = s.find('>', alt);
    if (gt == std::string_view::npos) return false;
    open_pos = alt;
    open_len = gt - alt + 1;
  }
  if (open_pos == std::string_view::npos || open_pos >= limit) return false;
  size_t body_start = open_pos + open_len;
  size_t close_pos = s.find(close, body_start);
  if (close_pos == std::string_view::npos || close_pos > limit) return false;
  *content = XmlUnescape(s.substr(body_start, close_pos - body_start));
  if (next != nullptr) *next = close_pos + close.size();
  return true;
}

inline util::Result<std::vector<wiki::DumpPage>> ParseDump(
    std::string_view xml) {
  std::vector<wiki::DumpPage> pages;
  size_t pos = 0;
  while (true) {
    size_t page_open = xml.find("<page>", pos);
    if (page_open == std::string_view::npos) break;
    size_t page_close = xml.find("</page>", page_open);
    if (page_close == std::string_view::npos) {
      return util::Status::ParseError("unterminated <page> element");
    }
    wiki::DumpPage page;
    std::string content;
    if (!ExtractElement(xml, "title", page_open, page_close, &content,
                        nullptr)) {
      return util::Status::ParseError("<page> without <title>");
    }
    page.title = content;
    if (ExtractElement(xml, "ns", page_open, page_close, &content, nullptr)) {
      page.ns = std::atoi(content.c_str());
    }
    page.is_redirect =
        xml.substr(page_open, page_close - page_open).find("<redirect") !=
        std::string_view::npos;
    if (ExtractElement(xml, "text", page_open, page_close, &content,
                       nullptr)) {
      page.text = content;
    }
    pages.push_back(std::move(page));
    pos = page_close + 7;
  }
  return pages;
}

}  // namespace dump_oracle
}  // namespace wikimatch

#endif  // WIKIMATCH_TESTS_DUMP_ORACLE_H_
