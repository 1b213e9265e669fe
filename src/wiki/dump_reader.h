// MediaWiki XML dump reader.
//
// Parses the subset of the pages-articles dump schema needed to extract
// (title, wikitext) pairs: <mediawiki><page><title/><ns/><redirect/>
// <revision><text/></revision></page>... A hand-rolled scanner — no XML
// library dependency — with entity unescaping. It is not streaming: the
// whole dump is held in memory, then each <page> is located once and its
// fields are searched for within that page only, so a parse is linear in
// the input.

#ifndef WIKIMATCH_WIKI_DUMP_READER_H_
#define WIKIMATCH_WIKI_DUMP_READER_H_

#include <string>
#include <string_view>
#include <vector>

#include "util/result.h"

namespace wikimatch {
namespace wiki {

/// \brief One <page> element of a dump.
struct DumpPage {
  std::string title;
  /// Namespace number; 0 is the main/article namespace.
  int ns = 0;
  /// True when the page is a redirect (has a <redirect/> element).
  bool is_redirect = false;
  /// Wikitext of the latest revision.
  std::string text;
};

/// \brief Unescapes the five predefined XML entities plus numeric
/// references (&#...; and &#x...;).
std::string XmlUnescape(std::string_view s);

/// \brief Escapes text for embedding in an XML element.
std::string XmlEscape(std::string_view s);

/// \brief Parses a dump from memory. Returns ParseError on structural
/// problems (unterminated elements).
util::Result<std::vector<DumpPage>> ParseDump(std::string_view xml);

/// \brief Reads and parses a dump file. Reads until EOF, so pipes and
/// /proc files work; returns IoError when the path cannot be opened or
/// read (a directory, for one).
util::Result<std::vector<DumpPage>> ReadDumpFile(const std::string& path);

/// \brief Serializes pages into dump XML (used by the synthetic generator
/// to exercise the full ingest path, and by tests for round-tripping).
std::string WriteDump(const std::vector<DumpPage>& pages,
                      std::string_view language);

}  // namespace wiki
}  // namespace wikimatch

#endif  // WIKIMATCH_WIKI_DUMP_READER_H_
