// Whole-file reads and writes for the files the CLI takes by path
// (MediaWiki dumps, `match --tsv` output).

#ifndef WIKIMATCH_UTIL_FILE_IO_H_
#define WIKIMATCH_UTIL_FILE_IO_H_

#include <string>

#include "util/result.h"

namespace wikimatch {
namespace util {

/// \brief The bytes of `path`, read to EOF rather than sized by seeking, so
/// a pipe or a /proc file reads its real content. IoError naming the path
/// when it cannot be opened or read (a directory opens but fails to read).
Result<std::string> ReadFile(const std::string& path);

/// \brief Writes `content` to `path`, replacing it. IoError naming the path
/// when it cannot be opened, or when the write or the close fails (a full
/// device reports only at the close's flush).
Status WriteFile(const std::string& path, const std::string& content);

}  // namespace util
}  // namespace wikimatch

#endif  // WIKIMATCH_UTIL_FILE_IO_H_
