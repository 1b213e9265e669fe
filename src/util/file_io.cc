#include "util/file_io.h"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <memory>

namespace wikimatch {
namespace util {

namespace {

struct FileCloser {
  void operator()(std::FILE* f) const { std::fclose(f); }
};

}  // namespace

Result<std::string> ReadFile(const std::string& path) {
  std::unique_ptr<std::FILE, FileCloser> f(std::fopen(path.c_str(), "rb"));
  if (f == nullptr) return Status::IoError("cannot open " + path);
  std::string buf;
  char chunk[1 << 16];
  size_t n = 0;
  while ((n = std::fread(chunk, 1, sizeof(chunk), f.get())) > 0) {
    buf.append(chunk, n);
  }
  if (std::ferror(f.get()) != 0) {
    return Status::IoError("cannot read " + path + ": " +
                           std::strerror(errno));
  }
  return buf;
}

}  // namespace util
}  // namespace wikimatch
