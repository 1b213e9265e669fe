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

Status WriteFile(const std::string& path, const std::string& content) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return Status::IoError("cannot open " + path);
  bool written = std::fwrite(content.data(), 1, content.size(), f) ==
                 content.size();
  bool closed = std::fclose(f) == 0;
  if (!written || !closed) {
    return Status::IoError("cannot write " + path + ": " +
                           std::strerror(errno));
  }
  return Status::OK();
}

}  // namespace util
}  // namespace wikimatch
