#include "io/atomic_file.h"

#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>

namespace tsg::io {

Status WriteFileAtomic(const std::string& path, const std::string& content) {
  // Unique per writer: concurrent writers of one path (grid workers finishing
  // together all write the same summary) must not share, truncate or rename
  // away each other's temp file.
  static std::atomic<uint64_t> sequence{0};
  const std::string tmp = path + ".tmp." + std::to_string(::getpid()) + "." +
                          std::to_string(sequence.fetch_add(1));
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) {
      return Status::IoError("cannot open for writing: " + tmp);
    }
    out.write(content.data(), static_cast<std::streamsize>(content.size()));
    out.flush();
    if (!out) {
      std::remove(tmp.c_str());
      return Status::IoError("write failed: " + tmp);
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::IoError("rename failed: " + tmp + " -> " + path);
  }
  return Status::Ok();
}

StatusOr<std::string> ReadFileToString(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::NotFound("cannot open for reading: " + path);
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  if (in.bad()) return Status::IoError("read failed: " + path);
  return content;
}

}  // namespace tsg::io
