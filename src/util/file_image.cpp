#include "util/file_image.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <utility>

namespace layergcn::util {
namespace {

// Closes the descriptor on every return path.
class FdCloser {
 public:
  explicit FdCloser(int fd) : fd_(fd) {}
  ~FdCloser() { ::close(fd_); }
  FdCloser(const FdCloser&) = delete;
  FdCloser& operator=(const FdCloser&) = delete;

 private:
  int fd_;
};

constexpr size_t kNumberDigits = 6;

}  // namespace

Status ReadFileImage(const std::string& path, std::string* out) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    return NotFoundError("cannot open " + path + ": " + std::strerror(errno));
  }
  FdCloser closer(fd);
  struct stat st {};
  if (::fstat(fd, &st) != 0) {
    return UnavailableError("cannot stat " + path + ": " +
                            std::strerror(errno));
  }
  if (!S_ISREG(st.st_mode)) {
    return DataLossError(path + " is not a regular file");
  }

  std::string buf(static_cast<size_t>(st.st_size), '\0');
  size_t done = 0;
  while (done < buf.size()) {
    const ssize_t n = ::read(fd, buf.data() + done, buf.size() - done);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) {
      return UnavailableError("read failure on " + path + ": " +
                              std::strerror(errno));
    }
    if (n == 0) {
      return DataLossError("short read on " + path + ": " +
                           std::to_string(done) + " of " +
                           std::to_string(buf.size()) + " bytes");
    }
    done += static_cast<size_t>(n);
  }
  *out = std::move(buf);
  return OkStatus();
}

Status SyncedWrite(const std::string& path, std::string_view bytes,
                   bool append) {
  const int flags =
      O_WRONLY | O_CREAT | O_CLOEXEC | (append ? O_APPEND : O_TRUNC);
  const int fd = ::open(path.c_str(), flags, 0644);
  if (fd < 0) {
    return UnavailableError("cannot open " + path + " for writing: " +
                            std::strerror(errno));
  }
  FdCloser closer(fd);
  size_t done = 0;
  while (done < bytes.size()) {
    const ssize_t n =
        ::write(fd, bytes.data() + done, bytes.size() - done);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {  // a zero-byte write makes no progress: an I/O error
      return UnavailableError("write failure on " + path + ": " +
                              std::strerror(n < 0 ? errno : EIO));
    }
    done += static_cast<size_t>(n);
  }
  if (::fsync(fd) != 0) {
    return UnavailableError("fsync failure on " + path + ": " +
                            std::strerror(errno));
  }
  return OkStatus();
}

Status WriteFileImage(const std::string& path, std::string_view bytes) {
  const std::string tmp = path + ".tmp";
  Status st = SyncedWrite(tmp, bytes);
  if (st.ok() && std::rename(tmp.c_str(), path.c_str()) != 0) {
    st = UnavailableError("cannot rename " + tmp + " to " + path + ": " +
                          std::strerror(errno));
  }
  if (!st.ok()) ::unlink(tmp.c_str());
  return st;
}

std::vector<std::pair<int64_t, std::string>> ListNumberedFiles(
    const std::string& dir, std::string_view prefix, std::string_view suffix) {
  namespace fs = std::filesystem;
  std::vector<std::pair<int64_t, std::string>> out;
  std::error_code ec;
  for (fs::directory_iterator it(dir, ec), end; !ec && it != end;
       it.increment(ec)) {
    const std::string name = it->path().filename().string();
    if (name.size() != prefix.size() + kNumberDigits + suffix.size() ||
        name.compare(0, prefix.size(), prefix) != 0 ||
        name.compare(prefix.size() + kNumberDigits, suffix.size(), suffix) !=
            0) {
      continue;
    }
    // An unsigned parse takes digits only: no sign, no space.
    const char* digits = name.data() + prefix.size();
    uint32_t number = 0;
    if (std::from_chars(digits, digits + kNumberDigits, number).ptr ==
        digits + kNumberDigits) {
      out.emplace_back(number, it->path().string());
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace layergcn::util
