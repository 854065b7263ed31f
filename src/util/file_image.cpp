#include "util/file_image.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
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

}  // namespace layergcn::util
