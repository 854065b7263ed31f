// Whole-file reads and writes for everything the system persists
// (checkpoints, serving exports, WAL segments, the pipeline manifest,
// health files), and the numbered-file listing that finds them.
//
// Read side: one open, one fstat, one sized read. Callers list their files
// by name alone, so anything can sit under a matching name — a directory,
// a FIFO, a device. The reader refuses every non-regular file with
// DATA_LOSS (the same verdict as a corrupt file, so newest-valid fallbacks
// simply walk past it), sizes the buffer from st_size, and reports a
// failed open, a read error or a short read as a Status. It never throws
// and never allocates more than the file's size.
//
// Write side: every step is checked, the fsync included, and any failure
// is UNAVAILABLE with the errno text. The atomic write never leaves a
// prefix under the final name; the directory entry is not fsynced.
//
// Fault points are not applied here: each caller damages its own copy of
// the image so injected corruption looks like its own disk damage.

#ifndef LAYERGCN_UTIL_FILE_IMAGE_H_
#define LAYERGCN_UTIL_FILE_IMAGE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/status.h"

namespace layergcn::util {

/// Replaces `*out` with the bytes of the regular file at `path`.
/// NOT_FOUND when it cannot be opened, DATA_LOSS when it is not a regular
/// file or ends before its stat size, UNAVAILABLE on a read error.
Status ReadFileImage(const std::string& path, std::string* out);

/// Writes `bytes` to `path` (created 0644 when missing), retrying EINTR,
/// and fsyncs it: over a truncated file, or after its end when `append`.
Status SyncedWrite(const std::string& path, std::string_view bytes,
                   bool append = false);

/// Replaces `path` with `bytes` atomically: SyncedWrite to `path.tmp`,
/// then rename. On failure the temp file is removed and `path` is as it
/// was.
Status WriteFileImage(const std::string& path, std::string_view bytes);

/// (number, path) of every entry of `dir` named `prefix` + exactly six
/// digits + `suffix`, ascending. Names only; a missing `dir` lists nothing.
std::vector<std::pair<int64_t, std::string>> ListNumberedFiles(
    const std::string& dir, std::string_view prefix, std::string_view suffix);

}  // namespace layergcn::util

#endif  // LAYERGCN_UTIL_FILE_IMAGE_H_
