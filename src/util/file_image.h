// Whole-file reads for the binary images the system persists (checkpoints,
// serving exports, WAL segments): one open, one fstat, one sized read.
//
// Callers list their files by name alone, so anything can sit under a
// matching name — a directory, a FIFO, a device. The reader refuses every
// non-regular file with DATA_LOSS (the same verdict as a corrupt file, so
// newest-valid fallbacks simply walk past it), sizes the buffer from
// st_size, and reports a failed open, a read error or a short read as a
// Status. It never throws and never allocates more than the file's size.
// Fault points are not applied here: each caller damages its own copy of
// the image so injected corruption looks like its own disk damage.

#ifndef LAYERGCN_UTIL_FILE_IMAGE_H_
#define LAYERGCN_UTIL_FILE_IMAGE_H_

#include <string>

#include "util/status.h"

namespace layergcn::util {

/// Replaces `*out` with the bytes of the regular file at `path`.
/// NOT_FOUND when it cannot be opened, DATA_LOSS when it is not a regular
/// file or ends before its stat size, UNAVAILABLE on a read error.
Status ReadFileImage(const std::string& path, std::string* out);

}  // namespace layergcn::util

#endif  // LAYERGCN_UTIL_FILE_IMAGE_H_
