// The write side of util/file_image and its numbered-file listing: what a
// synced or atomic write puts on disk is exactly what the reader returns,
// a failed write is UNAVAILABLE and leaves neither a temp file nor a
// damaged target, and the listing keeps only prefix + six digits + suffix.

#include "util/file_image.h"

#include <cerrno>
#include <cstring>
#include <filesystem>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "test_util.h"
#include "util/status.h"

namespace layergcn::util {
namespace {

namespace fs = std::filesystem;
using testing::TempDirFor;

std::string Read(const std::string& path) {
  std::string image;
  const Status st = ReadFileImage(path, &image);
  EXPECT_TRUE(st.ok()) << st.ToString();
  return image;
}

TEST(FileImageTest, WritesReadBackAsTheSameBytes) {
  const std::string dir = TempDirFor("file_image_roundtrip");
  const std::string path = dir + "/image.bin";
  std::string image;
  for (int i = 0; i < 70000; ++i) image.push_back(static_cast<char>(i * 31));

  ASSERT_TRUE(WriteFileImage(path, image).ok());
  EXPECT_EQ(Read(path), image);
  // A shorter image replaces the longer one whole.
  ASSERT_TRUE(WriteFileImage(path, std::string("\0ab", 3)).ok());
  EXPECT_EQ(Read(path), std::string("\0ab", 3));
  ASSERT_TRUE(WriteFileImage(path, "").ok());
  EXPECT_EQ(Read(path), "");
  EXPECT_FALSE(fs::exists(path + ".tmp"));

  // The synced write truncates, or appends after the current end.
  const std::string log = dir + "/log.bin";
  ASSERT_TRUE(SyncedWrite(log, "abc").ok());
  ASSERT_TRUE(SyncedWrite(log, "de", /*append=*/true).ok());
  EXPECT_EQ(Read(log), "abcde");
  ASSERT_TRUE(SyncedWrite(log, "x").ok());
  EXPECT_EQ(Read(log), "x");
}

TEST(FileImageTest, WriteIntoMissingDirectoryIsUnavailable) {
  const std::string dir = TempDirFor("file_image_missing_dir");
  const std::string path = dir + "/absent/image.bin";
  const Status st = WriteFileImage(path, "bytes");
  EXPECT_EQ(st.code(), StatusCode::kUnavailable);
  EXPECT_NE(st.message().find(std::strerror(ENOENT)), std::string::npos)
      << st.message();
  EXPECT_EQ(SyncedWrite(path, "bytes").code(), StatusCode::kUnavailable);
  EXPECT_FALSE(fs::exists(path + ".tmp"));
  EXPECT_TRUE(fs::is_empty(dir));
}

TEST(FileImageTest, FailedWriteLeavesTargetUntouched) {
  const std::string dir = TempDirFor("file_image_failed_write");
  // The target's name fits NAME_MAX (255) but its temp name does not, so
  // the temp file cannot be created.
  const std::string target = dir + "/" + std::string(252, 'f');
  ASSERT_TRUE(SyncedWrite(target, "old bytes").ok());
  const Status st = WriteFileImage(target, "new bytes");
  EXPECT_EQ(st.code(), StatusCode::kUnavailable) << st.ToString();
  EXPECT_EQ(Read(target), "old bytes");
  // The target is the directory's only entry: no temp file was left.
  EXPECT_EQ(std::distance(fs::directory_iterator(dir),
                          fs::directory_iterator()),
            1);
}

TEST(FileImageTest, FailedRenameRemovesTheTempFile) {
  const std::string dir = TempDirFor("file_image_failed_rename");
  // A non-empty directory under the target name: the temp file is
  // written, the rename over it fails, and the temp file goes.
  const std::string target = dir + "/image.bin";
  fs::create_directories(target + "/inside");
  const Status st = WriteFileImage(target, "bytes");
  EXPECT_EQ(st.code(), StatusCode::kUnavailable);
  EXPECT_NE(st.message().find("cannot rename"), std::string::npos)
      << st.message();
  EXPECT_FALSE(fs::exists(target + ".tmp"));
  EXPECT_TRUE(fs::is_directory(target + "/inside"));
}

TEST(FileImageTest, ListingKeepsPrefixSixDigitsSuffixAscending) {
  const std::string dir = TempDirFor("file_image_listing");
  for (const char* name :
       {"snap-000010.lgcn", "snap-000001.lgcn", "snap-000003.lgcn",
        // Not prefix + exactly six digits + suffix:
        "snap-00002.lgcn", "snap-0000004.lgcn", "snap-00000a.lgcn",
        "snap-+00005.lgcn", "snap- 00006.lgcn", "snap-000008.lgcn.tmp",
        "snap-000009.lgc", "xsnap-000011.lgcn", "SNAP-000012.lgcn",
        "pub-000013.staging"}) {
    ASSERT_TRUE(SyncedWrite(dir + "/" + name, "x").ok()) << name;
  }
  // Names only: a directory named like a snapshot is listed (the reader
  // refuses it later).
  fs::create_directories(dir + "/snap-000007.lgcn");

  const std::vector<std::pair<int64_t, std::string>> want = {
      {1, dir + "/snap-000001.lgcn"},
      {3, dir + "/snap-000003.lgcn"},
      {7, dir + "/snap-000007.lgcn"},
      {10, dir + "/snap-000010.lgcn"}};
  EXPECT_EQ(ListNumberedFiles(dir, "snap-", ".lgcn"), want);

  // An empty suffix: the name ends after the digits.
  fs::create_directories(dir + "/run-000002");
  fs::create_directories(dir + "/run-000001");
  fs::create_directories(dir + "/run-0000011");
  const std::vector<std::pair<int64_t, std::string>> runs = {
      {1, dir + "/run-000001"}, {2, dir + "/run-000002"}};
  EXPECT_EQ(ListNumberedFiles(dir, "run-", ""), runs);

  EXPECT_TRUE(ListNumberedFiles(dir + "/absent", "snap-", ".lgcn").empty());
}

}  // namespace
}  // namespace layergcn::util
