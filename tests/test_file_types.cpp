#include "files/file_types.h"

#include <gtest/gtest.h>

#include <ostream>

#include "util/bytes.h"

namespace p2p::files {
namespace {

struct ExtCase {
  const char* name;
  FileType expected;
};

// Print the case by value: gtest's default dumps the struct's bytes, which
// include the string pointer and so change from one build to the next.
void PrintTo(const ExtCase& c, std::ostream* os) {
  *os << c.name << " is " << to_string(c.expected);
}

class ExtensionClassification : public ::testing::TestWithParam<ExtCase> {};

TEST_P(ExtensionClassification, Classifies) {
  EXPECT_EQ(classify_extension(GetParam().name), GetParam().expected)
      << GetParam().name;
}

INSTANTIATE_TEST_SUITE_P(
    Extensions, ExtensionClassification,
    ::testing::Values(
        ExtCase{"setup.exe", FileType::kExecutable},
        ExtCase{"SETUP.EXE", FileType::kExecutable},
        ExtCase{"virus.scr", FileType::kExecutable},
        ExtCase{"run.bat", FileType::kExecutable},
        ExtCase{"app.msi", FileType::kExecutable},
        ExtCase{"shortcut.pif", FileType::kExecutable},
        ExtCase{"pack.zip", FileType::kArchive},
        ExtCase{"pack.rar", FileType::kArchive},
        ExtCase{"pack.tar", FileType::kArchive},
        ExtCase{"pack.gz", FileType::kArchive},
        ExtCase{"song.mp3", FileType::kAudio},
        ExtCase{"song.ogg", FileType::kAudio},
        ExtCase{"movie.avi", FileType::kVideo},
        ExtCase{"movie.mpeg", FileType::kVideo},
        ExtCase{"photo.jpg", FileType::kImage},
        ExtCase{"photo.png", FileType::kImage},
        ExtCase{"manual.pdf", FileType::kDocument},
        ExtCase{"notes.txt", FileType::kDocument},
        ExtCase{"mystery.xyz", FileType::kOther},
        ExtCase{"noextension", FileType::kOther},
        ExtCase{"a song - with spaces.mp3", FileType::kAudio}));

TEST(MagicClassification, DetectsHeaders) {
  util::Bytes exe = {'M', 'Z', 0x90, 0, 0, 0};
  EXPECT_EQ(classify_magic(exe), FileType::kExecutable);

  util::Bytes zip = {'P', 'K', 0x03, 0x04, 0, 0};
  EXPECT_EQ(classify_magic(zip), FileType::kArchive);

  util::Bytes rar = {'R', 'a', 'r', '!', 0};
  EXPECT_EQ(classify_magic(rar), FileType::kArchive);

  util::Bytes gz = {0x1f, 0x8b, 8};
  EXPECT_EQ(classify_magic(gz), FileType::kArchive);

  util::Bytes mp3 = {'I', 'D', '3', 3, 0};
  EXPECT_EQ(classify_magic(mp3), FileType::kAudio);

  util::Bytes avi = {'R', 'I', 'F', 'F', 0, 0, 0, 0};
  EXPECT_EQ(classify_magic(avi), FileType::kVideo);

  util::Bytes jpg = {0xff, 0xd8, 0xff, 0xe0};
  EXPECT_EQ(classify_magic(jpg), FileType::kImage);

  util::Bytes png = {0x89, 'P', 'N', 'G'};
  EXPECT_EQ(classify_magic(png), FileType::kImage);

  util::Bytes pdf = {'%', 'P', 'D', 'F', '-'};
  EXPECT_EQ(classify_magic(pdf), FileType::kDocument);
}

TEST(MagicClassification, UnknownAndShortInputs) {
  util::Bytes junk = {0x42, 0x42, 0x42};
  EXPECT_EQ(classify_magic(junk), FileType::kOther);
  EXPECT_EQ(classify_magic({}), FileType::kOther);
  util::Bytes one = {'M'};
  EXPECT_EQ(classify_magic(one), FileType::kOther);
}

TEST(MagicClassification, CatchesRenamedExecutable) {
  // The study's download pipeline classifies by magic: a renamed exe is
  // still an exe.
  util::Bytes exe = {'M', 'Z', 0x90, 0x00};
  EXPECT_EQ(classify_extension("innocent.mp3"), FileType::kAudio);
  EXPECT_EQ(classify_magic(exe), FileType::kExecutable);
}

TEST(StudyTypes, OnlyExecutablesAndArchives) {
  EXPECT_TRUE(is_study_type(FileType::kExecutable));
  EXPECT_TRUE(is_study_type(FileType::kArchive));
  EXPECT_FALSE(is_study_type(FileType::kAudio));
  EXPECT_FALSE(is_study_type(FileType::kVideo));
  EXPECT_FALSE(is_study_type(FileType::kImage));
  EXPECT_FALSE(is_study_type(FileType::kDocument));
  EXPECT_FALSE(is_study_type(FileType::kOther));
}

TEST(TypeNames, RoundTrip) {
  EXPECT_EQ(to_string(FileType::kExecutable), "executable");
  EXPECT_EQ(to_string(FileType::kArchive), "archive");
  EXPECT_EQ(to_string(FileType::kOther), "other");
}

}  // namespace
}  // namespace p2p::files
