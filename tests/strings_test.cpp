#include "util/strings.h"

#include <cstdlib>
#include <string>
#include <vector>

#include "experiments/env.h"
#include "gtest/gtest.h"

namespace layergcn::util {
namespace {

TEST(SplitTest, BasicAndEmptyFields) {
  EXPECT_EQ(Split("a,b,c", ','), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(Split("a,,c", ','), (std::vector<std::string>{"a", "", "c"}));
  EXPECT_EQ(Split("", ','), (std::vector<std::string>{""}));
  EXPECT_EQ(Split(",", ','), (std::vector<std::string>{"", ""}));
  EXPECT_EQ(Split("a\tb", '\t'), (std::vector<std::string>{"a", "b"}));
}

TEST(TrimTest, RemovesSurroundingWhitespaceOnly) {
  EXPECT_EQ(Trim("  hi  "), "hi");
  EXPECT_EQ(Trim("\t a b \n"), "a b");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Trim("   "), "");
  EXPECT_EQ(Trim("x"), "x");
}

TEST(ParseInt64Test, ValidInputs) {
  int64_t v = 0;
  EXPECT_TRUE(ParseInt64("42", &v));
  EXPECT_EQ(v, 42);
  EXPECT_TRUE(ParseInt64("-7", &v));
  EXPECT_EQ(v, -7);
  EXPECT_TRUE(ParseInt64("  123  ", &v));
  EXPECT_EQ(v, 123);
  EXPECT_TRUE(ParseInt64("0", &v));
  EXPECT_EQ(v, 0);
}

TEST(ParseInt64Test, RejectsMalformed) {
  int64_t v = 0;
  EXPECT_FALSE(ParseInt64("", &v));
  EXPECT_FALSE(ParseInt64("abc", &v));
  EXPECT_FALSE(ParseInt64("12x", &v));
  EXPECT_FALSE(ParseInt64("1.5", &v));
  EXPECT_FALSE(ParseInt64("99999999999999999999999", &v));  // overflow
}

TEST(ParseDoubleTest, ValidInputs) {
  double v = 0;
  EXPECT_TRUE(ParseDouble("3.25", &v));
  EXPECT_DOUBLE_EQ(v, 3.25);
  EXPECT_TRUE(ParseDouble("-1e-3", &v));
  EXPECT_DOUBLE_EQ(v, -1e-3);
  EXPECT_TRUE(ParseDouble(" 7 ", &v));
  EXPECT_DOUBLE_EQ(v, 7.0);
}

TEST(ParseDoubleTest, RejectsMalformed) {
  double v = 0;
  EXPECT_FALSE(ParseDouble("", &v));
  EXPECT_FALSE(ParseDouble("x", &v));
  EXPECT_FALSE(ParseDouble("1.2.3", &v));
}

TEST(StrFormatTest, FormatsLikePrintf) {
  EXPECT_EQ(StrFormat("%d-%s", 5, "x"), "5-x");
  EXPECT_EQ(StrFormat("%.2f", 3.14159), "3.14");
  EXPECT_EQ(StrFormat("empty"), "empty");
}

TEST(JoinIntsTest, Joins) {
  EXPECT_EQ(JoinInts({1, 2, 3}, ", "), "1, 2, 3");
  EXPECT_EQ(JoinInts({}, ","), "");
  EXPECT_EQ(JoinInts({7}, ","), "7");
}

TEST(StartsWithTest, Basics) {
  EXPECT_TRUE(StartsWith("abcdef", "abc"));
  EXPECT_TRUE(StartsWith("abc", ""));
  EXPECT_FALSE(StartsWith("ab", "abc"));
  EXPECT_FALSE(StartsWith("xbc", "ab"));
}

// The bench programs' --epochs/--seed and REPRO_EPOCHS/REPRO_SEED take a
// value only when it fits the field; they never wrap.
class ParseEnvTest : public ::testing::Test {
 protected:
  void SetUp() override { ClearVariables(); }
  void TearDown() override { ClearVariables(); }

  static void ClearVariables() {
    for (const char* name :
         {"REPRO_SCALE", "REPRO_EPOCHS", "REPRO_SEED", "REPRO_FULL"}) {
      unsetenv(name);
    }
  }

  static experiments::Env Parse(std::vector<std::string> flags) {
    flags.insert(flags.begin(), "bench");
    std::vector<char*> argv;
    for (std::string& f : flags) argv.push_back(f.data());
    return experiments::ParseEnv(static_cast<int>(argv.size()), argv.data());
  }
};

using ParseEnvDeathTest = ParseEnvTest;

TEST_F(ParseEnvTest, FlagsInRangeAreTaken) {
  const experiments::Env env = Parse({"--epochs=7", "--seed=123"});
  EXPECT_EQ(env.max_epochs, 7);
  EXPECT_EQ(env.seed, 123u);
}

TEST_F(ParseEnvDeathTest, FlagOutOfRangeFailsLikeMalformed) {
  EXPECT_DEATH(Parse({"--epochs=4294967296"}), "bad --epochs");
  EXPECT_DEATH(Parse({"--epochs=2x"}), "bad --epochs");
  EXPECT_DEATH(Parse({"--seed=-1"}), "bad --seed");
  EXPECT_DEATH(Parse({"--seed=x"}), "bad --seed");
}

TEST_F(ParseEnvTest, VariableOutOfRangeIsIgnoredLikeMalformed) {
  setenv("REPRO_EPOCHS", "4294967297", 1);
  setenv("REPRO_SEED", "-1", 1);
  experiments::Env env = Parse({});
  EXPECT_EQ(env.max_epochs, 0);
  EXPECT_EQ(env.seed, 42u);

  setenv("REPRO_EPOCHS", "3x", 1);
  setenv("REPRO_SEED", "x", 1);
  env = Parse({});
  EXPECT_EQ(env.max_epochs, 0);
  EXPECT_EQ(env.seed, 42u);

  setenv("REPRO_EPOCHS", "5", 1);
  setenv("REPRO_SEED", "9", 1);
  env = Parse({});
  EXPECT_EQ(env.max_epochs, 5);
  EXPECT_EQ(env.seed, 9u);
}

}  // namespace
}  // namespace layergcn::util
