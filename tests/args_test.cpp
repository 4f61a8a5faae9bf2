#include "common/args.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace tdmd {
namespace {

std::vector<const char*> Argv(std::initializer_list<const char*> args) {
  std::vector<const char*> argv{"prog"};
  argv.insert(argv.end(), args);
  return argv;
}

TEST(ArgParserTest, DefaultsSurviveWhenUnset) {
  ArgParser parser("prog", "test");
  const auto* k = parser.AddInt("k", 8, "budget");
  const auto* lambda = parser.AddDouble("lambda", 0.5, "ratio");
  const auto* verbose = parser.AddBool("verbose", false, "chatty");
  const auto* name = parser.AddString("name", "tree", "topology");
  auto argv = Argv({});
  parser.Parse(static_cast<int>(argv.size()), argv.data());
  EXPECT_EQ(*k, 8);
  EXPECT_DOUBLE_EQ(*lambda, 0.5);
  EXPECT_FALSE(*verbose);
  EXPECT_EQ(*name, "tree");
}

TEST(ArgParserTest, EqualsSyntax) {
  ArgParser parser("prog", "test");
  const auto* k = parser.AddInt("k", 0, "budget");
  const auto* lambda = parser.AddDouble("lambda", 0.0, "ratio");
  auto argv = Argv({"--k=12", "--lambda=0.25"});
  parser.Parse(static_cast<int>(argv.size()), argv.data());
  EXPECT_EQ(*k, 12);
  EXPECT_DOUBLE_EQ(*lambda, 0.25);
}

TEST(ArgParserTest, SpaceSeparatedSyntax) {
  ArgParser parser("prog", "test");
  const auto* k = parser.AddInt("k", 0, "budget");
  auto argv = Argv({"--k", "7"});
  parser.Parse(static_cast<int>(argv.size()), argv.data());
  EXPECT_EQ(*k, 7);
}

TEST(ArgParserTest, GivenNamesOnlyFlagsOnTheCommandLine) {
  ArgParser parser("prog", "test");
  (void)parser.AddString("partition", "bfs", "partitioner");
  (void)parser.AddInt("k", 8, "budget");
  (void)parser.AddBool("verbose", false, "chatty");
  auto argv = Argv({"--partition=bfs", "--verbose"});
  parser.Parse(static_cast<int>(argv.size()), argv.data());
  EXPECT_TRUE(parser.Given("partition"));  // even when equal to the default
  EXPECT_TRUE(parser.Given("verbose"));
  EXPECT_FALSE(parser.Given("k"));
  EXPECT_FALSE(parser.Given("unregistered"));
}

TEST(ArgParserTest, BareBoolFlagSetsTrue) {
  ArgParser parser("prog", "test");
  const auto* verbose = parser.AddBool("verbose", false, "chatty");
  auto argv = Argv({"--verbose"});
  parser.Parse(static_cast<int>(argv.size()), argv.data());
  EXPECT_TRUE(*verbose);
}

TEST(ArgParserTest, ExplicitBoolValues) {
  ArgParser parser("prog", "test");
  const auto* a = parser.AddBool("a", false, "x");
  const auto* b = parser.AddBool("b", true, "x");
  auto argv = Argv({"--a=true", "--b=false"});
  parser.Parse(static_cast<int>(argv.size()), argv.data());
  EXPECT_TRUE(*a);
  EXPECT_FALSE(*b);
}

TEST(ArgParserTest, PositionalArgumentsCollected) {
  ArgParser parser("prog", "test");
  parser.AddInt("k", 0, "budget");
  auto argv = Argv({"alpha", "--k=3", "beta"});
  parser.Parse(static_cast<int>(argv.size()), argv.data());
  ASSERT_EQ(parser.positional().size(), 2u);
  EXPECT_EQ(parser.positional()[0], "alpha");
  EXPECT_EQ(parser.positional()[1], "beta");
}

TEST(ArgParserTest, NegativeNumbersParse) {
  ArgParser parser("prog", "test");
  const auto* k = parser.AddInt("k", 0, "budget");
  const auto* x = parser.AddDouble("x", 0.0, "value");
  auto argv = Argv({"--k=-5", "--x=-2.5"});
  parser.Parse(static_cast<int>(argv.size()), argv.data());
  EXPECT_EQ(*k, -5);
  EXPECT_DOUBLE_EQ(*x, -2.5);
}

TEST(ArgParserTest, UsageListsFlags) {
  ArgParser parser("prog", "my description");
  parser.AddInt("k", 8, "the budget");
  const std::string usage = parser.Usage();
  EXPECT_NE(usage.find("my description"), std::string::npos);
  EXPECT_NE(usage.find("--k"), std::string::npos);
  EXPECT_NE(usage.find("the budget"), std::string::npos);
  EXPECT_NE(usage.find("default: 8"), std::string::npos);
}

TEST(ArgParserDeathTest, UnknownFlagExits) {
  ArgParser parser("prog", "test");
  auto argv = Argv({"--nonexistent=1"});
  EXPECT_EXIT(parser.Parse(static_cast<int>(argv.size()), argv.data()),
              testing::ExitedWithCode(2), "unknown flag");
}

TEST(ArgParserDeathTest, MalformedValueExits) {
  ArgParser parser("prog", "test");
  parser.AddInt("k", 0, "budget");
  auto argv = Argv({"--k=abc"});
  EXPECT_EXIT(parser.Parse(static_cast<int>(argv.size()), argv.data()),
              testing::ExitedWithCode(2), "could not parse");
}

TEST(ArgParserDeathTest, MissingValueExits) {
  ArgParser parser("prog", "test");
  parser.AddInt("k", 0, "budget");
  auto argv = Argv({"--k"});
  EXPECT_EXIT(parser.Parse(static_cast<int>(argv.size()), argv.data()),
              testing::ExitedWithCode(2), "expects a value");
}

}  // namespace
}  // namespace tdmd
