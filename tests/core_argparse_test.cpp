// Tests for the shared typed command-line parser.
#include <gtest/gtest.h>

#include "mtsched/core/argparse.hpp"
#include "mtsched/core/error.hpp"

namespace {

using namespace mtsched;
using core::ArgParser;

ArgParser make_parser() {
  ArgParser args("prog cmd", "A test command.");
  args.add_str("name", "dflt", "a string option");
  args.add_int("count", 7, "an integer option");
  args.add_uint64("seed", 42, "a seed option");
  args.add_double("ratio", 0.5, "a ratio option");
  args.add_flag("verbose", "a flag");
  return args;
}

void parse(ArgParser& args, std::vector<const char*> argv) {
  argv.insert(argv.begin(), "prog");
  args.parse(static_cast<int>(argv.size()), argv.data(), 1);
}

TEST(ArgParser, DefaultsApplyWhenNotGiven) {
  auto args = make_parser();
  parse(args, {});
  EXPECT_EQ(args.str("name"), "dflt");
  EXPECT_EQ(args.integer("count"), 7);
  EXPECT_EQ(args.uint64("seed"), 42u);
  EXPECT_DOUBLE_EQ(args.number("ratio"), 0.5);
  EXPECT_FALSE(args.flag("verbose"));
  EXPECT_FALSE(args.help_requested());
}

TEST(ArgParser, ParsesBothValueSyntaxes) {
  auto args = make_parser();
  parse(args, {"--name", "abc", "--count=-3", "--seed=9", "--ratio", "0.25",
               "--verbose"});
  EXPECT_EQ(args.str("name"), "abc");
  EXPECT_EQ(args.integer("count"), -3);
  EXPECT_EQ(args.uint64("seed"), 9u);
  EXPECT_DOUBLE_EQ(args.number("ratio"), 0.25);
  EXPECT_TRUE(args.flag("verbose"));
}

TEST(ArgParser, RejectsUnknownOptionListingValidOnes) {
  auto args = make_parser();
  try {
    parse(args, {"--bogus"});
    FAIL() << "expected InvalidArgument";
  } catch (const core::InvalidArgument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("--bogus"), std::string::npos);
    EXPECT_NE(msg.find("--count"), std::string::npos);
  }
}

TEST(ArgParser, RejectsMalformedInput) {
  {
    auto args = make_parser();
    EXPECT_THROW(parse(args, {"--count", "abc"}), core::InvalidArgument);
  }
  {
    auto args = make_parser();
    EXPECT_THROW(parse(args, {"--count", "3x"}), core::InvalidArgument);
  }
  {
    auto args = make_parser();
    EXPECT_THROW(parse(args, {"--ratio", "high"}), core::InvalidArgument);
  }
  {
    auto args = make_parser();  // value option at end of line
    EXPECT_THROW(parse(args, {"--name"}), core::InvalidArgument);
  }
  {
    auto args = make_parser();  // flag given a value
    EXPECT_THROW(parse(args, {"--verbose=1"}), core::InvalidArgument);
  }
  {
    auto args = make_parser();  // positional arguments are not accepted
    EXPECT_THROW(parse(args, {"stray"}), core::InvalidArgument);
  }
}

TEST(ArgParser, NegativeValuesAreNotMistakenForOptions) {
  auto args = make_parser();
  parse(args, {"--count", "-5", "--ratio", "-0.5"});
  EXPECT_EQ(args.integer("count"), -5);
  EXPECT_DOUBLE_EQ(args.number("ratio"), -0.5);
}

TEST(ArgParser, HelpRequestShortCircuits) {
  auto args = make_parser();
  parse(args, {"--help"});
  EXPECT_TRUE(args.help_requested());

  auto args2 = make_parser();
  parse(args2, {"-h"});
  EXPECT_TRUE(args2.help_requested());

  const auto page = args.help();
  EXPECT_NE(page.find("prog cmd"), std::string::npos);
  EXPECT_NE(page.find("A test command."), std::string::npos);
  EXPECT_NE(page.find("--count"), std::string::npos);
  EXPECT_NE(page.find("an integer option"), std::string::npos);
  EXPECT_NE(page.find("[default: 7]"), std::string::npos);
}

TEST(ArgParser, AccessorsCheckDeclarationAndType) {
  auto args = make_parser();
  parse(args, {});
  EXPECT_THROW(args.str("never-declared"), core::InvalidArgument);
  EXPECT_THROW(args.integer("name"), core::InvalidArgument);
  EXPECT_THROW(args.flag("count"), core::InvalidArgument);
}

ArgParser make_positional_parser() {
  ArgParser args("prog diff", "Compare two files.");
  args.add_positional("a", "baseline file", "A");
  args.add_positional("b", "candidate file", "B");
  args.add_double("threshold", 10.0, "flag threshold", "PCT");
  return args;
}

TEST(ArgParser, PositionalsFillInDeclarationOrder) {
  auto args = make_positional_parser();
  parse(args, {"first.json", "--threshold", "5", "second.json"});
  EXPECT_EQ(args.str("a"), "first.json");
  EXPECT_EQ(args.str("b"), "second.json");
  EXPECT_DOUBLE_EQ(args.number("threshold"), 5.0);
}

TEST(ArgParser, MissingPositionalIsAnError) {
  auto args = make_positional_parser();
  try {
    parse(args, {"only_one.json"});
    FAIL() << "expected InvalidArgument";
  } catch (const core::InvalidArgument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("missing required argument"), std::string::npos);
    EXPECT_NE(msg.find("B"), std::string::npos);
  }
}

TEST(ArgParser, SurplusPositionalIsAnError) {
  auto args = make_positional_parser();
  EXPECT_THROW(parse(args, {"a.json", "b.json", "c.json"}),
               core::InvalidArgument);
}

TEST(ArgParser, HelpSkipsPositionalValidationAndShowsMetavars) {
  auto args = make_positional_parser();
  parse(args, {"--help"});  // no positionals given: still no throw
  EXPECT_TRUE(args.help_requested());
  const auto page = args.help();
  EXPECT_NE(page.find("A B"), std::string::npos);
  EXPECT_NE(page.find("baseline file"), std::string::npos);
  EXPECT_NE(page.find("arguments:"), std::string::npos);
}

TEST(SplitCsv, SplitsAndConverts) {
  EXPECT_EQ(core::split_csv("a,b,c"),
            (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(core::split_csv(""), std::vector<std::string>{});
  EXPECT_EQ(core::split_csv("x,,y,"),
            (std::vector<std::string>{"x", "y"}));
  EXPECT_EQ(core::split_csv_int("2000,3000", "--dims"),
            (std::vector<int>{2000, 3000}));
  EXPECT_EQ(core::split_csv_uint64("42", "--seeds"),
            (std::vector<std::uint64_t>{42}));
  EXPECT_THROW(core::split_csv_int("2000,abc", "--dims"),
               core::InvalidArgument);
}

}  // namespace
