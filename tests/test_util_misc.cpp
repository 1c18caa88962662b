// Tests for the table printer, ASCII canvas and CLI parser.
#include <gtest/gtest.h>

#include "util/ascii_canvas.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

namespace latticesched {
namespace {

TEST(Table, AlignsAndRules) {
  Table t({"name", "value"});
  t.begin_row();
  t.cell("alpha");
  t.cell(static_cast<std::int64_t>(42));
  t.begin_row();
  t.cell("b");
  t.cell(7.125, 2);
  const std::string s = t.to_string();
  EXPECT_NE(s.find("alpha"), std::string::npos);
  EXPECT_NE(s.find("42"), std::string::npos);
  EXPECT_NE(s.find("7.12"), std::string::npos);
  EXPECT_NE(s.find("-----"), std::string::npos);
  // Right-aligned numeric column: "42" ends where "7.12" ends.
  const auto line1_end = s.find("42\n");
  const auto line2_end = s.find("7.12\n");
  ASSERT_NE(line1_end, std::string::npos);
  ASSERT_NE(line2_end, std::string::npos);
}

TEST(Table, PercentFormatting) {
  Table t({"x", "pct"});
  t.begin_row();
  t.cell("a");
  t.cell_percent(0.256, 1);
  EXPECT_NE(t.to_string().find("25.6%"), std::string::npos);
}

TEST(Table, ArityMismatchThrows) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), std::invalid_argument);
}

TEST(Table, CellWithoutRowThrows) {
  Table t({"a"});
  EXPECT_THROW(t.cell("x"), std::logic_error);
}

TEST(Table, EmptyHeadersThrow) {
  EXPECT_THROW(Table({}), std::invalid_argument);
}

TEST(AsciiCanvas, OriginAtBottomLeft) {
  AsciiCanvas c(3, 2, '.');
  c.put(0, 0, 'a');
  c.put(2, 1, 'b');
  EXPECT_EQ(c.to_string(), "..b\na..\n");
}

TEST(AsciiCanvas, ClipsOutOfBounds) {
  AsciiCanvas c(2, 2, '.');
  c.put(-1, 0, 'x');
  c.put(0, 5, 'x');
  c.put_text(1, 0, "long-text");
  EXPECT_EQ(c.at(1, 0), 'l');
  EXPECT_EQ(c.at(0, 1), '.');
}

TEST(AsciiCanvas, Lines) {
  AsciiCanvas c(4, 4, ' ');
  c.hline(0, 0, 4, '-');
  c.vline(0, 0, 4, '|');
  EXPECT_EQ(c.at(3, 0), '-');
  EXPECT_EQ(c.at(0, 3), '|');
}

TEST(AsciiCanvas, RejectsZeroSize) {
  EXPECT_THROW(AsciiCanvas(0, 5), std::invalid_argument);
}

TEST(Cli, ParsesAllForms) {
  CliParser p("test");
  p.add_flag("n", "10", "count");
  p.add_flag("rate", "0.5", "rate");
  p.add_flag("verbose", "false", "verbosity");
  p.add_flag("name", "x", "label");
  const char* argv[] = {"prog", "--n=20", "--rate=0.25", "--verbose",
                        "pos1"};
  p.parse(5, argv);
  EXPECT_EQ(p.get_int("n"), 20);
  EXPECT_DOUBLE_EQ(p.get_double("rate"), 0.25);
  EXPECT_TRUE(p.get_bool("verbose"));
  EXPECT_EQ(p.get_string("name"), "x");  // default preserved
  ASSERT_EQ(p.positional().size(), 1u);
  EXPECT_EQ(p.positional()[0], "pos1");
}

TEST(Cli, UnknownFlagThrows) {
  CliParser p("test");
  const char* argv[] = {"prog", "--mystery=1"};
  EXPECT_THROW(p.parse(2, argv), std::invalid_argument);
}

TEST(Cli, SpaceSeparatedValues) {
  CliParser p("test");
  p.add_flag("n", "10", "count");
  p.add_flag("name", "x", "label");
  p.add_flag("verbose", "false", "verbosity");
  const char* argv[] = {"prog", "--n", "20", "--name", "field",
                        "--verbose", "pos1"};
  p.parse(7, argv);
  EXPECT_EQ(p.get_int("n"), 20);
  EXPECT_EQ(p.get_string("name"), "field");
  // Boolean flags never consume the next token.
  EXPECT_TRUE(p.get_bool("verbose"));
  ASSERT_EQ(p.positional().size(), 1u);
  EXPECT_EQ(p.positional()[0], "pos1");
}

TEST(Cli, SpaceSeparatedMissingValueThrows) {
  CliParser p("test");
  p.add_flag("n", "10", "count");
  const char* argv[] = {"prog", "--n"};
  EXPECT_THROW(p.parse(2, argv), std::invalid_argument);
}

TEST(Cli, AllUnknownFlagsReportedTogether) {
  CliParser p("test");
  p.add_flag("n", "10", "count");
  const char* argv[] = {"prog", "--typo1=1", "--n=5", "--typo2"};
  try {
    p.parse(4, argv);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("--typo1"), std::string::npos);
    EXPECT_NE(msg.find("--typo2"), std::string::npos);
  }
  // Known flags seen before the error still parsed.
  EXPECT_EQ(p.get_int("n"), 5);
}

TEST(Cli, MalformedNumberThrows) {
  // Trailing junk and non-numbers alike; the error names the flag.
  const auto error_of = [](const auto& read) -> std::string {
    try {
      read();
    } catch (const std::invalid_argument& e) {
      return e.what();
    }
    return "no error";
  };
  for (const char* bad : {"12abc", "abc", ""}) {
    CliParser p("test");
    p.add_flag("n", "1", "count");
    p.add_flag("rate", "0.5", "rate");
    const std::string n_arg = std::string("--n=") + bad;
    const std::string rate_arg = std::string("--rate=") + bad;
    const char* argv[] = {"prog", n_arg.c_str(), rate_arg.c_str()};
    p.parse(3, argv);
    EXPECT_NE(error_of([&] { (void)p.get_int("n"); }).find("--n"),
              std::string::npos)
        << bad;
    EXPECT_NE(error_of([&] { (void)p.get_double("rate"); }).find("--rate"),
              std::string::npos)
        << bad;
  }
}

TEST(Cli, HelpRequested) {
  CliParser p("test");
  p.add_flag("n", "1", "count");
  const char* argv[] = {"prog", "--help"};
  p.parse(2, argv);
  EXPECT_TRUE(p.help_requested());
  EXPECT_NE(p.help_text().find("--n"), std::string::npos);
}

TEST(Cli, DuplicateFlagRegistrationThrows) {
  CliParser p("test");
  p.add_flag("n", "1", "count");
  EXPECT_THROW(p.add_flag("n", "2", "again"), std::invalid_argument);
}

TEST(Cli, IntFlagRejectsValuesBelowMinimum) {
  // The driver's --workers contract: 0/negative are parse errors.
  for (const char* bad : {"0", "-3", "2x"}) {
    CliParser p("test");
    p.add_int_flag("workers", 1, 1, "worker processes");
    const std::string arg = std::string("--workers=") + bad;
    const char* argv[] = {"prog", arg.c_str()};
    try {
      p.parse(2, argv);
      FAIL() << "expected std::invalid_argument for " << bad;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("--workers"), std::string::npos)
          << e.what();
    }
  }
  CliParser ok("test");
  ok.add_int_flag("workers", 1, 1, "worker processes");
  const char* argv[] = {"prog", "--workers", "4"};
  ok.parse(3, argv);
  EXPECT_EQ(ok.get_int("workers"), 4);
}

TEST(Cli, SuggestNearestFindsTypos) {
  const std::vector<std::string> scenarios = {
      "grid", "hex", "cube3d", "mobile", "figure5", "antennas",
      "multichannel", "random-subset", "grid-failures", "mobile-churn"};
  // One edit away.
  EXPECT_EQ(suggest_nearest("gird", scenarios), "grid");
  EXPECT_EQ(suggest_nearest("grib", scenarios), "grid");
  EXPECT_EQ(suggest_nearest("moble", scenarios), "mobile");
  // Longer names get a larger budget.
  EXPECT_EQ(suggest_nearest("grid-failurs", scenarios), "grid-failures");
  EXPECT_EQ(suggest_nearest("multichanel", scenarios), "multichannel");
  // Exact matches are their own suggestion (callers only consult this
  // for UNKNOWN names, but the function stays total).
  EXPECT_EQ(suggest_nearest("hex", scenarios), "hex");
}

TEST(Cli, SuggestNearestStaysQuietOnNonsense) {
  const std::vector<std::string> backends = {"tiling", "greedy", "dsatur",
                                             "tdma"};
  EXPECT_EQ(suggest_nearest("quux-blorp-zzz", backends), "");
  EXPECT_EQ(suggest_nearest("", std::vector<std::string>{}), "");
  // Deterministic tie-break: the earliest candidate wins.
  EXPECT_EQ(suggest_nearest("ax", {"ab", "ac"}), "ab");
}

TEST(Cli, SuggestNearestFindsChaosFlagTypos) {
  // The driver's chaos-hardening flags are long enough that typos are
  // likely; the suggester must bridge them.
  const std::vector<std::string> flags = {
      "workers", "worker-timeout-ms", "retries", "fault-plan",
      "cache-dir", "cache-stats", "shard", "seed"};
  EXPECT_EQ(suggest_nearest("worker-timout-ms", flags), "worker-timeout-ms");
  EXPECT_EQ(suggest_nearest("retrys", flags), "retries");
  EXPECT_EQ(suggest_nearest("falt-plan", flags), "fault-plan");
  EXPECT_EQ(suggest_nearest("worker-timeout", flags), "worker-timeout-ms");
}

TEST(Cli, ChaosFlagMinimaViolationsJoinOneError) {
  // The driver's chaos flags share the joined-error contract: every
  // range violation arrives in the SAME std::invalid_argument.
  CliParser p("test");
  p.add_int_flag("worker-timeout-ms", 30000, 0, "per-frame deadline");
  p.add_int_flag("retries", 2, 0, "respawn budget");
  const char* argv[] = {"prog", "--worker-timeout-ms=-1", "--retries=-2"};
  try {
    p.parse(3, argv);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("--worker-timeout-ms"), std::string::npos) << msg;
    EXPECT_NE(msg.find("--retries"), std::string::npos) << msg;
  }
  CliParser ok("test");
  ok.add_int_flag("worker-timeout-ms", 30000, 0, "per-frame deadline");
  ok.add_int_flag("retries", 2, 0, "respawn budget");
  const char* good[] = {"prog", "--worker-timeout-ms=0", "--retries=0"};
  ok.parse(3, good);
  EXPECT_EQ(ok.get_int("worker-timeout-ms"), 0);  // 0 = deadlines off
  EXPECT_EQ(ok.get_int("retries"), 0);
}

TEST(Cli, IntFlagViolationsJoinTheUnknownFlagError) {
  // One round trip fixes everything: the range violation and the typo
  // arrive in the SAME error.
  CliParser p("test");
  p.add_int_flag("workers", 1, 1, "worker processes");
  const char* argv[] = {"prog", "--workers=0", "--typo=1"};
  try {
    p.parse(3, argv);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("--typo"), std::string::npos) << msg;
    EXPECT_NE(msg.find("--workers"), std::string::npos) << msg;
  }
}

}  // namespace
}  // namespace latticesched
