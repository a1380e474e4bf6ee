/**
 * @file
 * Unit tests for the shared bench flag strippers (bench/flags.cc):
 * argv surgery, strict numeric parsing (trailing garbage, negative
 * values, overflow), and the telemetry option table.
 */

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "flags.hh"
#include "sim/logging.hh"

using namespace macrosim;
using namespace macrosim::bench;

namespace
{

/** Mutable argv copy a stripper can edit in place. */
class Args
{
  public:
    explicit Args(std::vector<std::string> words)
        : words_(std::move(words))
    {
        for (std::string &w : words_)
            ptrs_.push_back(w.data());
        ptrs_.push_back(nullptr);
        argc_ = static_cast<int>(words_.size());
    }

    int &argc() { return argc_; }
    char **argv() { return ptrs_.data(); }

    std::vector<std::string>
    remaining() const
    {
        std::vector<std::string> out;
        for (int i = 0; i < argc_; ++i)
            out.emplace_back(ptrs_[static_cast<std::size_t>(i)]);
        return out;
    }

  private:
    std::vector<std::string> words_;
    std::vector<char *> ptrs_;
    int argc_ = 0;
};

} // namespace

TEST(FlagsValue, EqualsFormStripsAndReturnsText)
{
    Args a({"bench", "--trace=out.json", "1000"});
    std::string v;
    EXPECT_TRUE(stripValueFlag(a.argc(), a.argv(), "trace", &v));
    EXPECT_EQ(v, "out.json");
    EXPECT_EQ(a.remaining(),
              (std::vector<std::string>{"bench", "1000"}));
}

TEST(FlagsValue, SeparateFormConsumesBothWords)
{
    Args a({"bench", "--trace", "out.json", "1000"});
    std::string v;
    EXPECT_TRUE(stripValueFlag(a.argc(), a.argv(), "trace", &v));
    EXPECT_EQ(v, "out.json");
    EXPECT_EQ(a.remaining(),
              (std::vector<std::string>{"bench", "1000"}));
}

TEST(FlagsValue, AbsentFlagLeavesArgvAlone)
{
    Args a({"bench", "--other=1"});
    std::string v = "unchanged";
    EXPECT_FALSE(stripValueFlag(a.argc(), a.argv(), "trace", &v));
    EXPECT_EQ(v, "unchanged");
    EXPECT_EQ(a.remaining(),
              (std::vector<std::string>{"bench", "--other=1"}));
}

TEST(FlagsValue, BareNameWithoutValueIsNotConsumed)
{
    // "--trace" as the last word has no value to take.
    Args a({"bench", "--trace"});
    std::string v;
    EXPECT_FALSE(stripValueFlag(a.argc(), a.argv(), "trace", &v));
    EXPECT_EQ(a.remaining(),
              (std::vector<std::string>{"bench", "--trace"}));
}

TEST(FlagsSwitch, StripsExactMatchOnly)
{
    Args a({"bench", "--profile", "--profiles"});
    EXPECT_TRUE(stripSwitch(a.argc(), a.argv(), "profile"));
    EXPECT_EQ(a.remaining(),
              (std::vector<std::string>{"bench", "--profiles"}));
    EXPECT_FALSE(stripSwitch(a.argc(), a.argv(), "profile"));
}

TEST(FlagsNumber, ParsesDecimalHexAndOctalBases)
{
    std::uint64_t v = 0;
    {
        Args a({"bench", "--jobs=12"});
        EXPECT_TRUE(stripNumberFlag(a.argc(), a.argv(), "jobs", &v));
        EXPECT_EQ(v, 12u);
    }
    {
        Args a({"bench", "--jobs=0x10"});
        EXPECT_TRUE(stripNumberFlag(a.argc(), a.argv(), "jobs", &v));
        EXPECT_EQ(v, 16u);
    }
    {
        Args a({"bench", "--jobs", "010"});
        EXPECT_TRUE(stripNumberFlag(a.argc(), a.argv(), "jobs", &v));
        EXPECT_EQ(v, 8u);
    }
}

TEST(FlagsNumber, MaxUint64RoundTrips)
{
    Args a({"bench", "--jobs=18446744073709551615"});
    std::uint64_t v = 0;
    EXPECT_TRUE(stripNumberFlag(a.argc(), a.argv(), "jobs", &v));
    EXPECT_EQ(v, UINT64_MAX);
}

TEST(FlagsNumber, RejectsTrailingGarbage)
{
    Args a({"bench", "--jobs=4x"});
    std::uint64_t v = 0;
    EXPECT_THROW(stripNumberFlag(a.argc(), a.argv(), "jobs", &v),
                 FatalError);
}

TEST(FlagsNumber, RejectsNegativeInsteadOfWrapping)
{
    // strtoull would happily return 2^64-1 here; the stripper must
    // not.
    Args a({"bench", "--jobs=-1"});
    std::uint64_t v = 0;
    EXPECT_THROW(stripNumberFlag(a.argc(), a.argv(), "jobs", &v),
                 FatalError);
}

TEST(FlagsNumber, RejectsExplicitPlusEmptyAndWhitespace)
{
    for (const char *bad : {"+4", "", " 4", "4 "}) {
        Args a({"bench", std::string("--jobs=") + bad});
        std::uint64_t v = 0;
        EXPECT_THROW(stripNumberFlag(a.argc(), a.argv(), "jobs", &v),
                     FatalError)
            << "accepted '" << bad << "'";
    }
}

TEST(FlagsNumber, RejectsOutOfRange)
{
    // One past UINT64_MAX.
    Args a({"bench", "--jobs=18446744073709551616"});
    std::uint64_t v = 0;
    EXPECT_THROW(stripNumberFlag(a.argc(), a.argv(), "jobs", &v),
                 FatalError);
}

TEST(FlagsSeed, FlagBeatsFallbackAndRejectsGarbage)
{
    // The env fallback would shadow the hard-coded fallback below.
    unsetenv("MACROSIM_SEED");
    {
        Args a({"bench", "--seed=99"});
        EXPECT_EQ(seedArg(a.argc(), a.argv(), 7), 99u);
    }
    {
        Args a({"bench"});
        EXPECT_EQ(seedArg(a.argc(), a.argv(), 7), 7u);
    }
    {
        Args a({"bench", "--seed=12beef"});
        EXPECT_THROW(seedArg(a.argc(), a.argv(), 7), FatalError);
    }
    {
        Args a({"bench", "--seed=-3"});
        EXPECT_THROW(seedArg(a.argc(), a.argv(), 7), FatalError);
    }
}

TEST(FlagsTelemetry, MetricsPeriodStrictlyParsed)
{
    {
        Args a({"bench", "--metrics=m.json",
                "--metrics-period=2500"});
        const TelemetryOptions t = telemetryArgs(a.argc(), a.argv());
        EXPECT_EQ(t.metricsPath, "m.json");
        EXPECT_EQ(t.metricsPeriod, 2500u);
        EXPECT_EQ(t.period(), 2500u);
    }
    // atoll-era bugs: trailing garbage and wrapped negatives must be
    // fatal, not silently truncated.
    {
        Args a({"bench", "--metrics-period=100x"});
        EXPECT_THROW(telemetryArgs(a.argc(), a.argv()), FatalError);
    }
    {
        Args a({"bench", "--metrics-period=-5"});
        EXPECT_THROW(telemetryArgs(a.argc(), a.argv()), FatalError);
    }
    {
        Args a({"bench", "--metrics-period=0"});
        EXPECT_THROW(telemetryArgs(a.argc(), a.argv()), FatalError);
    }
}
