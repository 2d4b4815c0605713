/**
 * @file
 * Unit tests for the declarative command-line parser shared by the
 * bench and example binaries. The Config suite covers the value
 * rules of command-line configuration (typed values, defaults, hex,
 * decimal leading zeros, signs, bool spellings, malformed input);
 * the ArgSpec suites cover rejection and passthrough.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "sim/args.hh"

namespace snpu
{
namespace
{

using ::testing::ExitedWithCode;

/** Parse @p args (argv[0] is supplied); returns the forwarded rest. */
std::vector<std::string>
run(const ArgSpec &spec, std::vector<std::string> args)
{
    args.insert(args.begin(), "prog");
    std::vector<char *> argv;
    for (std::string &arg : args)
        argv.push_back(arg.data());
    std::vector<std::string> rest;
    for (char *arg : spec.parse(static_cast<int>(argv.size()),
                                argv.data())) {
        rest.emplace_back(arg);
    }
    return rest;
}

TEST(Config, TypedRoundTrips)
{
    unsigned tiles = 0;
    std::uint64_t seed = 0;
    double bw = 0;
    bool secure = false;
    std::string name;
    ArgSpec spec("prog");
    spec.option("--tiles", "", &tiles)
        .option("--seed", "", &seed)
        .option("--bw", "", &bw)
        .option("--secure", "", &secure)
        .option("--name", "", &name);
    run(spec, {"--tiles=10", "--seed=12345678901", "--bw=16.5",
               "--secure=true", "--name=snpu"});
    EXPECT_EQ(tiles, 10u);
    EXPECT_EQ(seed, 12345678901u);
    EXPECT_DOUBLE_EQ(bw, 16.5);
    EXPECT_TRUE(secure);
    EXPECT_EQ(name, "snpu");
}

TEST(Config, DefaultsWhenAbsent)
{
    unsigned n = 7;
    double x = 1.5;
    bool flag = false;
    std::string s = "x";
    ArgSpec spec("prog");
    spec.option("n", "", &n)
        .option("x", "", &x)
        .option("flag", "", &flag)
        .option("s", "", &s);
    EXPECT_EQ(run(spec, {}), std::vector<std::string>{"prog"});
    EXPECT_EQ(n, 7u);
    EXPECT_DOUBLE_EQ(x, 1.5);
    EXPECT_FALSE(flag);
    EXPECT_EQ(s, "x");
}

TEST(Config, ParseArg)
{
    // The examples spell keys without dashes; a key is just a string.
    std::string model;
    unsigned iotlb = 32;
    ArgSpec spec("snpu_run");
    spec.option("model", "", &model).option("iotlb", "", &iotlb);
    run(spec, {"model=bert", "iotlb=16"});
    EXPECT_EQ(model, "bert");
    EXPECT_EQ(iotlb, 16u);
}

TEST(Config, HexIntegersParse)
{
    std::uint64_t addr = 0;
    unsigned upper = 0;
    unsigned plus = 0;
    ArgSpec spec("prog");
    spec.option("addr", "", &addr)
        .option("upper", "", &upper)
        .option("plus", "", &plus);
    run(spec, {"addr=0x1000", "upper=0X10", "plus=+0x10"});
    EXPECT_EQ(addr, 0x1000u);
    EXPECT_EQ(upper, 16u);
    EXPECT_EQ(plus, 16u);
}

TEST(Config, LeadingZeroIsDecimalNotOctal)
{
    // "scale=010" means ten; a base-detecting strtoul would silently
    // read it as octal 8.
    unsigned n = 0;
    unsigned z = 1;
    ArgSpec spec("prog");
    spec.option("n", "", &n).option("z", "", &z);
    run(spec, {"n=010", "z=0"});
    EXPECT_EQ(n, 10u);
    EXPECT_EQ(z, 0u);
}

TEST(Config, NegativeIntegersParse)
{
    double n = 0;
    double h = 0;
    ArgSpec spec("prog");
    spec.option("n", "", &n).option("h", "", &h);
    run(spec, {"n=-8", "h=-0x10"});
    EXPECT_DOUBLE_EQ(n, -8.0);
    EXPECT_DOUBLE_EQ(h, -16.0);
}

TEST(Config, BoolSpellings)
{
    bool a = false, b = false, c = true, d = true, e = false, f = true;
    ArgSpec spec("prog");
    spec.option("a", "", &a)
        .option("b", "", &b)
        .option("c", "", &c)
        .option("d", "", &d)
        .option("e", "", &e)
        .option("f", "", &f);
    run(spec, {"a=1", "b=yes", "c=0", "d=no", "e=true", "f=false"});
    EXPECT_TRUE(a);
    EXPECT_TRUE(b);
    EXPECT_FALSE(c);
    EXPECT_FALSE(d);
    EXPECT_TRUE(e);
    EXPECT_FALSE(f);
}

TEST(Config, ParseArgRejectsMalformed)
{
    std::string model;
    ArgSpec spec("prog");
    spec.option("model", "", &model);
    EXPECT_EXIT(run(spec, {"model"}), ExitedWithCode(2),
                "unknown argument 'model'");
    EXPECT_EXIT(run(spec, {"=x"}), ExitedWithCode(2),
                "unknown argument '=x'");
}

TEST(Config, MalformedNumbersAreFatal)
{
    unsigned n = 0;
    double x = 0;
    bool b = false;
    ArgSpec spec("prog");
    spec.option("n", "", &n).option("x", "", &x).option("b", "", &b);
    EXPECT_EXIT(run(spec, {"n=abc"}), ExitedWithCode(2),
                "malformed value in 'n=abc'");
    EXPECT_EXIT(run(spec, {"x=abc"}), ExitedWithCode(2),
                "malformed value in 'x=abc'");
    EXPECT_EXIT(run(spec, {"b=maybe"}), ExitedWithCode(2),
                "malformed value in 'b=maybe'");
    EXPECT_EXIT(run(spec, {"n=0x"}), ExitedWithCode(2), "malformed");
    EXPECT_EXIT(run(spec, {"n="}), ExitedWithCode(2), "malformed");
}

TEST(ArgSpec, PassthroughForwardsUnmatchedArguments)
{
    std::string json_path;
    ArgSpec spec("simspeed");
    spec.json(&json_path).passthrough("google-benchmark flags");
    const std::vector<std::string> rest =
        run(spec, {"--benchmark_filter=Fig15", "--json=out.json",
                   "--benchmark_list_tests"});
    EXPECT_EQ(json_path, "out.json");
    EXPECT_EQ(rest, (std::vector<std::string>{
                        "prog", "--benchmark_filter=Fig15",
                        "--benchmark_list_tests"}));
}

TEST(ArgSpecDeathTest, UndeclaredKeyExits2WithSupportedList)
{
    unsigned tenants = 4;
    std::string protection = "guarder";
    ArgSpec spec("snpu_serve");
    spec.option("tenants", "tenants to serve (4)", &tenants)
        .option("protection", "any registered backend", &protection);
    // A typo must not silently serve the default tenant count, and
    // access_control= is just another unknown key whose rejection
    // lists protection=.
    EXPECT_EXIT(run(spec, {"tenant=2"}), ExitedWithCode(2),
                "unknown argument 'tenant=2'\nsupported arguments:\n"
                "  tenants=N\n      tenants to serve \\(4\\)\n"
                "  protection=VALUE");
    EXPECT_EXIT(run(spec, {"access_control=iommu"}), ExitedWithCode(2),
                "protection=VALUE");
}

TEST(ArgSpecDeathTest, JobsMustBeANumber)
{
    unsigned jobs = 0;
    ArgSpec spec("fault_sweep");
    spec.jobs(&jobs);
    EXPECT_EXIT(run(spec, {"--jobs=abc"}), ExitedWithCode(2),
                "malformed value in '--jobs=abc'\n"
                "supported arguments:\n  --jobs=N");
}

TEST(ArgSpecDeathTest, SeedMustParseWhole)
{
    std::uint64_t seed = 1;
    ArgSpec spec("fault_sweep");
    spec.seed(&seed);
    EXPECT_EXIT(run(spec, {"--seed=12x"}), ExitedWithCode(2),
                "malformed value in '--seed=12x'");
    EXPECT_EXIT(run(spec, {"--seed= 12"}), ExitedWithCode(2),
                "malformed");
}

TEST(ArgSpecDeathTest, NegativeIntoUnsignedExits2)
{
    unsigned tenants = 4;
    std::uint64_t seed = 1;
    ArgSpec spec("snpu_serve");
    spec.option("tenants", "", &tenants).option("seed", "", &seed);
    EXPECT_EXIT(run(spec, {"tenants=-1"}), ExitedWithCode(2),
                "malformed value in 'tenants=-1'");
    EXPECT_EXIT(run(spec, {"seed=-1"}), ExitedWithCode(2), "malformed");
    // Out of range for a 32-bit unsigned: no silent truncation.
    EXPECT_EXIT(run(spec, {"tenants=4294967296"}), ExitedWithCode(2),
                "malformed");
}

} // namespace
} // namespace snpu
