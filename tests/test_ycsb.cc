/**
 * @file
 * Unit tests for the YCSB workload generator: the standard mixes of
 * Load and A-F (parameterized proportion checks), Zipfian skew,
 * latest-distribution recency, determinism, and scan lengths.
 */

#include <gtest/gtest.h>

#include <map>

#include "ycsb/ycsb.hh"

namespace hippo::test
{

using namespace hippo::ycsb;

namespace
{

std::map<OpType, uint64_t>
opMix(Workload w, uint64_t records, uint64_t ops, uint64_t seed)
{
    Generator gen(w, records, ops, seed);
    std::map<OpType, uint64_t> mix;
    while (gen.hasNext())
        mix[gen.next().type]++;
    return mix;
}

} // namespace

struct MixCase
{
    Workload workload;
    OpType type;
    double expected; ///< proportion
};

/**
 * "A_READ": the case's test-name suffix, which is also how gtest
 * prints it. gtest's default printer would dump the struct's raw
 * bytes, padding included, into the test listing.
 */
std::string
caseName(const MixCase &c)
{
    return std::string(workloadName(c.workload)) + "_" +
           opTypeName(c.type);
}

void
PrintTo(const MixCase &c, std::ostream *os)
{
    *os << caseName(c);
}

class YcsbMix : public ::testing::TestWithParam<MixCase>
{};

TEST_P(YcsbMix, ProportionWithinTolerance)
{
    const MixCase &c = GetParam();
    const uint64_t ops = 20000;
    auto mix = opMix(c.workload, 1000, ops, 42);
    double got = (double)mix[c.type] / ops;
    EXPECT_NEAR(got, c.expected, 0.02)
        << workloadName(c.workload) << " " << opTypeName(c.type);
}

INSTANTIATE_TEST_SUITE_P(
    CoreWorkloads, YcsbMix,
    ::testing::Values(
        MixCase{Workload::Load, OpType::Insert, 1.0},
        MixCase{Workload::A, OpType::Read, 0.5},
        MixCase{Workload::A, OpType::Update, 0.5},
        MixCase{Workload::B, OpType::Read, 0.95},
        MixCase{Workload::B, OpType::Update, 0.05},
        MixCase{Workload::C, OpType::Read, 1.0},
        MixCase{Workload::D, OpType::Read, 0.95},
        MixCase{Workload::D, OpType::Insert, 0.05},
        MixCase{Workload::E, OpType::Scan, 0.95},
        MixCase{Workload::E, OpType::Insert, 0.05},
        MixCase{Workload::F, OpType::Read, 0.5},
        MixCase{Workload::F, OpType::ReadModifyWrite, 0.5}),
    [](const auto &info) { return caseName(info.param); });

TEST(Ycsb, LoadInsertsDenseSequentialKeys)
{
    Generator gen(Workload::Load, 100, 100, 7);
    uint64_t expect = 0;
    while (gen.hasNext()) {
        Op op = gen.next();
        EXPECT_EQ(op.type, OpType::Insert);
        EXPECT_EQ(op.key, expect++);
    }
    EXPECT_EQ(expect, 100u);
}

TEST(Ycsb, DeterministicPerSeed)
{
    Generator a(Workload::A, 1000, 500, 9);
    Generator b(Workload::A, 1000, 500, 9);
    Generator c(Workload::A, 1000, 500, 10);
    bool same = true, diff = false;
    while (a.hasNext()) {
        Op oa = a.next(), ob = b.next(), oc = c.next();
        same &= oa.type == ob.type && oa.key == ob.key;
        diff |= oa.type != oc.type || oa.key != oc.key;
    }
    EXPECT_TRUE(same);
    EXPECT_TRUE(diff);
}

TEST(Ycsb, KeysStayInRange)
{
    for (Workload w : {Workload::A, Workload::B, Workload::C,
                       Workload::D, Workload::E, Workload::F}) {
        Generator gen(w, 500, 2000, 13);
        uint64_t max_key = 500;
        while (gen.hasNext()) {
            Op op = gen.next();
            if (op.type == OpType::Insert) {
                EXPECT_EQ(op.key, max_key) << workloadName(w);
                max_key++;
            } else {
                EXPECT_LT(op.key, max_key) << workloadName(w);
            }
        }
        EXPECT_EQ(gen.finalRecordCount(), max_key);
    }
}

TEST(Ycsb, ZipfianIsSkewed)
{
    ZipfianGenerator zipf(1000);
    Rng rng(5);
    std::map<uint64_t, uint64_t> counts;
    const int n = 50000;
    for (int i = 0; i < n; i++)
        counts[zipf.next(rng)]++;
    // Rank 0 under theta=0.99 over 1000 items draws ~13% of
    // requests; the tail is long.
    EXPECT_GT(counts[0], n / 12);
    EXPECT_GT(counts[0], counts[10] * 2);
    EXPECT_GT(counts.size(), 200u) << "long tail present";
    for (auto &[rank, cnt] : counts)
        EXPECT_LT(rank, 1000u);
}

TEST(Ycsb, ScrambledZipfianSpreadsHotKeys)
{
    // The hottest keys must not be the numerically-first keys.
    auto mixless = [](uint64_t records) {
        Generator gen(Workload::C, records, 20000, 3);
        std::map<uint64_t, uint64_t> counts;
        while (gen.hasNext())
            counts[gen.next().key]++;
        uint64_t hottest = 0, hottest_count = 0;
        for (auto &[k, c] : counts) {
            if (c > hottest_count) {
                hottest = k;
                hottest_count = c;
            }
        }
        return hottest;
    };
    EXPECT_NE(mixless(10000), 0u)
        << "scrambling must move the hot rank away from key 0";
}

TEST(Ycsb, LatestDistributionFavorsRecentInserts)
{
    Generator gen(Workload::D, 1000, 20000, 21);
    uint64_t recent_reads = 0, total_reads = 0;
    uint64_t inserted = 1000;
    while (gen.hasNext()) {
        Op op = gen.next();
        if (op.type == OpType::Insert) {
            inserted++;
        } else if (op.type == OpType::Read) {
            total_reads++;
            if (op.key + 100 >= inserted)
                recent_reads++;
        }
    }
    EXPECT_GT((double)recent_reads / total_reads, 0.5)
        << "the latest distribution reads the newest keys";
}

TEST(Ycsb, ScanLengthsBounded)
{
    Generator gen(Workload::E, 1000, 5000, 17);
    bool saw_scan = false;
    while (gen.hasNext()) {
        Op op = gen.next();
        if (op.type != OpType::Scan)
            continue;
        saw_scan = true;
        EXPECT_GE(op.scanLength, 1u);
        EXPECT_LE(op.scanLength, specFor(Workload::E).maxScanLength);
    }
    EXPECT_TRUE(saw_scan);
}

TEST(Ycsb, GeneratorExhaustsExactly)
{
    Generator gen(Workload::A, 10, 25, 1);
    uint64_t n = 0;
    while (gen.hasNext()) {
        gen.next();
        n++;
    }
    EXPECT_EQ(n, 25u);
    EXPECT_EQ(gen.opCount(), 25u);
}

} // namespace hippo::test
