/**
 * @file
 * Unit tests for the core module: coordinates, packing, point cloud
 * container, RNG determinism, statistics helpers.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <unordered_set>
#include <vector>

#include "core/point_cloud.hpp"
#include "core/rng.hpp"
#include "core/stats.hpp"
#include "core/types.hpp"

namespace pointacc {
namespace {

TEST(Coord3, LexicographicOrdering)
{
    EXPECT_LT(Coord3(0, 0, 0), Coord3(0, 0, 1));
    EXPECT_LT(Coord3(0, 9, 9), Coord3(1, 0, 0));
    EXPECT_LT(Coord3(-1, 5, 5), Coord3(0, 0, 0));
    EXPECT_EQ(Coord3(3, 4, 5), Coord3(3, 4, 5));
    EXPECT_GT(Coord3(1, 0, 0), Coord3(0, 100, 100));
}

TEST(Coord3, Arithmetic)
{
    const Coord3 a{1, 2, 3}, b{-4, 5, -6};
    EXPECT_EQ(a + b, Coord3(-3, 7, -3));
    EXPECT_EQ(a - b, Coord3(5, -3, 9));
    EXPECT_EQ(a * 3, Coord3(3, 6, 9));
}

TEST(Coord3, Distance2)
{
    EXPECT_EQ(Coord3(0, 0, 0).distance2({1, 2, 2}), 9);
    EXPECT_EQ(Coord3(-1, -1, -1).distance2({1, 1, 1}), 12);
    // Large coordinates must not overflow 32 bits.
    const Coord3 far1{1000000, 0, 0}, far2{-1000000, 0, 0};
    EXPECT_EQ(far1.distance2(far2), 4000000000000LL);
}

TEST(Coord3, Chebyshev)
{
    EXPECT_EQ(Coord3(0, 0, 0).chebyshev({1, -2, 1}), 2);
    EXPECT_EQ(Coord3(5, 5, 5).chebyshev({5, 5, 5}), 0);
}

TEST(Coord3, PackPreservesOrder)
{
    // Packing must preserve lexicographic order, including negatives.
    const std::vector<Coord3> coords = {
        {-100, 50, 3}, {-100, 50, 4}, {-1, -1, -1}, {0, 0, 0},
        {0, 0, 1},     {0, 1, -500},  {7, -3, 2},   {1000, 1000, 1000},
    };
    for (std::size_t i = 0; i + 1 < coords.size(); ++i) {
        EXPECT_LT(packCoord(coords[i]), packCoord(coords[i + 1]))
            << "at index " << i;
    }
}

TEST(Coord3, PackUnpackRoundTrip)
{
    Rng rng(42);
    for (int i = 0; i < 1000; ++i) {
        const Coord3 c{
            static_cast<std::int32_t>(rng.range(2000000)) - 1000000,
            static_cast<std::int32_t>(rng.range(2000000)) - 1000000,
            static_cast<std::int32_t>(rng.range(2000000)) - 1000000};
        EXPECT_EQ(unpackCoord(packCoord(c)), c);
    }
}

TEST(Coord3, HashSpreadsValues)
{
    std::unordered_set<std::size_t> hashes;
    for (int x = 0; x < 16; ++x)
        for (int y = 0; y < 16; ++y)
            for (int z = 0; z < 16; ++z)
                hashes.insert(Coord3Hash{}(Coord3{x, y, z}));
    // All 4096 coordinates should hash distinctly (no structured
    // collisions on small grids).
    EXPECT_EQ(hashes.size(), 4096u);
}

TEST(FixedPoint, RoundTripResolution)
{
    EXPECT_EQ(fromFixed(toFixed(1.0f)), 1.0f);
    EXPECT_NEAR(fromFixed(toFixed(0.123f)), 0.123f,
                1.0f / (1 << kFixedPointFracBits));
    EXPECT_NEAR(fromFixed(toFixed(-5.67f)), -5.67f,
                1.0f / (1 << kFixedPointFracBits));
}

TEST(PointCloud, BasicAccessors)
{
    PointCloud pc({{1, 2, 3}, {4, 5, 6}}, 2);
    EXPECT_EQ(pc.size(), 2u);
    EXPECT_EQ(pc.channels(), 2);
    EXPECT_EQ(pc.coord(1), Coord3(4, 5, 6));
    pc.setFeature(0, 1, 3.5f);
    EXPECT_FLOAT_EQ(pc.feature(0, 1), 3.5f);
    EXPECT_FLOAT_EQ(pc.feature(1, 0), 0.0f);
}

TEST(PointCloud, BoundingBoxAndDensity)
{
    PointCloud pc({{0, 0, 0}, {1, 1, 1}, {3, 0, 0}});
    const auto box = pc.boundingBox();
    EXPECT_EQ(box.lo, Coord3(0, 0, 0));
    EXPECT_EQ(box.hi, Coord3(3, 1, 1));
    EXPECT_EQ(box.volume(), 4 * 2 * 2);
    EXPECT_DOUBLE_EQ(pc.density(), 3.0 / 16.0);
}

TEST(PointCloud, EmptyCloud)
{
    PointCloud pc;
    EXPECT_TRUE(pc.empty());
    EXPECT_DOUBLE_EQ(pc.density(), 0.0);
    EXPECT_TRUE(pc.isSorted());
    pc.sortByCoord();
    EXPECT_EQ(pc.dedupSorted(), 0u);
}

TEST(PointCloud, SortCarriesFeatures)
{
    PointCloud pc({{5, 0, 0}, {1, 0, 0}, {3, 0, 0}}, 1);
    pc.setFeature(0, 0, 50.0f);
    pc.setFeature(1, 0, 10.0f);
    pc.setFeature(2, 0, 30.0f);
    pc.sortByCoord();
    ASSERT_TRUE(pc.isSorted());
    EXPECT_FLOAT_EQ(pc.feature(0, 0), 10.0f);
    EXPECT_FLOAT_EQ(pc.feature(1, 0), 30.0f);
    EXPECT_FLOAT_EQ(pc.feature(2, 0), 50.0f);
}

TEST(PointCloud, DedupKeepsFirstOccurrence)
{
    PointCloud pc({{1, 1, 1}, {1, 1, 1}, {2, 2, 2}, {2, 2, 2}, {3, 3, 3}},
                  1);
    for (int i = 0; i < 5; ++i)
        pc.setFeature(i, 0, static_cast<float>(i));
    EXPECT_EQ(pc.dedupSorted(), 2u);
    ASSERT_EQ(pc.size(), 3u);
    EXPECT_FLOAT_EQ(pc.feature(0, 0), 0.0f);
    EXPECT_FLOAT_EQ(pc.feature(1, 0), 2.0f);
    EXPECT_FLOAT_EQ(pc.feature(2, 0), 4.0f);
}

TEST(Rng, DeterministicAcrossInstances)
{
    Rng a(123), b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += a() == b();
    EXPECT_LT(same, 2);
}

TEST(Rng, UniformInRange)
{
    Rng rng(7);
    for (int i = 0; i < 1000; ++i) {
        const double v = rng.uniform(2.0, 5.0);
        EXPECT_GE(v, 2.0);
        EXPECT_LT(v, 5.0);
    }
}

TEST(Rng, RangeBounds)
{
    Rng rng(9);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(rng.range(17), 17u);
}

TEST(Rng, GaussMoments)
{
    Rng rng(11);
    double sum = 0.0, sq = 0.0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
        const double g = rng.gauss();
        sum += g;
        sq += g * g;
    }
    EXPECT_NEAR(sum / n, 0.0, 0.05);
    EXPECT_NEAR(sq / n, 1.0, 0.05);
}

TEST(Stats, RegistryAccumulates)
{
    StatRegistry reg;
    reg.add("reads", 10);
    reg.add("reads", 5);
    reg.add("writes");
    EXPECT_EQ(reg.get("reads"), 15u);
    EXPECT_EQ(reg.get("writes"), 1u);
    EXPECT_EQ(reg.get("missing"), 0u);
    reg.clear();
    EXPECT_EQ(reg.get("reads"), 0u);
}

TEST(Stats, SummaryMoments)
{
    Summary s;
    for (double v : {1.0, 2.0, 3.0, 4.0})
        s.record(v);
    EXPECT_EQ(s.count(), 4u);
    EXPECT_DOUBLE_EQ(s.sum(), 10.0);
    EXPECT_DOUBLE_EQ(s.mean(), 2.5);
    EXPECT_DOUBLE_EQ(s.min(), 1.0);
    EXPECT_DOUBLE_EQ(s.max(), 4.0);
    EXPECT_DOUBLE_EQ(s.percentile(0.0), 1.0);
    EXPECT_DOUBLE_EQ(s.percentile(1.0), 4.0);
}

TEST(Stats, GeomeanMatchesHandComputed)
{
    EXPECT_DOUBLE_EQ(geomean({4.0, 9.0}), 6.0);
    EXPECT_NEAR(geomean({1.0, 10.0, 100.0}), 10.0, 1e-9);
    EXPECT_DOUBLE_EQ(geomean({}), 0.0);
}

TEST(Stats, GeomeanRejectsNonPositiveSamples)
{
    // log(0) = -inf used to collapse the mean to 0 silently; a
    // negative sample used to poison it with NaN. Both now fail loud.
    EXPECT_THROW(geomean({1.0, 0.0, 4.0}), std::invalid_argument);
    EXPECT_THROW(geomean({-2.0}), std::invalid_argument);
    EXPECT_THROW(geomean({3.0, -1.0}), std::invalid_argument);
    // Empty stays the documented 0.0, not a throw.
    EXPECT_DOUBLE_EQ(geomean({}), 0.0);
}

TEST(Stats, PercentileSeesSameSizeMutations)
{
    // Regression: a persistent selection scratch once refreshed only
    // when samples.size() changed, so a same-size mutation (clear() +
    // re-record) selected over STALE values. Percentiles now select
    // over a transient copy, so there is no state to go stale.
    Summary s;
    for (double v : {10.0, 20.0, 30.0})
        s.record(v);
    EXPECT_DOUBLE_EQ(s.percentile(0.5), 20.0);

    s.clear();
    for (double v : {1.0, 2.0, 3.0}) // same count as before
        s.record(v);
    EXPECT_DOUBLE_EQ(s.percentile(0.5), 2.0);
    EXPECT_DOUBLE_EQ(s.percentile(1.0), 3.0);
    EXPECT_DOUBLE_EQ(s.percentile(0.0), 1.0);
}

TEST(Stats, PercentileAfterClearAndReRecordOfAnySize)
{
    Summary s;
    for (double v : {40.0, 10.0, 30.0, 20.0})
        s.record(v);
    EXPECT_DOUBLE_EQ(s.percentile(0.99), 40.0);

    // Fewer samples than before, then more: each percentile sees
    // exactly the live samples.
    s.clear();
    for (double v : {7.0, 5.0})
        s.record(v);
    EXPECT_DOUBLE_EQ(s.percentile(0.0), 5.0);
    EXPECT_DOUBLE_EQ(s.percentile(1.0), 7.0);
    for (double v : {9.0, 1.0, 3.0})
        s.record(v);
    EXPECT_DOUBLE_EQ(s.percentile(0.0), 1.0);
    EXPECT_DOUBLE_EQ(s.percentile(0.5), 5.0);
    EXPECT_DOUBLE_EQ(s.percentile(1.0), 9.0);

    // Selection works on a copy: the samples keep record order.
    const std::vector<double> recorded = {7.0, 5.0, 9.0, 1.0, 3.0};
    EXPECT_EQ(s.data(), recorded);
}

TEST(Stats, ClearResetsToFreshState)
{
    Summary s;
    s.record(5.0);
    s.record(7.0);
    s.clear();
    EXPECT_EQ(s.count(), 0u);
    EXPECT_DOUBLE_EQ(s.sum(), 0.0);
    EXPECT_DOUBLE_EQ(s.mean(), 0.0);
    EXPECT_DOUBLE_EQ(s.percentile(0.5), 0.0);
    s.record(9.0);
    EXPECT_DOUBLE_EQ(s.min(), 9.0);
    EXPECT_DOUBLE_EQ(s.max(), 9.0);
    EXPECT_DOUBLE_EQ(s.percentile(0.5), 9.0);
}

TEST(Stats, MergeMatchesSingleSummaryRun)
{
    // merge(a, b) must equal one summary fed the union, in every
    // moment and percentile — the property the sharded bench relies
    // on when it folds per-shard reports into one.
    Summary a, b, all;
    for (double v : {5.0, 1.0, 9.0}) {
        a.record(v);
        all.record(v);
    }
    for (double v : {2.0, 14.0}) {
        b.record(v);
        all.record(v);
    }
    a.percentile(0.5); // a percentile before the merge changes nothing
    a.merge(b);
    EXPECT_EQ(a.count(), all.count());
    EXPECT_DOUBLE_EQ(a.sum(), all.sum());
    EXPECT_DOUBLE_EQ(a.min(), all.min());
    EXPECT_DOUBLE_EQ(a.max(), all.max());
    EXPECT_DOUBLE_EQ(a.mean(), all.mean());
    for (double p : {0.0, 0.25, 0.5, 0.75, 0.99, 1.0})
        EXPECT_DOUBLE_EQ(a.percentile(p), all.percentile(p)) << p;
}

TEST(Stats, MergeHandlesEmptySummaries)
{
    Summary empty, s;
    s.record(3.0);
    s.merge(empty); // no-op
    EXPECT_EQ(s.count(), 1u);
    EXPECT_DOUBLE_EQ(s.min(), 3.0);

    Summary into;
    into.merge(s); // empty absorbs: min/max come from the source
    EXPECT_EQ(into.count(), 1u);
    EXPECT_DOUBLE_EQ(into.min(), 3.0);
    EXPECT_DOUBLE_EQ(into.max(), 3.0);
    EXPECT_DOUBLE_EQ(into.percentile(0.5), 3.0);

    Summary e1, e2;
    e1.merge(e2);
    EXPECT_EQ(e1.count(), 0u);
}

TEST(Stats, PercentilesMatchSinglePercentileCalls)
{
    // One copy, ascending-rank selections over shrinking suffixes: each
    // result must equal the nearest-rank element of a fully sorted
    // copy, whatever the order of ps, with repeated ranks, duplicates
    // and tiny sample counts.
    const std::vector<double> ps = {0.99, 0.0, 0.5, 0.95, 0.5, 1.0, 0.25,
                                    -1.0, 2.0};
    Rng rng(23);
    for (std::size_t n : {0u, 1u, 2u, 3u, 10u, 101u, 5000u}) {
        Summary s;
        for (std::size_t i = 0; i < n; ++i)
            s.record(static_cast<double>(rng.range(n / 2 + 1)));
        const std::vector<double> before = s.data();
        const std::vector<double> got = s.percentiles(ps);
        std::vector<double> sorted = before;
        std::sort(sorted.begin(), sorted.end());
        ASSERT_EQ(got.size(), ps.size());
        for (std::size_t i = 0; i < ps.size(); ++i) {
            const double p = std::clamp(ps[i], 0.0, 1.0);
            const double expected =
                n == 0 ? 0.0
                       : sorted[static_cast<std::size_t>(
                             p * static_cast<double>(n - 1) + 0.5)];
            EXPECT_EQ(got[i], expected) << n << " p=" << ps[i];
            EXPECT_EQ(s.percentile(ps[i]), expected) << n << " p=" << ps[i];
        }
        EXPECT_EQ(s.data(), before);
    }
    EXPECT_TRUE(Summary().percentiles({}).empty());
}

/** Seeded sample streams shared by the Moments tests: empty, one
 *  sample, negative/duplicate values, and longer random runs. */
std::vector<std::vector<double>>
momentStreams()
{
    std::vector<std::vector<double>> streams = {
        {}, {3.5}, {-2.0}, {4.0, 4.0, 4.0}, {-1.5, 2.25, -7.0, 0.0}};
    Rng rng(17);
    for (std::size_t n : {2u, 9u, 100u, 1000u}) {
        std::vector<double> v;
        for (std::size_t i = 0; i < n; ++i)
            v.push_back(rng.uniform(-1e3, 1e6));
        streams.push_back(v);
    }
    return streams;
}

void
expectSameMoments(const Moments &m, const Summary &s)
{
    EXPECT_EQ(m.count(), s.count());
    EXPECT_EQ(m.sum(), s.sum());
    EXPECT_EQ(m.min(), s.min());
    EXPECT_EQ(m.max(), s.max());
    EXPECT_EQ(m.mean(), s.mean());
}

/** Left-to-right sum from 0.0: the fold record() must reproduce. */
double
foldSum(const std::vector<double> &v)
{
    double total = 0.0;
    for (double x : v)
        total += x;
    return total;
}

TEST(Stats, MomentsMatchSummaryBitForBit)
{
    // Serving reports keep queue waits and batch sizes as Moments; the
    // JSON they feed must not move by a single bit versus Summary, nor
    // versus a plain fold over the samples.
    for (const auto &stream : momentStreams()) {
        SCOPED_TRACE("stream of " + std::to_string(stream.size()));
        Moments m;
        Summary s;
        for (double v : stream) {
            m.record(v);
            s.record(v);
            expectSameMoments(m, s);
        }
        expectSameMoments(m, s);
        EXPECT_EQ(m.sum(), foldSum(stream));
        if (!stream.empty()) {
            EXPECT_EQ(m.min(),
                      *std::min_element(stream.begin(), stream.end()));
            EXPECT_EQ(m.max(),
                      *std::max_element(stream.begin(), stream.end()));
            EXPECT_EQ(m.mean(),
                      foldSum(stream) / static_cast<double>(stream.size()));
        }
        m.clear();
        s.clear();
        expectSameMoments(m, s);
        EXPECT_EQ(m.count(), 0u);
        EXPECT_EQ(m.mean(), 0.0);
    }
}

TEST(Stats, MomentsMergeMatchesSingleRunInBothOrders)
{
    // Integer-valued samples (what queue waits in ns and batch sizes
    // are) keep every partial sum exact, so a merge must equal one run
    // over the union bit for bit, whichever side absorbs the other.
    Rng rng(5);
    for (std::size_t na : {0u, 1u, 3u, 50u}) {
        for (std::size_t nb : {0u, 1u, 4u, 70u}) {
            Moments a, b, ab, ba;
            std::vector<double> av, bv;
            for (std::size_t i = 0; i < na; ++i)
                av.push_back(static_cast<double>(rng.range(1'000'000)));
            for (std::size_t i = 0; i < nb; ++i)
                bv.push_back(static_cast<double>(rng.range(1'000'000)));
            for (double v : av) {
                a.record(v);
                ab.record(v);
            }
            for (double v : bv) {
                b.record(v);
                ab.record(v);
            }
            for (double v : bv)
                ba.record(v);
            for (double v : av)
                ba.record(v);

            SCOPED_TRACE(std::to_string(na) + " + " + std::to_string(nb));
            Moments aThenB = a;
            aThenB.merge(b);
            Moments bThenA = b;
            bThenA.merge(a);
            for (const Moments *m : {&aThenB, &bThenA}) {
                EXPECT_EQ(m->count(), ab.count());
                EXPECT_EQ(m->sum(), ab.sum());
                EXPECT_EQ(m->min(), ab.min());
                EXPECT_EQ(m->max(), ab.max());
                EXPECT_EQ(m->mean(), ab.mean());
                EXPECT_EQ(m->mean(), ba.mean());
            }
        }
    }
}

TEST(Stats, MomentsMergeMatchesSummaryMerge)
{
    // Over arbitrary doubles the merged sum depends on the fold order:
    // both merges must add the two partial sums, ours first.
    const auto streams = momentStreams();
    for (const auto &x : streams) {
        for (const auto &y : streams) {
            Moments mx, my;
            Summary sx, sy;
            for (double v : x) {
                mx.record(v);
                sx.record(v);
            }
            for (double v : y) {
                my.record(v);
                sy.record(v);
            }
            mx.merge(my);
            sx.merge(sy);
            expectSameMoments(mx, sx);
            EXPECT_EQ(mx.count(), x.size() + y.size());
            EXPECT_EQ(mx.sum(), foldSum(x) + foldSum(y));
        }
    }
}

} // namespace
} // namespace pointacc
