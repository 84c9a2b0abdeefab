/**
 * @file
 * Tests for the functional mapping operations. The central property:
 * hash-based and mergesort-based kernel mapping are interchangeable —
 * they must produce identical MapSets on every cloud (this is the
 * correctness claim behind PointAcc's ranking-based Mapping Unit).
 * Likewise the grid-indexed ball query and kNN must equal the
 * brute-force oracles here field for field.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>

#include "core/rng.hpp"
#include "datasets/synthetic.hpp"
#include "mapping/fps.hpp"
#include "mapping/kernel_map.hpp"
#include "mapping/knn.hpp"
#include "mapping/quantize.hpp"

namespace pointacc {
namespace {

TEST(KernelOffsets, Size3Kernel)
{
    const auto offs = kernelOffsets(3, 1);
    ASSERT_EQ(offs.size(), 27u);
    EXPECT_EQ(offs.front(), Coord3(-1, -1, -1));
    EXPECT_EQ(offs[13], Coord3(0, 0, 0)); // center at the middle index
    EXPECT_EQ(offs.back(), Coord3(1, 1, 1));
}

TEST(KernelOffsets, EvenKernelIsForwardOnly)
{
    const auto offs = kernelOffsets(2, 1);
    ASSERT_EQ(offs.size(), 8u);
    EXPECT_EQ(offs.front(), Coord3(0, 0, 0));
    EXPECT_EQ(offs.back(), Coord3(1, 1, 1));
}

TEST(KernelOffsets, ScaledByTensorStride)
{
    const auto offs = kernelOffsets(3, 4);
    EXPECT_EQ(offs.front(), Coord3(-4, -4, -4));
    EXPECT_EQ(offs.back(), Coord3(4, 4, 4));
}

TEST(Quantize, MatchesPaperExamples)
{
    // Paper Section 2.1.1: point (3,5) at ts=1 quantizes to (2,4) at
    // ts=2; point (4,8) at ts=4 quantizes to (0,8)... wait: (4,8) at
    // ts=8 -> (0,8). Verify both.
    EXPECT_EQ(quantizeCoord({3, 5, 0}, 2), Coord3(2, 4, 0));
    EXPECT_EQ(quantizeCoord({4, 8, 0}, 8), Coord3(0, 8, 0));
}

TEST(Quantize, NegativeCoordinatesFloor)
{
    EXPECT_EQ(quantizeCoord({-1, -1, -1}, 2), Coord3(-2, -2, -2));
    EXPECT_EQ(quantizeCoord({-4, -5, -8}, 4), Coord3(-4, -8, -8));
}

TEST(Quantize, DownsampleDeduplicates)
{
    PointCloud in({{0, 0, 0}, {1, 0, 0}, {0, 1, 0}, {4, 4, 4}});
    const auto out = quantizeDownsample(in, 2);
    ASSERT_EQ(out.size(), 2u); // three points collapse into cell (0,0,0)
    EXPECT_EQ(out.coord(0), Coord3(0, 0, 0));
    EXPECT_EQ(out.coord(1), Coord3(4, 4, 4));
    EXPECT_EQ(out.tensorStride(), 2);
}

TEST(Quantize, RepeatedDownsampleMatchesDirect)
{
    auto cloud = generate(DatasetKind::S3DIS, 21, 0.05);
    const auto two = quantizeDownsample(cloud, 2);
    const auto fourViaTwo = quantizeDownsample(two, 4);
    const auto fourDirect = quantizeDownsample(cloud, 4);
    EXPECT_EQ(fourViaTwo.coordinates(), fourDirect.coordinates());
}

TEST(Fps, SelectsRequestedCount)
{
    const auto cloud = makeObjectCloud(3, 300, 64);
    const auto sel = farthestPointSampling(cloud, 50);
    EXPECT_EQ(sel.size(), 50u);
    std::set<PointIndex> unique(sel.begin(), sel.end());
    EXPECT_EQ(unique.size(), 50u) << "FPS must not repeat points";
}

TEST(Fps, FirstTwoPointsAreExtremes)
{
    // The second FPS point is by definition the farthest from the seed.
    PointCloud cloud({{0, 0, 0}, {1, 0, 0}, {5, 0, 0}, {9, 0, 0}});
    const auto sel = farthestPointSampling(cloud, 2, 0);
    ASSERT_EQ(sel.size(), 2u);
    EXPECT_EQ(sel[0], 0);
    EXPECT_EQ(sel[1], 3);
}

TEST(Fps, CoverageBeatsRandomSampling)
{
    // Property: FPS minimizes the maximum gap. For points on a line,
    // selecting k of n by FPS must cover every point within n/k * 2.
    std::vector<Coord3> line;
    for (int i = 0; i < 256; ++i)
        line.push_back({i, 0, 0});
    PointCloud cloud(std::move(line));
    const auto sel = farthestPointSampling(cloud, 16);
    for (int i = 0; i < 256; ++i) {
        std::int64_t best = std::numeric_limits<std::int64_t>::max();
        for (auto s : sel)
            best = std::min(best, cloud.coord(s).distance2({i, 0, 0}));
        EXPECT_LE(best, 32LL * 32LL) << "gap at " << i;
    }
}

TEST(Fps, ClampToCloudSize)
{
    const auto cloud = makeObjectCloud(3, 100, 64);
    const auto sel = farthestPointSampling(cloud, 100000);
    EXPECT_EQ(sel.size(), cloud.size());
}

TEST(RandomSampling, DeterministicAndUnique)
{
    const auto cloud = makeObjectCloud(4, 400, 64);
    const auto a = randomSampling(cloud, 64, 5);
    const auto b = randomSampling(cloud, 64, 5);
    EXPECT_EQ(a, b);
    std::set<PointIndex> unique(a.begin(), a.end());
    EXPECT_EQ(unique.size(), 64u);
}

TEST(GatherPoints, CarriesFeatures)
{
    PointCloud cloud({{1, 0, 0}, {2, 0, 0}, {3, 0, 0}}, 1);
    cloud.setFeature(0, 0, 1.5f);
    cloud.setFeature(2, 0, 3.5f);
    const auto out = gatherPoints(cloud, {2, 0});
    ASSERT_EQ(out.size(), 2u);
    EXPECT_EQ(out.coord(0), Coord3(3, 0, 0));
    EXPECT_FLOAT_EQ(out.feature(0, 0), 3.5f);
    EXPECT_FLOAT_EQ(out.feature(1, 0), 1.5f);
}

TEST(Knn, FindsExactNeighbors)
{
    PointCloud input({{0, 0, 0}, {2, 0, 0}, {5, 0, 0}, {100, 0, 0}});
    PointCloud queries({{1, 0, 0}});
    const auto lists = kNearestNeighbors(input, queries, 2);
    ASSERT_EQ(lists.size(), 1u);
    ASSERT_EQ(lists[0].indices.size(), 2u);
    EXPECT_EQ(lists[0].indices[0], 0); // dist 1, tie-break lower index
    EXPECT_EQ(lists[0].indices[1], 1); // dist 1
    EXPECT_EQ(lists[0].distances2[0], 1);
    EXPECT_EQ(lists[0].distances2[1], 1);
}

TEST(Knn, DistancesNonDecreasing)
{
    const auto input = makeObjectCloud(6, 500, 64);
    const auto queries = makeObjectCloud(7, 40, 64);
    const auto lists = kNearestNeighbors(input, queries, 16);
    for (const auto &list : lists) {
        for (std::size_t i = 1; i < list.distances2.size(); ++i)
            EXPECT_GE(list.distances2[i], list.distances2[i - 1]);
    }
}

TEST(BallQuery, RespectsRadius)
{
    const auto input = makeObjectCloud(8, 500, 64);
    const auto queries = makeObjectCloud(9, 30, 64);
    const std::int64_t r2 = 10 * 10;
    const auto lists = ballQuery(input, queries, 8, r2);
    for (const auto &list : lists) {
        EXPECT_LE(list.indices.size(), 8u);
        for (auto d : list.distances2)
            EXPECT_LE(d, r2);
    }
}

TEST(BallQuery, SubsetOfKnn)
{
    const auto input = makeObjectCloud(10, 300, 64);
    const auto queries = makeObjectCloud(11, 20, 64);
    const std::int64_t r2 = 64;
    const auto knn = kNearestNeighbors(input, queries, 8);
    const auto ball = ballQuery(input, queries, 8, r2);
    for (std::size_t q = 0; q < queries.size(); ++q) {
        // Ball query results = kNN results filtered by radius.
        std::vector<PointIndex> expected;
        for (std::size_t i = 0; i < knn[q].indices.size(); ++i) {
            if (knn[q].distances2[i] <= r2)
                expected.push_back(knn[q].indices[i]);
        }
        EXPECT_EQ(ball[q].indices, expected) << "query " << q;
    }
}

// ---------------------------------------------------------------- //
//           Grid neighbour search vs the brute-force oracle         //
// ---------------------------------------------------------------- //

/** The k smallest (distance, index) pairs of `cands`, in order, with
 *  the number of candidates offered. */
NeighborList
oracleSelect(std::vector<std::pair<std::int64_t, PointIndex>> cands,
             int k)
{
    std::sort(cands.begin(), cands.end());
    NeighborList list;
    list.candidates = cands.size();
    for (std::size_t i = 0;
         i < std::min(cands.size(), static_cast<std::size_t>(k)); ++i) {
        list.distances2.push_back(cands[i].first);
        list.indices.push_back(cands[i].second);
    }
    return list;
}

/** Brute-force kNN: every input point is a candidate. */
std::vector<NeighborList>
oracleKnn(const PointCloud &input, const PointCloud &queries, int k)
{
    std::vector<NeighborList> out;
    for (const Coord3 &q : queries.coordinates()) {
        std::vector<std::pair<std::int64_t, PointIndex>> cands;
        for (std::size_t i = 0; i < input.size(); ++i)
            cands.emplace_back(
                input.coord(static_cast<PointIndex>(i)).distance2(q),
                static_cast<PointIndex>(i));
        out.push_back(oracleSelect(std::move(cands), k));
    }
    return out;
}

/** Brute-force ball query: the in-radius points are the candidates. */
std::vector<NeighborList>
oracleBallQuery(const PointCloud &input, const PointCloud &queries, int k,
                std::int64_t radius2)
{
    std::vector<NeighborList> out;
    for (const Coord3 &q : queries.coordinates()) {
        std::vector<std::pair<std::int64_t, PointIndex>> cands;
        for (std::size_t i = 0; i < input.size(); ++i) {
            const auto d =
                input.coord(static_cast<PointIndex>(i)).distance2(q);
            if (d <= radius2)
                cands.emplace_back(d, static_cast<PointIndex>(i));
        }
        out.push_back(oracleSelect(std::move(cands), k));
    }
    return out;
}

void
expectSameLists(const std::vector<NeighborList> &got,
                const std::vector<NeighborList> &want,
                const std::string &what)
{
    ASSERT_EQ(got.size(), want.size()) << what;
    for (std::size_t q = 0; q < got.size(); ++q) {
        EXPECT_EQ(got[q].indices, want[q].indices) << what << " q" << q;
        EXPECT_EQ(got[q].distances2, want[q].distances2)
            << what << " q" << q;
        EXPECT_EQ(got[q].candidates, want[q].candidates)
            << what << " q" << q;
    }
}

/** `n` points drawn uniformly from [lo, lo + extent)^3, duplicates
 *  kept (a small extent makes many). */
PointCloud
randomCloud(Rng &rng, std::size_t n, std::int32_t lo, std::uint64_t extent)
{
    std::vector<Coord3> coords;
    for (std::size_t i = 0; i < n; ++i)
        coords.emplace_back(lo + static_cast<std::int32_t>(rng.range(extent)),
                            lo + static_cast<std::int32_t>(rng.range(extent)),
                            lo + static_cast<std::int32_t>(rng.range(extent)));
    return PointCloud(std::move(coords));
}

/** Check both searches against the oracles on one (input, queries). */
void
checkAgainstOracle(const PointCloud &input, const PointCloud &queries,
                   const std::vector<int> &ks,
                   const std::vector<std::int64_t> &radii2,
                   const std::string &what)
{
    for (const int k : ks) {
        const std::string tag = what + " k=" + std::to_string(k);
        expectSameLists(kNearestNeighbors(input, queries, k),
                        oracleKnn(input, queries, k), tag + " knn");
        for (const std::int64_t r2 : radii2)
            expectSameLists(ballQuery(input, queries, k, r2),
                            oracleBallQuery(input, queries, k, r2),
                            tag + " ball r2=" + std::to_string(r2));
    }
}

TEST(NeighborOracle, SeededRandomCloudsMatchBruteForce)
{
    // Extents from 2 (nearly every point duplicated, every distance
    // tied) to 5000 (sparse); negative corners; queries drawn from a
    // box wider than the input's, the input itself (self search) and
    // k up to past the input size.
    const std::uint64_t extents[] = {2, 6, 40, 300, 5000};
    for (std::uint64_t seed = 0; seed < 40; ++seed) {
        Rng rng(seed * 0x9e3779b9ULL + 1);
        const std::uint64_t extent = extents[seed % 5];
        const auto lo = -static_cast<std::int32_t>(rng.range(2 * extent));
        const std::size_t n = 1 + rng.range(300);
        const auto input = randomCloud(rng, n, lo, extent);
        const auto queries = randomCloud(
            rng, 1 + rng.range(60), lo - static_cast<std::int32_t>(extent),
            3 * extent);
        const auto r = static_cast<std::int64_t>(1 + rng.range(extent));
        const std::vector<int> ks = {1, 3, 20, static_cast<int>(n) + 5};
        const std::vector<std::int64_t> radii2 = {0, 1, r * r,
                                                  r * r + r};
        const std::string tag = "seed " + std::to_string(seed);
        checkAgainstOracle(input, queries, ks, radii2, tag);
        checkAgainstOracle(input, input, {20}, {r * r}, tag + " self");
    }
}

TEST(NeighborOracle, SurfaceCloudsMatchBruteForce)
{
    // The shapes the networks search: surface-like object clouds.
    const auto input = makeObjectCloud(31, 1500, 128);
    const auto queries = makeObjectCloud(32, 200, 128);
    checkAgainstOracle(input, queries, {3, 20, 32}, {169, 676},
                       "object");
    checkAgainstOracle(input, input, {20}, {49}, "object self");
}

TEST(NeighborOracle, EquidistantTiesAtTheKthPlace)
{
    // Six points at distance 1 from the origin (two of them
    // duplicated) and a ring at distance 2: every k cuts through a
    // tie, which must resolve toward the lower index.
    PointCloud input({{0, 0, 2},  {1, 0, 0}, {0, -1, 0}, {-1, 0, 0},
                      {0, 0, 1},  {0, 1, 0}, {0, 0, -1}, {2, 0, 0},
                      {-1, 0, 0}, {0, 0, 1}, {0, -2, 0}, {0, 2, 0}});
    PointCloud queries({{0, 0, 0}, {1, 1, 1}, {-1, 0, 0}});
    checkAgainstOracle(input, queries, {1, 2, 3, 4, 5, 6, 7, 8, 9, 12, 13},
                       {0, 1, 2, 4}, "ties");
}

TEST(NeighborOracle, SinglePointAndFarQueries)
{
    // One input point; and queries far outside the input's extent on
    // every side, where ring expansion must still stop.
    PointCloud single({{-7, 3, 12}});
    PointCloud far({{-7, 3, 12},
                    {100000000, 0, 0},
                    {-100000000, -100000000, -100000000},
                    {0, 0, 100000000},
                    {-7, 3, 13}});
    checkAgainstOracle(single, far, {1, 4}, {0, 1, 400}, "single");

    Rng rng(77);
    const auto input = randomCloud(rng, 200, -50, 100);
    checkAgainstOracle(input, far, {1, 3, 20, 250}, {0, 1, 2500},
                       "far");
}

TEST(NeighborsToMaps, GroupsByRank)
{
    std::vector<NeighborList> lists(2);
    lists[0].indices = {5, 7};
    lists[0].distances2 = {1, 2};
    lists[1].indices = {3};
    lists[1].distances2 = {0};
    const auto maps = neighborsToMaps(lists, 2);
    EXPECT_EQ(maps.size(), 3u);
    ASSERT_EQ(maps.forWeight(0).size(), 2u);
    EXPECT_EQ(maps.forWeight(0)[0], (Map{5, 0, 0}));
    EXPECT_EQ(maps.forWeight(0)[1], (Map{3, 1, 0}));
    ASSERT_EQ(maps.forWeight(1).size(), 1u);
    EXPECT_EQ(maps.forWeight(1)[0], (Map{7, 0, 1}));
}

TEST(KernelMap, PaperFigure9Example)
{
    // Fig. 9: 2-D example embedded in z=0. Input/output clouds both
    // {(1,1),(2,2),(2,4),(3,2),(4,3)}; offset (-1,-1) (w_-1,-1) yields
    // exactly two maps: (p0,q1) and (p3,q4).
    PointCloud cloud({{1, 1, 0}, {2, 2, 0}, {2, 4, 0}, {3, 2, 0},
                      {4, 3, 0}});
    KernelMapConfig cfg;
    cfg.kernelSize = 3;
    const auto maps = sortKernelMap(cloud, cloud, cfg);

    // Weight index for delta (-1,-1,0) in the 27-offset enumeration:
    // dx=-1 -> 0, dy=-1 -> 0, dz=0 -> 1 => index 0*9 + 0*3 + 1 = 1.
    const auto &group = maps.forWeight(1);
    ASSERT_EQ(group.size(), 2u);
    EXPECT_EQ(group[0], (Map{0, 1, 1}));
    EXPECT_EQ(group[1], (Map{3, 4, 1}));
}

TEST(KernelMap, CenterWeightIsIdentityWhenStride1)
{
    auto cloud = generate(DatasetKind::ModelNet40, 31, 0.25);
    KernelMapConfig cfg;
    const auto maps = sortKernelMap(cloud, cloud, cfg);
    const auto &center = maps.forWeight(13);
    ASSERT_EQ(center.size(), cloud.size());
    for (const auto &m : center)
        EXPECT_EQ(m.in, m.out);
}

TEST(KernelMap, HashAndSortAgreeOnAllDatasets)
{
    for (const auto &spec : allDatasetSpecs()) {
        auto input = generate(spec.kind, 17, 0.05);
        KernelMapConfig cfg;
        cfg.kernelSize = 3;

        auto hashMaps = hashKernelMap(input, input, cfg);
        auto sortMaps = sortKernelMap(input, input, cfg);
        hashMaps.sortGroups();
        sortMaps.sortGroups();
        ASSERT_EQ(hashMaps.size(), sortMaps.size()) << spec.name;
        for (std::int32_t w = 0; w < hashMaps.numWeights(); ++w)
            EXPECT_EQ(hashMaps.forWeight(w), sortMaps.forWeight(w))
                << spec.name << " weight " << w;
    }
}

TEST(KernelMap, StridedDownsampleAgreement)
{
    auto input = generate(DatasetKind::S3DIS, 23, 0.1);
    const auto output = quantizeDownsample(input, 2);
    KernelMapConfig cfg;
    cfg.kernelSize = 2;
    cfg.inStride = 1;
    cfg.outStride = 2;

    auto hashMaps = hashKernelMap(input, output, cfg);
    auto sortMaps = sortKernelMap(input, output, cfg);
    hashMaps.sortGroups();
    sortMaps.sortGroups();
    ASSERT_EQ(hashMaps.size(), sortMaps.size());
    for (std::int32_t w = 0; w < hashMaps.numWeights(); ++w)
        EXPECT_EQ(hashMaps.forWeight(w), sortMaps.forWeight(w));

    // Every input point lands in exactly one output cell across the 8
    // offsets of the k=2 downsampling kernel.
    EXPECT_EQ(hashMaps.size(), input.size());
}

TEST(KernelMap, TransposeInvertsDirection)
{
    auto input = generate(DatasetKind::ShapeNet, 29, 0.1);
    const auto output = quantizeDownsample(input, 2);
    KernelMapConfig cfg;
    cfg.kernelSize = 2;
    cfg.outStride = 2;
    const auto down = sortKernelMap(input, output, cfg);
    const auto up = transposeMaps(down, 2);
    EXPECT_EQ(up.size(), down.size());
    // Each transposed map must appear with in/out swapped.
    std::set<std::pair<PointIndex, PointIndex>> downPairs, upPairs;
    for (const auto &m : down.flattened())
        downPairs.insert({m.in, m.out});
    for (const auto &m : up.flattened())
        upPairs.insert({m.out, m.in});
    EXPECT_EQ(downPairs, upPairs);
}

class KernelMapParams
    : public ::testing::TestWithParam<std::tuple<int, int>>
{};

TEST_P(KernelMapParams, HashSortEquivalenceSweep)
{
    const auto [kernelSize, seed] = GetParam();
    auto input = makeIndoorScene(static_cast<std::uint64_t>(seed), 2000,
                                 200);
    KernelMapConfig cfg;
    cfg.kernelSize = kernelSize;
    auto h = hashKernelMap(input, input, cfg);
    auto s = sortKernelMap(input, input, cfg);
    h.sortGroups();
    s.sortGroups();
    ASSERT_EQ(h.size(), s.size());
    for (std::int32_t w = 0; w < h.numWeights(); ++w)
        EXPECT_EQ(h.forWeight(w), s.forWeight(w));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, KernelMapParams,
    ::testing::Combine(::testing::Values(1, 2, 3, 5),
                       ::testing::Values(1, 2, 3)));

} // namespace
} // namespace pointacc
