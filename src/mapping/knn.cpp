#include "mapping/knn.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>

#include "core/logging.hpp"

namespace pointacc {

namespace {

using Candidate = std::pair<std::int64_t, PointIndex>;

/** floor(sqrt(INT64_MAX)): the largest value whose square is an int64. */
constexpr std::int64_t kSqrtMax = 3037000499;

/**
 * Select the k smallest (distance, index) pairs with stable tie-break
 * on index. Partial sort keeps this O(n log k).
 */
NeighborList
selectK(std::vector<Candidate> &cands, std::size_t k)
{
    k = std::min(k, cands.size());
    std::partial_sort(cands.begin(),
                      cands.begin() + static_cast<std::ptrdiff_t>(k),
                      cands.end());
    NeighborList list;
    list.indices.reserve(k);
    list.distances2.reserve(k);
    for (std::size_t i = 0; i < k; ++i) {
        list.distances2.push_back(cands[i].first);
        list.indices.push_back(cands[i].second);
    }
    return list;
}

/** Smallest s >= 0 with s * s >= v. */
std::int64_t
ceilSqrt(std::int64_t v)
{
    if (v <= 0)
        return 0;
    if (v > kSqrtMax * kSqrtMax)
        return kSqrtMax + 1;
    auto s = static_cast<std::int64_t>(std::sqrt(static_cast<double>(v)));
    while (s > 0 && (s - 1) * (s - 1) >= v)
        --s;
    while (s * s < v)
        ++s;
    return s;
}

std::int64_t
floorDiv(std::int64_t a, std::int64_t b)
{
    const std::int64_t q = a / b;
    return (a % b != 0 && a < 0) ? q - 1 : q;
}

std::array<std::int64_t, 3>
axes(const Coord3 &c)
{
    return {c.x, c.y, c.z};
}

/**
 * Uniform grid over a searched cloud: cubic cells anchored at the
 * bounding box's low corner, numbered z-fastest so the cells of one
 * (x, y) column are consecutive. A stable counting sort lays each
 * cell's points out as one index-ordered run, which makes any z-range
 * of a column one contiguous run too.
 */
class Grid
{
  public:
    /**
     * Cells have edge at least `minEdge`; the edge doubles until the
     * grid has at most 4 cells per point (and 32-bit cell ids), so a
     * sparse cloud with a wide extent cannot ask for more cells than
     * memory holds.
     */
    Grid(const PointCloud &cloud, std::int64_t minEdge)
    {
        const BoundingBox box = cloud.boundingBox();
        lo = axes(box.lo);
        const auto hi = axes(box.hi);
        const std::int64_t maxCells = std::min<std::int64_t>(
            4 * static_cast<std::int64_t>(cloud.size()) + 64,
            std::numeric_limits<std::uint32_t>::max() - 1);
        edge = std::max<std::int64_t>(1, minEdge);
        for (;;) {
            std::int64_t cells = 1;
            for (int a = 0; a < 3; ++a) {
                dims[a] = (hi[a] - lo[a]) / edge + 1;
                cells = cells > maxCells / dims[a] ? maxCells + 1
                                                   : cells * dims[a];
            }
            if (cells <= maxCells)
                break;
            edge *= 2;
        }

        const std::size_t numCells =
            static_cast<std::size_t>(dims[0] * dims[1] * dims[2]);
        std::vector<std::uint32_t> cellOf(cloud.size());
        start.assign(numCells + 1, 0);
        for (std::size_t i = 0; i < cloud.size(); ++i) {
            const auto c = axes(cloud.coord(static_cast<PointIndex>(i)));
            cellOf[i] = static_cast<std::uint32_t>(
                cellId((c[0] - lo[0]) / edge, (c[1] - lo[1]) / edge,
                       (c[2] - lo[2]) / edge));
            start[cellOf[i] + 1] += 1;
        }
        for (std::size_t c = 0; c < numCells; ++c)
            start[c + 1] += start[c];
        std::vector<std::uint32_t> fill(start.begin(), start.end() - 1);
        coords.resize(cloud.size());
        index.resize(cloud.size());
        for (std::size_t i = 0; i < cloud.size(); ++i) {
            const std::uint32_t at = fill[cellOf[i]]++;
            coords[at] = cloud.coord(static_cast<PointIndex>(i));
            index[at] = static_cast<PointIndex>(i);
        }
    }

    /** Cell coordinates of `q`; outside [0, dims) when q lies outside
     *  the cloud's bounding box. */
    std::array<std::int64_t, 3>
    cellOfQuery(const Coord3 &q) const
    {
        const auto c = axes(q);
        return {floorDiv(c[0] - lo[0], edge), floorDiv(c[1] - lo[1], edge),
                floorDiv(c[2] - lo[2], edge)};
    }

    /** The first ring around cell `c` that holds any grid cell. */
    std::int64_t
    firstRing(const std::array<std::int64_t, 3> &c) const
    {
        std::int64_t r = 0;
        for (int a = 0; a < 3; ++a)
            r = std::max({r, -c[a], c[a] - (dims[a] - 1)});
        return r;
    }

    /**
     * Call visit(coord, index) for every point in the cells at
     * Chebyshev distance exactly `r` from cell `c`.
     */
    template <typename Visit>
    void
    scanRing(const std::array<std::int64_t, 3> &c, std::int64_t r,
             Visit &&visit) const
    {
        const auto [x0, x1] = clampRange(c[0] - r, c[0] + r, 0);
        const auto [y0, y1] = clampRange(c[1] - r, c[1] + r, 1);
        const auto [z0, z1] = clampRange(c[2] - r, c[2] + r, 2);
        if (x0 > x1 || y0 > y1 || z0 > z1)
            return;
        for (std::int64_t x = x0; x <= x1; ++x) {
            if (x == c[0] - r || x == c[0] + r) {
                // A face of the shell: every column in range.
                for (std::int64_t y = y0; y <= y1; ++y)
                    scanRun(x, y, z0, z1, visit);
                continue;
            }
            for (const std::int64_t y : {c[1] - r, c[1] + r})
                if (y >= y0 && y <= y1)
                    scanRun(x, y, z0, z1, visit);
            // Inside both x and y faces only the z caps are on the
            // shell; skip the loop when neither cap is in the grid.
            const bool lowCap = c[2] - r == z0;
            const bool highCap = c[2] + r == z1;
            if (!lowCap && !highCap)
                continue;
            for (std::int64_t y = std::max(y0, c[1] - r + 1);
                 y <= std::min(y1, c[1] + r - 1); ++y) {
                if (lowCap)
                    scanRun(x, y, z0, z0, visit);
                if (highCap)
                    scanRun(x, y, z1, z1, visit);
            }
        }
    }

    /**
     * A lower bound on the distance from `q` (in cell `c`) to any
     * point outside the cells within ring `r` of c; -1 when no grid
     * cell lies outside them.
     */
    std::int64_t
    gapBeyond(const Coord3 &q, const std::array<std::int64_t, 3> &c,
              std::int64_t r) const
    {
        const auto p = axes(q);
        std::int64_t gap = -1;
        for (int a = 0; a < 3; ++a) {
            const std::int64_t offset = p[a] - lo[a] - c[a] * edge;
            if (c[a] - r - 1 >= 0) {
                const std::int64_t g = offset + r * edge + 1;
                gap = gap < 0 ? g : std::min(gap, g);
            }
            if (c[a] + r + 1 <= dims[a] - 1) {
                const std::int64_t g = (r + 1) * edge - offset;
                gap = gap < 0 ? g : std::min(gap, g);
            }
        }
        return gap;
    }

  private:
    std::int64_t
    cellId(std::int64_t x, std::int64_t y, std::int64_t z) const
    {
        return (x * dims[1] + y) * dims[2] + z;
    }

    std::pair<std::int64_t, std::int64_t>
    clampRange(std::int64_t from, std::int64_t to, int a) const
    {
        return {std::max<std::int64_t>(from, 0),
                std::min<std::int64_t>(to, dims[a] - 1)};
    }

    template <typename Visit>
    void
    scanRun(std::int64_t x, std::int64_t y, std::int64_t z0,
            std::int64_t z1, Visit &visit) const
    {
        const std::uint32_t end = start[cellId(x, y, z1) + 1];
        for (std::uint32_t i = start[cellId(x, y, z0)]; i < end; ++i)
            visit(coords[i], index[i]);
    }

    std::array<std::int64_t, 3> lo{};
    std::array<std::int64_t, 3> dims{};
    std::int64_t edge = 1;
    /** start[cell] .. start[cell + 1]: the cell's run in coords/index. */
    std::vector<std::uint32_t> start;
    std::vector<Coord3> coords;
    std::vector<PointIndex> index;
};

} // namespace

std::vector<NeighborList>
kNearestNeighbors(const PointCloud &input, const PointCloud &queries, int k)
{
    simAssert(k >= 1, "kNN requires k >= 1");
    std::vector<NeighborList> result(queries.size());
    if (input.empty())
        return result;
    const std::size_t keep =
        std::min(static_cast<std::size_t>(k), input.size());

    // The finest grid the cell cap allows: one to four cells a point.
    const Grid grid(input, 1);

    std::vector<Candidate> cands;
    for (std::size_t q = 0; q < queries.size(); ++q) {
        const Coord3 &qc = queries.coord(static_cast<PointIndex>(q));
        const auto cell = grid.cellOfQuery(qc);
        cands.clear();
        // Expand rings of cells, keeping the best `keep` candidates.
        // Stop once every unseen point is strictly farther than the
        // current k-th: an unseen point at equal distance could still
        // win the tie on a lower index.
        for (std::int64_t r = grid.firstRing(cell);; ++r) {
            grid.scanRing(cell, r, [&](const Coord3 &c, PointIndex i) {
                cands.emplace_back(c.distance2(qc), i);
            });
            if (cands.size() >= keep) {
                std::nth_element(
                    cands.begin(),
                    cands.begin() + static_cast<std::ptrdiff_t>(keep - 1),
                    cands.end());
                cands.resize(keep);
            }
            const std::int64_t gap = grid.gapBeyond(qc, cell, r);
            if (gap < 0)
                break;
            if (cands.size() == keep &&
                (gap > kSqrtMax || gap * gap > cands.back().first))
                break;
        }
        result[q] = selectK(cands, keep);
        result[q].candidates = input.size();
    }
    return result;
}

std::vector<NeighborList>
ballQuery(const PointCloud &input, const PointCloud &queries, int k,
          std::int64_t radius2)
{
    simAssert(k >= 1, "ball query requires k >= 1");
    std::vector<NeighborList> result(queries.size());
    if (input.empty())
        return result;

    // With the cell edge at least the radius, every in-radius point
    // lies in the query's cell or one of its 26 neighbours.
    const Grid grid(input, ceilSqrt(radius2));
    std::vector<Candidate> cands;
    for (std::size_t q = 0; q < queries.size(); ++q) {
        const Coord3 &qc = queries.coord(static_cast<PointIndex>(q));
        const auto cell = grid.cellOfQuery(qc);
        cands.clear();
        for (std::int64_t r = 0; r <= 1; ++r) {
            grid.scanRing(cell, r, [&](const Coord3 &c, PointIndex i) {
                const std::int64_t d = c.distance2(qc);
                if (d <= radius2)
                    cands.emplace_back(d, i);
            });
        }
        result[q] = selectK(cands, static_cast<std::size_t>(k));
        result[q].candidates = cands.size();
    }
    return result;
}

MapSet
neighborsToMaps(const std::vector<NeighborList> &lists, int k)
{
    MapSet maps(k);
    for (std::size_t q = 0; q < lists.size(); ++q) {
        const auto &list = lists[q];
        for (std::size_t n = 0; n < list.indices.size(); ++n) {
            maps.add(Map{list.indices[n], static_cast<PointIndex>(q),
                         static_cast<std::int32_t>(n)});
        }
    }
    return maps;
}

} // namespace pointacc
