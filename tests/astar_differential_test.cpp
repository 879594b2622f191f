// The maze router's A* open list is a bucket queue (synth::OpenList) that
// must pop in exactly the (f, node id) order of the binary heap it replaced,
// so every search returns the same path node for node. Two layers of check:
//
//   * OpenList against a std::set model on seeded push/pop sequences,
//     including the two ordering hazards of a bucket queue that does not
//     assume a consistent heuristic: a push below the front bucket's f, and
//     an equal-f push into a pending bucket while the front is empty;
//   * astar_search against an in-test copy of the heap-based search on
//     seeded random grids (usage at and above capacity, non-integer history
//     and pressure, via costs 3.0 / 2.5 / 0.7, multi-source trees with
//     widely spread f, windows smaller than the grid, unreachable targets).
//
// Self-contained over route_grid + geometry + rng, so it also runs in the
// asan./ubsan. robustness variants.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <set>
#include <utility>
#include <vector>

#include "synth/route_grid.h"
#include "util/rng.h"

namespace vcoadc::synth {
namespace {

using Entry = std::pair<double, int>;  // (f, node id)

/// Drains `open` into a vector in pop order.
std::vector<Entry> drain(OpenList& open) {
  std::vector<Entry> out;
  double f = 0;
  int id = 0;
  while (open.pop(&f, &id)) out.push_back({f, id});
  return out;
}

TEST(OpenList, PushBelowTheFrontBucketDemotesIt) {
  OpenList open;
  open.bind(256);
  // Multi-source seeding order: f falls, rises and repeats.
  open.push(10, 7);
  open.push(10, 3);
  open.push(4, 200);  // below the front: {3, 7} at f=10 must wait
  open.push(12, 1);
  open.push(4, 9);
  open.push(10, 0);   // joins the demoted f=10 bucket
  open.push(2, 255);  // demotes again
  const std::vector<Entry> want = {{2, 255}, {4, 9},  {4, 200}, {10, 0},
                                   {10, 3},  {10, 7}, {12, 1}};
  EXPECT_EQ(drain(open), want);
}

TEST(OpenList, EqualPushIntoAPendingBucketWhileTheFrontIsEmptyMerges) {
  OpenList open;
  open.bind(256);
  open.push(5, 50);
  open.push(7, 90);
  double f = 0;
  int id = 0;
  ASSERT_TRUE(open.pop(&f, &id));
  EXPECT_EQ(Entry(f, id), Entry(5, 50));
  // The front (f=5) is now empty and f=7 is pending with id 90. Both f=7
  // pushes must join that bucket: a second f=7 bucket would pop 95
  // before 90.
  open.push(7, 95);
  open.push(7, 20);
  EXPECT_EQ(drain(open), (std::vector<Entry>{{7, 20}, {7, 90}, {7, 95}}));

  // Same, with pushes between and at the drained front's f.
  open.push(5, 50);
  open.push(7, 90);
  ASSERT_TRUE(open.pop(&f, &id));
  open.push(7, 20);
  open.push(6, 99);
  open.push(5, 60);
  const std::vector<Entry> want = {{5, 60}, {6, 99}, {7, 20}, {7, 90}};
  EXPECT_EQ(drain(open), want);
}

TEST(OpenList, ExactKeysNeverMergeNeighbouringDoubles) {
  OpenList open;
  open.bind(64);
  const double a = 1.0 + 0x1.0p-52;  // next double after 1.0
  open.push(a, 1);
  open.push(1.0, 2);
  open.push(a, 0);
  open.push(0.7 + 2.5, 3);  // 3.2 rounded, not 3.2 itself
  open.push(3.2, 4);
  std::vector<Entry> want = {{1.0, 2}, {a, 0}, {a, 1}};
  if (0.7 + 2.5 < 3.2) {
    want.push_back({0.7 + 2.5, 3});
    want.push_back({3.2, 4});
  } else if (0.7 + 2.5 > 3.2) {
    want.push_back({3.2, 4});
    want.push_back({0.7 + 2.5, 3});
  } else {
    want.push_back({3.2, 3});
    want.push_back({3.2, 4});
  }
  EXPECT_EQ(drain(open), want);
}

TEST(OpenList, ClearAndRebindKeepNoStaleEntries) {
  OpenList open;
  open.bind(100);
  open.push(3, 99);
  open.push(1, 0);
  open.push(9, 64);
  double f = 0;
  int id = 0;
  ASSERT_TRUE(open.pop(&f, &id));
  open.clear();
  EXPECT_FALSE(open.pop(&f, &id));
  // A larger grid after a smaller one; then a smaller one again.
  open.push(2, 5);
  open.bind(70000);
  EXPECT_FALSE(open.pop(&f, &id));
  open.push(1, 69999);
  open.push(1, 4096);
  open.bind(10);
  EXPECT_FALSE(open.pop(&f, &id));
  open.push(4, 9);
  EXPECT_EQ(drain(open), (std::vector<Entry>{{4, 9}}));
}

// Random interleavings against an ordered-set model (the set collapses an
// exact duplicate (f, id), which the router never pops twice usefully: a
// second pop of the same entry re-expands with unchanged distances).
TEST(OpenList, MatchesAnOrderedSetOnSeededSequences) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    util::Rng rng(seed);
    const int n_nodes = 1 + static_cast<int>(rng.below(5000));
    OpenList open;
    open.bind(n_nodes);
    std::set<Entry> model;
    // Small f alphabets force ties and bucket reuse; wide ones force many
    // buckets; fractional steps force exact-key comparison.
    const int n_keys = 1 + static_cast<int>(rng.below(40));
    const double step = (seed % 3 == 0) ? 0.1 : (seed % 3 == 1) ? 1.0 : 2.5;
    for (int op = 0; op < 4000; ++op) {
      if (model.empty() || rng.below(100) < 55) {
        const double f =
            step * static_cast<double>(rng.below(
                       static_cast<std::uint64_t>(n_keys)));
        const int id =
            static_cast<int>(rng.below(static_cast<std::uint64_t>(n_nodes)));
        open.push(f, id);
        model.insert({f, id});
      } else {
        double f = 0;
        int id = 0;
        ASSERT_TRUE(open.pop(&f, &id)) << "seed " << seed << " op " << op;
        ASSERT_EQ(Entry(f, id), *model.begin())
            << "seed " << seed << " op " << op;
        model.erase(model.begin());
      }
    }
    std::vector<Entry> rest(model.begin(), model.end());
    EXPECT_EQ(drain(open), rest) << "seed " << seed;
  }
}

/// The heap-based A* that astar_search replaced, kept verbatim apart from
/// taking its heap as an argument: the reference for the bucket queue.
std::vector<GridPoint> reference_astar(const RouteGrid& g, SearchScratch& s,
                                       std::vector<Entry>& heap,
                                       const GridPoint& target,
                                       double via_cost, int cap,
                                       double pressure,
                                       const RouteWindow& win) {
  if (++s.epoch == 0) {
    std::fill(s.stamp.begin(), s.stamp.end(), 0u);
    s.epoch = 1;
  }
  const int tx = target.x;
  const int ty = target.y;
  auto heuristic = [&](int x, int y, int layer) {
    const int dx = std::abs(x - tx);
    const int dy = std::abs(y - ty);
    int vias_lb = 0;
    if (dx > 0 && dy > 0) {
      vias_lb = 1;
    } else if ((dx > 0 && layer == 1) || (dy > 0 && layer == 0)) {
      vias_lb = 1;
    }
    return static_cast<double>(dx + dy) + via_cost * vias_lb;
  };

  using QE = Entry;
  heap.clear();
  for (int id : s.tree_nodes) {
    const auto u = static_cast<std::size_t>(id);
    s.dist[u] = 0;
    s.prev[u] = -1;
    s.stamp[u] = s.epoch;
    const GridPoint p = g.from_id(id);
    heap.push_back({heuristic(p.x, p.y, p.layer), id});
  }
  std::make_heap(heap.begin(), heap.end(), std::greater<QE>());

  const int target_id0 = g.node_id({tx, ty, 0});
  GridPoint t1{tx, ty, 1};
  const int target_id1 = g.node_id(t1);

  while (!heap.empty()) {
    std::pop_heap(heap.begin(), heap.end(), std::greater<QE>());
    const auto [f, u] = heap.back();
    heap.pop_back();
    const auto ui = static_cast<std::size_t>(u);
    const GridPoint p = g.from_id(u);
    if (f > s.dist[ui] + heuristic(p.x, p.y, p.layer)) continue;  // stale
    if (u == target_id0 || u == target_id1) {
      std::vector<GridPoint> path;
      for (int cur = u; cur != -1;
           cur = s.prev[static_cast<std::size_t>(cur)]) {
        path.push_back(g.from_id(cur));
        if (s.in_tree(cur)) break;
      }
      std::reverse(path.begin(), path.end());
      return path;
    }
    auto relax = [&](const GridPoint& q, double w) {
      const int v = g.node_id(q);
      const auto vi = static_cast<std::size_t>(v);
      const double nd = s.dist[ui] + w;
      if (s.stamp[vi] != s.epoch || nd < s.dist[vi]) {
        s.dist[vi] = nd;
        s.prev[vi] = u;
        s.stamp[vi] = s.epoch;
        heap.push_back({nd + heuristic(q.x, q.y, q.layer), v});
        std::push_heap(heap.begin(), heap.end(), std::greater<QE>());
      }
    };
    if (p.layer == 0) {
      if (p.x > win.x0) {
        relax({p.x - 1, p.y, 0},
              route_edge_cost(
                  g.h_use[static_cast<std::size_t>(g.h_idx(p.x - 1, p.y))],
                  g.h_hist[static_cast<std::size_t>(g.h_idx(p.x - 1, p.y))],
                  cap, pressure));
      }
      if (p.x < win.x1) {
        relax({p.x + 1, p.y, 0},
              route_edge_cost(
                  g.h_use[static_cast<std::size_t>(g.h_idx(p.x, p.y))],
                  g.h_hist[static_cast<std::size_t>(g.h_idx(p.x, p.y))],
                  cap, pressure));
      }
      relax({p.x, p.y, 1}, via_cost);
    } else {
      if (p.y > win.y0) {
        relax({p.x, p.y - 1, 1},
              route_edge_cost(
                  g.v_use[static_cast<std::size_t>(g.v_idx(p.x, p.y - 1))],
                  g.v_hist[static_cast<std::size_t>(g.v_idx(p.x, p.y - 1))],
                  cap, pressure));
      }
      if (p.y < win.y1) {
        relax({p.x, p.y + 1, 1},
              route_edge_cost(
                  g.v_use[static_cast<std::size_t>(g.v_idx(p.x, p.y))],
                  g.v_hist[static_cast<std::size_t>(g.v_idx(p.x, p.y))],
                  cap, pressure));
      }
      relax({p.x, p.y, 0}, via_cost);
    }
  }
  return {};
}

GridPoint random_point(util::Rng& rng, const RouteGrid& g, int layer) {
  return {static_cast<int>(rng.below(static_cast<std::uint64_t>(g.nx))),
          static_cast<int>(rng.below(static_cast<std::uint64_t>(g.ny))),
          layer};
}

/// Seeded random congestion: usage from idle to twice the capacity, and
/// non-integer history on a fraction of the edges.
void congest(RouteGrid& g, util::Rng& rng, int cap) {
  const auto hi = static_cast<std::uint64_t>(2 * cap + 1);
  for (auto& u : g.h_use) u = static_cast<int>(rng.below(hi));
  for (auto& u : g.v_use) u = static_cast<int>(rng.below(hi));
  for (auto& h : g.h_hist) h = rng.bernoulli(0.3) ? 3.0 * rng.uniform() : 0;
  for (auto& h : g.v_hist) h = rng.bernoulli(0.3) ? 3.0 * rng.uniform() : 0;
}

struct Query {
  std::vector<int> tree;  ///< node ids, add order
  GridPoint target;
  RouteWindow win;
};

/// Runs the same query through both searches on twin scratches and
/// returns (bucket-queue path, heap path).
std::pair<std::vector<GridPoint>, std::vector<GridPoint>> run_both(
    const RouteGrid& g, SearchScratch& s_new, SearchScratch& s_ref,
    std::vector<Entry>& heap, const Query& q, double via_cost, int cap,
    double pressure) {
  s_new.new_tree();
  s_ref.new_tree();
  for (int id : q.tree) {
    s_new.add_tree(id);
    s_ref.add_tree(id);
  }
  return {astar_search(g, s_new, q.target, via_cost, cap, pressure, q.win),
          reference_astar(g, s_ref, heap, q.target, via_cost, cap, pressure,
                          q.win)};
}

TEST(AStarDifferential, PathsMatchTheHeapSearchOnSeededGrids) {
  const double via_costs[] = {3.0, 2.5, 0.7};
  const double pressures[] = {4.0, 8.5, 0.3};
  int found = 0;
  int unreachable = 0;
  int multi_source = 0;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    util::Rng rng(seed * 7919);
    const double w = 12e-6 + 2e-6 * static_cast<double>(rng.below(14));
    const double h = 10e-6 + 2e-6 * static_cast<double>(rng.below(12));
    RouteGrid g({0, 0, w, h}, 1e-6);
    const int cap = 1 + static_cast<int>(rng.below(4));
    congest(g, rng, cap);
    SearchScratch s_new;
    SearchScratch s_ref;
    s_new.bind(g.num_nodes());
    s_ref.bind(g.num_nodes());
    std::vector<Entry> heap;
    const RouteWindow full{0, 0, g.nx - 1, g.ny - 1};

    for (int trial = 0; trial < 60; ++trial) {
      const double via_cost = via_costs[trial % 3];
      const double pressure = pressures[(trial / 3) % 3];
      Query q;
      q.target = random_point(rng, g, static_cast<int>(rng.below(2)));
      const int kind = trial % 4;
      if (kind == 0) {
        // A route_net-style seed: one pin on both layers.
        GridPoint p = random_point(rng, g, 0);
        q.tree = {g.node_id(p)};
        p.layer = 1;
        q.tree.push_back(g.node_id(p));
        q.win = full;
      } else if (kind == 1) {
        // A wide tree: scattered nodes near and far from the target, in
        // random order, so seeding pushes f values up and down.
        const int n = 3 + static_cast<int>(rng.below(40));
        for (int k = 0; k < n; ++k) {
          q.tree.push_back(g.node_id(
              random_point(rng, g, static_cast<int>(rng.below(2)))));
        }
        std::sort(q.tree.begin(), q.tree.end());
        q.tree.erase(std::unique(q.tree.begin(), q.tree.end()),
                     q.tree.end());
        std::shuffle(q.tree.begin(), q.tree.end(), rng);
        ++multi_source;
        q.win = full;
      } else {
        // A window smaller than the grid around a source; with kind 3 the
        // target may fall outside it (unreachable inside the window).
        GridPoint p = random_point(rng, g, 0);
        q.tree = {g.node_id(p)};
        const int m = 1 + static_cast<int>(rng.below(4));
        q.win = {std::max(0, p.x - m), std::max(0, p.y - m),
                 std::min(g.nx - 1, p.x + m), std::min(g.ny - 1, p.y + m)};
        if (kind == 2) {
          q.target.x = std::clamp(q.target.x, q.win.x0, q.win.x1);
          q.target.y = std::clamp(q.target.y, q.win.y0, q.win.y1);
        }
      }
      const auto [got, want] =
          run_both(g, s_new, s_ref, heap, q, via_cost, cap, pressure);
      ASSERT_TRUE(got == want) << "seed " << seed << " trial " << trial;
      (want.empty() ? unreachable : found)++;

      // Commit the path as route_net would, so later trials search a grid
      // whose usage and history keep changing.
      if (!want.empty() && rng.bernoulli(0.5)) {
        for (std::size_t i = 1; i < want.size(); ++i) {
          const GridPoint& a = want[i - 1];
          const GridPoint& b = want[i];
          if (a.layer != b.layer) continue;
          if (a.layer == 0) {
            const auto e =
                static_cast<std::size_t>(g.h_idx(std::min(a.x, b.x), a.y));
            ++g.h_use[e];
            g.h_hist[e] += 0.5;
          } else {
            const auto e =
                static_cast<std::size_t>(g.v_idx(a.x, std::min(a.y, b.y)));
            ++g.v_use[e];
            g.v_hist[e] += 0.5;
          }
        }
      }
    }
  }
  // The corpus really covers each case.
  EXPECT_GT(found, 400);
  EXPECT_GT(unreachable, 20);
  EXPECT_GT(multi_source, 150);
}

// A grown tree: each found path joins the tree, as in route_net's Prim
// loop, so later searches start from hundreds of sources whose f values
// span the whole grid.
TEST(AStarDifferential, GrowingTreesMatchTheHeapSearch) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    util::Rng rng(seed);
    RouteGrid g({0, 0, 36e-6, 30e-6}, 1e-6);
    const int cap = 2;
    congest(g, rng, cap);
    const double via_cost = (seed % 2 == 0) ? 0.7 : 2.5;
    SearchScratch s_new;
    SearchScratch s_ref;
    s_new.bind(g.num_nodes());
    s_ref.bind(g.num_nodes());
    std::vector<Entry> heap;
    Query q;
    q.win = {0, 0, g.nx - 1, g.ny - 1};
    GridPoint p = random_point(rng, g, 0);
    q.tree = {g.node_id(p)};
    for (int pin = 0; pin < 25; ++pin) {
      q.target = random_point(rng, g, 0);
      const auto [got, want] =
          run_both(g, s_new, s_ref, heap, q, via_cost, cap, 6.0);
      ASSERT_TRUE(got == want) << "seed " << seed << " pin " << pin;
      for (const GridPoint& pt : want) {
        const int id = g.node_id(pt);
        if (std::find(q.tree.begin(), q.tree.end(), id) == q.tree.end()) {
          q.tree.push_back(id);
        }
      }
    }
    EXPECT_GT(q.tree.size(), 100u) << "seed " << seed;
  }
}

}  // namespace
}  // namespace vcoadc::synth
