#include "synth/route_grid.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

#include "util/thread_pool.h"

namespace vcoadc::synth {
namespace {

/// One scratch per worker thread, persisting across route_nets calls so a
/// full reroute allocates nothing in steady state.
SearchScratch& thread_scratch() {
  thread_local SearchScratch scratch;
  return scratch;
}

/// Applies +/-1 usage along a path.
void adjust_usage(RouteGrid& g, const std::vector<GridPoint>& path,
                  int delta) {
  for (std::size_t i = 1; i < path.size(); ++i) {
    const GridPoint& a = path[i - 1];
    const GridPoint& b = path[i];
    if (a.layer != b.layer) continue;  // via
    if (a.layer == 0) {
      g.h_use[static_cast<std::size_t>(g.h_idx(std::min(a.x, b.x), a.y))] +=
          delta;
    } else {
      g.v_use[static_cast<std::size_t>(g.v_idx(a.x, std::min(a.y, b.y)))] +=
          delta;
    }
  }
}

/// Grid nodes along one axis of `extent` metres. Past 2^30 (far beyond
/// kMaxRouteGridNodes) the count saturates, which keeps the conversion and
/// route_grid_nodes' product defined; NaN saturates too.
std::int64_t axis_nodes(double extent, double pitch) {
  const double n = std::ceil(extent / pitch) + 1.0;
  if (!(n < 1073741824.0)) return std::int64_t{1} << 30;
  return std::max<std::int64_t>(2, static_cast<std::int64_t>(n));
}

}  // namespace

std::int64_t route_grid_nodes(const Rect& die, double pitch_m) {
  return 2 * axis_nodes(die.w, pitch_m) * axis_nodes(die.h, pitch_m);
}

std::string route_grid_limit_error(const Rect& die, double pitch_m) {
  const std::int64_t nodes = route_grid_nodes(die, pitch_m);
  if (nodes <= kMaxRouteGridNodes) return {};
  return "routing grid of " + std::to_string(nodes) +
         " nodes exceeds the limit of " + std::to_string(kMaxRouteGridNodes);
}

RouteGrid::RouteGrid(const Rect& die_rect, double pitch_m) {
  die = die_rect;
  pitch = pitch_m;
  if (std::string e = route_grid_limit_error(die, pitch); !e.empty()) {
    throw std::length_error(e);
  }
  const std::int64_t gx = axis_nodes(die.w, pitch);
  const std::int64_t gy = axis_nodes(die.h, pitch);
  nx = static_cast<int>(gx);
  ny = static_cast<int>(gy);
  h_use.assign(static_cast<std::size_t>((gx - 1) * gy), 0);
  v_use.assign(static_cast<std::size_t>(gx * (gy - 1)), 0);
  h_hist.assign(h_use.size(), 0.0);
  v_hist.assign(v_use.size(), 0.0);
}

GridPoint RouteGrid::snap(double mx, double my) const {
  GridPoint p;
  p.x = std::clamp(static_cast<int>((mx - die.x) / pitch), 0, nx - 1);
  p.y = std::clamp(static_cast<int>((my - die.y) / pitch), 0, ny - 1);
  p.layer = 0;
  return p;
}

void OpenList::bind(int n_nodes) {
  const std::size_t n_bits = (static_cast<std::size_t>(n_nodes) + 63) / 64;
  if (bits_.size() < n_bits) {
    bits_.assign(n_bits, 0);
    words_.assign((n_bits + 63) / 64, 0);
    front_n_ = 0;
  }
  clear();
}

void OpenList::clear() {
  if (front_n_ > 0) {
    for (std::size_t w = 0; w < words_.size(); ++w) {
      for (std::uint64_t m = words_[w]; m != 0; m &= m - 1) {
        bits_[w * 64 + static_cast<std::size_t>(std::countr_zero(m))] = 0;
      }
      words_[w] = 0;
    }
  }
  lo_word_ = words_.size();
  front_n_ = 0;
  // +inf: the first push always lands below it and opens the front.
  front_f_ = std::numeric_limits<double>::infinity();
  later_.clear();
  links_.clear();
  free_ = -1;
}

void OpenList::set_front(int id) {
  const auto w = static_cast<std::size_t>(id) / 64;
  const std::uint64_t m = std::uint64_t{1} << (id % 64);
  if ((bits_[w] & m) != 0) return;  // an equal (f, id) is already open
  bits_[w] |= m;
  words_[w / 64] |= std::uint64_t{1} << (w % 64);
  lo_word_ = std::min(lo_word_, w / 64);
  ++front_n_;
}

int OpenList::new_link(int id, int next) {
  if (free_ < 0) {
    links_.push_back({id, next});
    return static_cast<int>(links_.size()) - 1;
  }
  const int link = free_;
  free_ = links_[static_cast<std::size_t>(link)].next;
  links_[static_cast<std::size_t>(link)] = {id, next};
  return link;
}

void OpenList::demote_front() {
  // front_f_ is below every later bucket, so its bucket goes last.
  Bucket b{front_f_, -1};
  for (std::size_t sw = lo_word_; sw < words_.size(); ++sw) {
    for (std::uint64_t ms = words_[sw]; ms != 0; ms &= ms - 1) {
      const std::size_t w =
          sw * 64 + static_cast<std::size_t>(std::countr_zero(ms));
      for (std::uint64_t m = bits_[w]; m != 0; m &= m - 1) {
        b.head = new_link(static_cast<int>(w * 64) + std::countr_zero(m),
                          b.head);
      }
      bits_[w] = 0;
    }
    words_[sw] = 0;
  }
  later_.push_back(b);
  lo_word_ = words_.size();
  front_n_ = 0;
}

void OpenList::push(double f, int id) {
  if (f == front_f_) {
    set_front(id);
    return;
  }
  if (f < front_f_) {
    if (front_n_ > 0) demote_front();
    front_f_ = f;
    set_front(id);
    return;
  }
  // Later bucket: most pushes land within a few f steps of the front, so
  // the search runs from the small end (the back).
  std::size_t i = later_.size();
  while (i > 0 && later_[i - 1].f < f) --i;
  if (i > 0 && later_[i - 1].f == f) {
    later_[i - 1].head = new_link(id, later_[i - 1].head);
  } else {
    later_.insert(later_.begin() + static_cast<std::ptrdiff_t>(i),
                  Bucket{f, new_link(id, -1)});
  }
}

bool OpenList::pop(double* f, int* id) {
  if (front_n_ == 0) {
    if (later_.empty()) return false;
    // Promote the smallest later bucket; its links go back to the free
    // list.
    const Bucket b = later_.back();
    later_.pop_back();
    front_f_ = b.f;
    int tail = -1;
    for (int l = b.head; l >= 0; l = links_[static_cast<std::size_t>(l)].next) {
      set_front(links_[static_cast<std::size_t>(l)].id);
      tail = l;
    }
    links_[static_cast<std::size_t>(tail)].next = free_;
    free_ = b.head;
  }
  while (words_[lo_word_] == 0) ++lo_word_;
  const std::size_t w =
      lo_word_ * 64 +
      static_cast<std::size_t>(std::countr_zero(words_[lo_word_]));
  *id = static_cast<int>(w * 64) + std::countr_zero(bits_[w]);
  *f = front_f_;
  bits_[w] &= bits_[w] - 1;
  if (bits_[w] == 0) words_[lo_word_] &= ~(std::uint64_t{1} << (w % 64));
  --front_n_;
  return true;
}

void SearchScratch::bind(int n_nodes) {
  const auto n = static_cast<std::size_t>(n_nodes);
  if (stamp.size() < n) {
    dist.assign(n, 0.0);
    prev.assign(n, -1);
    stamp.assign(n, 0);
    tree_mark.assign(n, 0);
    epoch = 0;
    tree_epoch = 0;
  }
  open.bind(n_nodes);
}

void SearchScratch::new_tree() {
  if (++tree_epoch == 0) {  // wrapped: stale marks could alias epoch 0
    std::fill(tree_mark.begin(), tree_mark.end(), 0u);
    tree_epoch = 1;
  }
  tree_nodes.clear();
}

RouteWindow window_of(const RouteGrid& g, const std::vector<GridPoint>& pins,
                      int margin) {
  RouteWindow w;
  w.x0 = g.nx - 1;
  w.y0 = g.ny - 1;
  w.x1 = 0;
  w.y1 = 0;
  for (const GridPoint& p : pins) {
    w.x0 = std::min(w.x0, p.x);
    w.y0 = std::min(w.y0, p.y);
    w.x1 = std::max(w.x1, p.x);
    w.y1 = std::max(w.y1, p.y);
  }
  w.x0 = std::max(0, w.x0 - margin);
  w.y0 = std::max(0, w.y0 - margin);
  w.x1 = std::min(g.nx - 1, w.x1 + margin);
  w.y1 = std::min(g.ny - 1, w.y1 + margin);
  return w;
}

std::vector<GridPoint> astar_search(const RouteGrid& g, SearchScratch& s,
                                    const GridPoint& target, double via_cost,
                                    int cap, double pressure,
                                    const RouteWindow& win) {
  if (++s.epoch == 0) {
    std::fill(s.stamp.begin(), s.stamp.end(), 0u);
    s.epoch = 1;
  }
  const int tx = target.x;
  const int ty = target.y;

  // Admissible (and consistent) lower bound on the remaining cost: every
  // grid step costs >= 1, so the Manhattan distance bounds the wire part;
  // layer direction-locking gives an exact lower bound on vias (both axes
  // pending -> at least one via; one axis pending but the node sits on the
  // wrong layer for it -> at least one via). The target is accepted on
  // either layer, so no via term is charged at dx == dy == 0.
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

  // The open list pops in (f, node id) order; see OpenList.
  OpenList& open = s.open;
  open.clear();
  for (int id : s.tree_nodes) {
    const auto u = static_cast<std::size_t>(id);
    s.dist[u] = 0;
    s.prev[u] = -1;
    s.stamp[u] = s.epoch;
    const GridPoint p = g.from_id(id);
    open.push(heuristic(p.x, p.y, p.layer), id);
  }

  // Node ids are x + nx * (y + ny * layer): neighbours are +/-1 (x),
  // +/-nx (y) and +/-plane (via), and decoding takes one division.
  const int nx = g.nx;
  const int plane = g.nx * g.ny;
  const int target_id0 = g.node_id({tx, ty, 0});
  const int target_id1 = target_id0 + plane;

  double f = 0;
  int u = 0;
  while (open.pop(&f, &u)) {
    const auto ui = static_cast<std::size_t>(u);
    const int layer = u >= plane ? 1 : 0;
    const int xy = u - layer * plane;
    const int y = xy / nx;
    const int x = xy - y * nx;
    const double du = s.dist[ui];
    if (f > du + heuristic(x, y, layer)) continue;  // stale
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
    auto relax = [&](int v, int qx, int qy, int ql, double w) {
      const auto vi = static_cast<std::size_t>(v);
      const double nd = du + w;
      if (s.stamp[vi] != s.epoch || nd < s.dist[vi]) {
        s.dist[vi] = nd;
        s.prev[vi] = u;
        s.stamp[vi] = s.epoch;
        open.push(nd + heuristic(qx, qy, ql), v);
      }
    };
    if (layer == 0) {
      // Horizontal moves.
      if (x > win.x0) {
        const auto e = static_cast<std::size_t>(g.h_idx(x - 1, y));
        relax(u - 1, x - 1, y, 0,
              route_edge_cost(g.h_use[e], g.h_hist[e], cap, pressure));
      }
      if (x < win.x1) {
        const auto e = static_cast<std::size_t>(g.h_idx(x, y));
        relax(u + 1, x + 1, y, 0,
              route_edge_cost(g.h_use[e], g.h_hist[e], cap, pressure));
      }
      relax(u + plane, x, y, 1, via_cost);
    } else {
      // Vertical moves.
      if (y > win.y0) {
        const auto e = static_cast<std::size_t>(g.v_idx(x, y - 1));
        relax(u - nx, x, y - 1, 1,
              route_edge_cost(g.v_use[e], g.v_hist[e], cap, pressure));
      }
      if (y < win.y1) {
        const auto e = static_cast<std::size_t>(g.v_idx(x, y));
        relax(u + nx, x, y + 1, 1,
              route_edge_cost(g.v_use[e], g.v_hist[e], cap, pressure));
      }
      relax(u - plane, x, y, 0, via_cost);
    }
  }
  return {};
}

bool route_net(RouteGrid& g, SearchScratch& s, const NetPins& net,
               RoutedNet& out, const MazeRouterOptions& opts,
               double pressure, RouteWindow win, bool allow_escalate) {
  out.paths.clear();
  out.wirelength_m = 0;
  out.vias = 0;
  if (net.pins.size() < 2) {
    out.routed = true;
    return true;
  }
  s.bind(g.num_nodes());
  s.new_tree();
  s.add_tree(g.node_id(net.pins[0]));
  GridPoint p0v = net.pins[0];
  p0v.layer = 1;
  s.add_tree(g.node_id(p0v));

  // Prim-style decomposition: always connect the remaining pin nearest to
  // the *current* tree, updating pin-to-tree distances as the tree grows
  // (ties break toward the lowest pin index, i.e. GridPoint order).
  const std::size_t n_rem = net.pins.size() - 1;
  std::vector<int> dist_to_tree(n_rem);
  std::vector<char> done(n_rem, 0);
  for (std::size_t i = 0; i < n_rem; ++i) {
    dist_to_tree[i] = std::abs(net.pins[i + 1].x - net.pins[0].x) +
                      std::abs(net.pins[i + 1].y - net.pins[0].y);
  }
  for (std::size_t connected = 0; connected < n_rem; ++connected) {
    std::size_t best = n_rem;
    for (std::size_t i = 0; i < n_rem; ++i) {
      if (done[i]) continue;
      if (best == n_rem || dist_to_tree[i] < dist_to_tree[best]) best = i;
    }
    done[best] = 1;
    const GridPoint pin = net.pins[best + 1];
    if (s.in_tree(g.node_id(pin))) continue;

    auto path =
        astar_search(g, s, pin, opts.via_cost, opts.edge_capacity, pressure,
                     win);
    if (path.empty() && allow_escalate) {
      // Grow the window (doubling the extra margin) until it covers the
      // grid; only then is the pin genuinely unreachable.
      int extra = std::max(4, opts.window_margin);
      while (path.empty() &&
             (win.x0 > 0 || win.y0 > 0 || win.x1 < g.nx - 1 ||
              win.y1 < g.ny - 1)) {
        win.x0 = std::max(0, win.x0 - extra);
        win.y0 = std::max(0, win.y0 - extra);
        win.x1 = std::min(g.nx - 1, win.x1 + extra);
        win.y1 = std::min(g.ny - 1, win.y1 + extra);
        extra *= 2;
        path = astar_search(g, s, pin, opts.via_cost, opts.edge_capacity,
                            pressure, win);
      }
    }
    if (path.empty()) {
      out.routed = false;
      return false;
    }
    adjust_usage(g, path, +1);
    for (std::size_t i = 0; i < path.size(); ++i) {
      s.add_tree(g.node_id(path[i]));
      if (i > 0) {
        if (path[i].layer != path[i - 1].layer) {
          ++out.vias;
        } else {
          out.wirelength_m += g.pitch;
        }
      }
      // The tree grew: refresh the remaining pins' distance to it.
      for (std::size_t r = 0; r < n_rem; ++r) {
        if (done[r]) continue;
        const int d = std::abs(net.pins[r + 1].x - path[i].x) +
                      std::abs(net.pins[r + 1].y - path[i].y);
        dist_to_tree[r] = std::min(dist_to_tree[r], d);
      }
    }
    out.paths.push_back(std::move(path));
  }
  out.routed = true;
  return true;
}

MazeRouteResult route_nets(RouteGrid& g, std::vector<NetPins> nets,
                           const MazeRouterOptions& opts) {
  MazeRouteResult result;
  result.grid_x = g.nx;
  result.grid_y = g.ny;

  // Short nets first: they have the fewest detour options.
  std::sort(nets.begin(), nets.end(), [](const NetPins& a, const NetPins& b) {
    if (a.hpwl != b.hpwl) return a.hpwl < b.hpwl;
    return a.name < b.name;
  });

  result.nets.resize(nets.size());
  std::vector<RouteWindow> wins(nets.size());
  for (std::size_t i = 0; i < nets.size(); ++i) {
    result.nets[i].name = nets[i].name;
    result.nets[i].pins = static_cast<int>(nets[i].pins.size());
    wins[i] = window_of(g, nets[i].pins, opts.window_margin);
  }

  util::ThreadPool pool(
      static_cast<std::size_t>(std::max(0, opts.threads)));

  auto overflowed = [&](const std::vector<GridPoint>& path) {
    for (std::size_t k = 1; k < path.size(); ++k) {
      const GridPoint& a = path[k - 1];
      const GridPoint& b = path[k];
      if (a.layer != b.layer) continue;
      if (a.layer == 0) {
        if (g.h_use[static_cast<std::size_t>(g.h_idx(std::min(a.x, b.x),
                                                     a.y))] >
            opts.edge_capacity) {
          return true;
        }
      } else {
        if (g.v_use[static_cast<std::size_t>(g.v_idx(a.x,
                                                     std::min(a.y, b.y)))] >
            opts.edge_capacity) {
          return true;
        }
      }
    }
    return false;
  };

  auto overflow_count = [&] {
    int n = 0;
    for (int use : g.h_use) n += (use > opts.edge_capacity);
    for (int use : g.v_use) n += (use > opts.edge_capacity);
    return n;
  };

  // Initial pass: serial, in net order, so every net negotiates against
  // all previously committed routes.
  double pressure = 4.0;
  {
    SearchScratch& s = thread_scratch();
    for (std::size_t i = 0; i < nets.size(); ++i) {
      route_net(g, s, nets[i], result.nets[i], opts, pressure, wins[i],
                /*allow_escalate=*/true);
    }
  }

  int last_overflow = std::numeric_limits<int>::max();
  for (int round = 1;; ++round) {
    const int cur = overflow_count();
    bool any_failed = false;
    for (const RoutedNet& rn : result.nets) any_failed |= !rn.routed;
    if (cur == 0 && !any_failed) break;
    // max_iterations bounds the guaranteed negotiation rounds (matching
    // the historical router's budget); past it, keep going only while
    // overflow still strictly shrinks, so termination is guaranteed.
    if (round >= std::max(1, opts.max_iterations) && cur >= last_overflow) {
      break;
    }
    last_overflow = cur;

    // Rip up nets that traverse overflowed edges; bump history costs.
    for (std::size_t e = 0; e < g.h_use.size(); ++e) {
      if (g.h_use[e] > opts.edge_capacity) g.h_hist[e] += 2.0;
    }
    for (std::size_t e = 0; e < g.v_use.size(); ++e) {
      if (g.v_use[e] > opts.edge_capacity) g.v_hist[e] += 2.0;
    }
    pressure *= 2.0;
    std::vector<std::size_t> ripped;
    for (std::size_t i = 0; i < nets.size(); ++i) {
      RoutedNet& rn = result.nets[i];
      bool needs = !rn.routed;
      for (const auto& path : rn.paths) {
        if (overflowed(path)) needs = true;
      }
      if (!needs) continue;
      ripped.push_back(i);
      for (const auto& path : rn.paths) adjust_usage(g, path, -1);
    }
    if (ripped.empty()) break;

    // Congestion relief needs detours ever farther from the pin bbox, so
    // a ripped net's window doubles its margin each round (clamped to the
    // grid by window_of). Windows only grow, so the disjointness grouping
    // below stays conservative.
    const int grow =
        std::max(1, opts.window_margin) << std::min(round, 16);
    for (std::size_t i : ripped) {
      wins[i] = window_of(g, nets[i].pins, grow);
    }

    // Greedy first-fit grouping: each group only holds nets whose search
    // windows are pairwise disjoint, so no two nets in a group can read or
    // write the same edge — routing a group concurrently is bit-identical
    // to routing it serially, for any thread count.
    std::vector<std::vector<std::size_t>> groups;
    for (std::size_t i : ripped) {
      bool placed = false;
      for (auto& grp : groups) {
        bool ok = true;
        for (std::size_t j : grp) {
          if (!wins[i].disjoint(wins[j])) {
            ok = false;
            break;
          }
        }
        if (ok) {
          grp.push_back(i);
          placed = true;
          break;
        }
      }
      if (!placed) groups.push_back({i});
    }

    for (const auto& grp : groups) {
      // Batch phase: fixed windows, no escalation (escalation could leave
      // the window and race another net in the group).
      util::parallel_for_each(pool, grp.size(), [&](std::size_t k) {
        const std::size_t i = grp[k];
        route_net(g, thread_scratch(), nets[i], result.nets[i], opts,
                  pressure, wins[i], /*allow_escalate=*/false);
      });
      // Serial retries for in-window failures, in net order, with
      // escalation — still deterministic: the grid state after the batch
      // does not depend on the thread count.
      for (std::size_t i : grp) {
        if (result.nets[i].routed) continue;
        for (const auto& path : result.nets[i].paths) {
          adjust_usage(g, path, -1);
        }
        route_net(g, thread_scratch(), nets[i], result.nets[i], opts,
                  pressure, wins[i], /*allow_escalate=*/true);
      }
    }
  }

  for (const RoutedNet& rn : result.nets) {
    result.total_wirelength_m += rn.wirelength_m;
    result.total_vias += rn.vias;
    if (!rn.routed) ++result.failed_nets;
  }
  for (int use : g.h_use) {
    if (use > opts.edge_capacity) ++result.overflowed_edges;
  }
  for (int use : g.v_use) {
    if (use > opts.edge_capacity) ++result.overflowed_edges;
  }
  return result;
}

}  // namespace vcoadc::synth
