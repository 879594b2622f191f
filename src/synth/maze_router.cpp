#include "synth/maze_router.h"

#include <algorithm>

namespace vcoadc::synth {

double default_route_pitch(const std::vector<netlist::FlatInstance>& flat) {
  for (const netlist::FlatInstance& fi : flat) {
    if (!fi.cell->is_resistor) return fi.cell->height_m;
  }
  return 1e-6;
}

MazeRouteResult maze_route(const std::vector<netlist::FlatInstance>& flat,
                           const Placement& pl, const Rect& die,
                           const MazeRouterOptions& opts) {
  const NetDb db(flat);
  return maze_route(flat, pl, die, opts, db);
}

MazeRouteResult maze_route(const std::vector<netlist::FlatInstance>& flat,
                           const Placement& pl, const Rect& die,
                           const MazeRouterOptions& opts, const NetDb& db) {
  const double pitch =
      opts.grid_pitch_m > 0 ? opts.grid_pitch_m : default_route_pitch(flat);
  RouteGrid g(die, pitch);

  // Collect signal nets with snapped, deduplicated pins. Net ids ascend in
  // name order, so the net list matches the historical string-map order.
  std::vector<NetPins> nets;
  nets.reserve(static_cast<std::size_t>(db.num_nets()));
  std::vector<GridPoint> pins;
  for (int n = 0; n < db.num_nets(); ++n) {
    pins.clear();
    for (int c : db.members(n)) {
      const Point ctr = pl.cells[static_cast<std::size_t>(c)].rect.center();
      pins.push_back(g.snap(ctr.x, ctr.y));
    }
    std::sort(pins.begin(), pins.end());
    pins.erase(std::unique(pins.begin(), pins.end()), pins.end());
    if (pins.size() < 2) continue;
    NetPins np;
    np.name = db.name(n);
    np.pins = pins;
    BBox bb;
    for (const auto& p : pins) {
      bb.expand({static_cast<double>(p.x), static_cast<double>(p.y)});
    }
    np.hpwl = bb.half_perimeter();
    nets.push_back(std::move(np));
  }

  return route_nets(g, std::move(nets), opts);
}

}  // namespace vcoadc::synth
