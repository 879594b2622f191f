// Parameterized property sweeps over the exchange formats and the logic
// simulator: every library view must round-trip at every node, and every
// combinational master must match its truth table in the event simulator.
#include <gtest/gtest.h>

#include <cmath>
#include <ostream>
#include <tuple>

#include "netlist/cell_library.h"
#include "netlist/lef.h"
#include "netlist/liberty.h"
#include "netlist/logic_sim.h"
#include "netlist/spice.h"
#include "tech/tech_node.h"

namespace vcoadc::netlist {
namespace {

// ------------------------------------------------ formats across nodes ----
class FormatsNodes : public ::testing::TestWithParam<double> {};

TEST_P(FormatsNodes, LefRoundTripEveryNode) {
  const tech::TechNode node = tech::TechDatabase::standard().at(GetParam());
  CellLibrary lib = make_standard_library(node);
  add_resistor_cells(lib, node);
  CellLibrary back("back");
  const auto res = parse_lef(write_lef(lib), back);
  ASSERT_TRUE(res.ok) << res.error;
  ASSERT_EQ(back.cells().size(), lib.cells().size());
  for (const auto& cell : lib.cells()) {
    const StdCell* b = back.find(cell.name);
    ASSERT_NE(b, nullptr);
    EXPECT_NEAR(b->width_m, cell.width_m, 1e-10) << cell.name;
    EXPECT_EQ(b->function, cell.function);
  }
}

TEST_P(FormatsNodes, LibertyDelaysPositiveAndNodeOrdered) {
  const tech::TechNode node = tech::TechDatabase::standard().at(GetParam());
  const CellLibrary lib = make_standard_library(node);
  for (const auto& cell : lib.cells()) {
    EXPECT_GT(cell_intrinsic_delay(cell, node), 0.0) << cell.name;
  }
  // Liberty text parses back with the same cell count.
  CellLibrary back("b");
  const auto res = parse_liberty(write_liberty(lib, node), back);
  ASSERT_TRUE(res.ok) << res.error;
  EXPECT_EQ(back.cells().size(), lib.cells().size());
}

TEST_P(FormatsNodes, SpiceSubcktsForEveryMaster) {
  const tech::TechNode node = tech::TechDatabase::standard().at(GetParam());
  CellLibrary lib = make_standard_library(node);
  add_resistor_cells(lib, node);
  for (const auto& cell : lib.cells()) {
    const std::string sub = spice_cell_subckt(cell, node);
    ASSERT_FALSE(sub.empty()) << cell.name;
    EXPECT_NE(sub.find(".SUBCKT " + cell.name), std::string::npos);
    EXPECT_NE(sub.find(".ENDS " + cell.name), std::string::npos);
    // Device count matches the declared topology.
    int fets = 0;
    for (std::size_t pos = 0; (pos = sub.find("\nM", pos)) != std::string::npos;
         ++pos) {
      ++fets;
    }
    EXPECT_EQ(fets, spice_transistor_count(cell)) << cell.name;
  }
}

INSTANTIATE_TEST_SUITE_P(Nodes, FormatsNodes,
                         ::testing::Values(22.0, 40.0, 90.0, 180.0, 500.0));

// -------------------------------------------------- logic truth tables ----
struct GateCase {
  const char* master;
  int inputs;
  // expected output for input index (bit i of the case index = input i)
  int truth;  // bitmask over 2^inputs cases
};

// Print the master name, not the struct bytes: gtest's default printer dumps
// the `master` pointer, which puts a load address into the listed test name.
void PrintTo(const GateCase& gc, std::ostream* os) { *os << gc.master; }

class GateTruth : public ::testing::TestWithParam<GateCase> {};

TEST_P(GateTruth, MatchesTruthTable) {
  const GateCase gc = GetParam();
  const tech::TechNode node = tech::TechDatabase::standard().at(40);
  CellLibrary lib = make_standard_library(node);
  Design d(&lib);
  Module& m = d.add_module("t");
  const char* pin_names[3] = {"A", "B", "C"};
  for (int i = 0; i < gc.inputs; ++i) {
    m.add_port(pin_names[i], PortDir::kInput);
  }
  m.add_port("Y", PortDir::kOutput);
  m.add_port("VDD", PortDir::kInout);
  m.add_port("VSS", PortDir::kInout);
  Instance inst;
  inst.name = "u0";
  inst.master = gc.master;
  for (int i = 0; i < gc.inputs; ++i) {
    inst.conn[pin_names[i]] = pin_names[i];
  }
  inst.conn["Y"] = "Y";
  inst.conn["VDD"] = "VDD";
  inst.conn["VSS"] = "VSS";
  m.add_instance(inst);
  d.set_top("t");

  LogicSim sim(d, node);
  for (int c = 0; c < (1 << gc.inputs); ++c) {
    for (int i = 0; i < gc.inputs; ++i) {
      sim.set(pin_names[i], ((c >> i) & 1) ? Logic::k1 : Logic::k0);
    }
    ASSERT_TRUE(sim.settle(sim.now() + 1e-9));
    const Logic expect = ((gc.truth >> c) & 1) ? Logic::k1 : Logic::k0;
    EXPECT_EQ(sim.get("Y"), expect) << gc.master << " case " << c;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Gates, GateTruth,
    ::testing::Values(GateCase{"INVX1", 1, 0b01},      // Y = !A
                      GateCase{"INVX4", 1, 0b01},
                      GateCase{"BUFX2", 1, 0b10},      // Y = A
                      GateCase{"CLKBUFX8", 1, 0b10},
                      GateCase{"NAND2X1", 2, 0b0111},  // !(A&B)
                      GateCase{"NOR2X1", 2, 0b0001},   // !(A|B)
                      GateCase{"XOR2X1", 2, 0b0110},
                      GateCase{"NAND3X1", 3, 0b01111111},
                      GateCase{"NOR3X4", 3, 0b00000001}));

}  // namespace
}  // namespace vcoadc::netlist
