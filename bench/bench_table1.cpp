// Reproduces paper Table 1: processor sets of the tetrahedral block
// partition for m = 10, P = 30 (Steiner (10,4,3) system, spherical q = 3).
//
// S(10,4,3) is unique up to relabeling, so the reproduced table is the
// paper's table up to a permutation of row-block labels and processor
// order. The checks verify every property the table exhibits.

#include <algorithm>
#include <cstdlib>
#include <iostream>
#include <vector>

#include "partition/tetra_partition.hpp"
#include "repro_common.hpp"
#include "steiner/constructions.hpp"
#include "steiner/isomorphism.hpp"
#include "support/table.hpp"

int main() {
  using namespace sttsv;
  repro::banner(
      "Table 1: processor sets R_p, N_p, D_p for m=10, P=30 (q=3)");

  const auto part =
      partition::TetraPartition::build(steiner::spherical_system(3));

  TextTable table({"p", "R_p", "N_p", "D_p"},
                  {Align::kRight, Align::kLeft, Align::kLeft, Align::kLeft});
  for (std::size_t p = 0; p < part.num_processors(); ++p) {
    table.add_row({std::to_string(p + 1), repro::set_1based(part.R(p)),
                   repro::blocks_1based(part.N(p)),
                   repro::blocks_1based(part.D(p))});
  }
  std::cout << table;
  std::cout << "\n(Labels differ from the paper's by a relabeling — "
               "S(10,4,3) is unique up to isomorphism.)\n\n";

  repro::Checker check;
  check.check(part.num_processors() == 30, "P = 30 processors");
  check.check(part.num_row_blocks() == 10, "m = 10 row blocks");

  bool r_sizes = true;
  bool n_sizes = true;
  std::size_t central = 0;
  for (std::size_t p = 0; p < 30; ++p) {
    r_sizes = r_sizes && part.R(p).size() == 4;
    n_sizes = n_sizes && part.N(p).size() == 3;  // q = 3 per processor
    central += part.D(p).size();
  }
  check.check(r_sizes, "|R_p| = 4 for every processor (as in Table 1)");
  check.check(n_sizes, "|N_p| = 3 for every processor (as in Table 1)");
  check.check(central == 10, "exactly 10 central diagonal blocks assigned");

  try {
    part.validate();
    check.check(true, "partition covers the lower tetrahedron exactly once");
  } catch (const std::exception& e) {
    check.check(false, std::string("partition validation: ") + e.what());
  }

  // Strongest check: our construction is ISOMORPHIC to the exact design
  // the paper prints — exhibit the point relabeling.
  {
    const std::vector<std::vector<std::size_t>> paper_rows = {
        {1, 2, 3, 7},  {1, 2, 4, 5},  {1, 2, 6, 10}, {1, 2, 8, 9},
        {1, 3, 4, 10}, {1, 3, 5, 8},  {1, 3, 6, 9},  {1, 4, 6, 8},
        {1, 4, 7, 9},  {1, 5, 6, 7},  {1, 5, 9, 10}, {1, 7, 8, 10},
        {2, 3, 4, 8},  {2, 3, 5, 6},  {2, 3, 9, 10}, {2, 4, 6, 9},
        {2, 4, 7, 10}, {2, 5, 7, 9},  {2, 5, 8, 10}, {2, 6, 7, 8},
        {3, 4, 5, 9},  {3, 4, 6, 7},  {3, 5, 7, 10}, {3, 6, 8, 10},
        {3, 7, 8, 9},  {4, 5, 6, 10}, {4, 5, 7, 8},  {4, 8, 9, 10},
        {5, 6, 8, 9},  {6, 7, 9, 10}};
    std::vector<std::vector<std::size_t>> blocks;
    for (auto row : paper_rows) {
      for (auto& v : row) --v;
      blocks.push_back(row);
    }
    std::sort(blocks.begin(), blocks.end());
    const steiner::SteinerSystem paper_sys(10, 4, std::move(blocks));
    const auto perm = steiner::find_isomorphism(part.system(), paper_sys);
    check.check(perm.has_value(),
                "our S(10,4,3) is isomorphic to the paper's exact Table 1 "
                "design (relabeling exhibited)");
    if (perm.has_value()) {
      std::string mapping = "  relabeling (ours -> paper, 1-based):";
      for (std::size_t p = 0; p < perm->size(); ++p) {
        mapping += ' ';
        mapping += std::to_string(p + 1) + "->" +
                   std::to_string((*perm)[p] + 1);
      }
      std::cout << mapping << "\n";
    }
  }

  std::cout << "\n" << (check.exit_code() == 0 ? "TABLE 1 REPRODUCED" :
                        "TABLE 1 FAILED") << "\n";
  return check.exit_code();
}
