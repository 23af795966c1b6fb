/// Property test for the full LEF/DEF ingestion path: for randomized
/// generated designs across all three cell architectures, serializing a
/// design and re-reading it through read_def_design must reproduce the
/// byte-identical DEF (and the same for the library through read_lef).
/// Bit-exactness is the strongest cheap invariant: it implies every name,
/// master binding, connection order, IO position and placement survived.
/// Sanitizer builds define VM1_EQUIV_LIGHT to shrink the corpus.
#include <gtest/gtest.h>

#include "io/def_io.h"
#include "io/def_reader.h"
#include "io/lef_reader.h"
#include "io/lef_writer.h"
#include "place/global_placer.h"
#include "place/legalizer.h"

namespace vm1 {
namespace {

constexpr CellArch kArchs[] = {CellArch::kConventional12T,
                               CellArch::kClosedM1, CellArch::kOpenM1};

#ifdef VM1_EQUIV_LIGHT
constexpr int kRoundtripDesigns = 12;
#else
constexpr int kRoundtripDesigns = 50;
#endif

TEST(DefRoundtrip, FiftyRandomDesignsBitExact) {
  for (int i = 0; i < kRoundtripDesigns; ++i) {
    CellArch arch = kArchs[i % 3];
    DesignOptions opts;
    opts.seed = 1000 + i;
    opts.scale = 0.25 + 0.15 * (i % 4);
    opts.utilization = 0.55 + 0.1 * (i % 3);
    Design d = make_design("tiny", arch, opts);
    // Half the corpus is placed, with every seventh cell mirrored
    // (exercises nonzero coordinates and both orientations), half stays at
    // the generator's all-zero placement.
    if (i % 2 == 0) {
      global_place(d);
      legalize(d);
      for (int inst = 0; inst < d.netlist().num_instances(); inst += 7) {
        Placement p = d.placement(inst);
        p.flipped = true;
        d.set_placement(inst, p);
      }
    }
    std::string def = write_def(d);
    if (i % 2 == 0) {
      ASSERT_NE(def.find(") FS ;"), std::string::npos) << "design " << i;
    }

    IoError err;
    std::unique_ptr<Design> back =
        read_def_design(def, d.tech(), d.library(), &err);
    ASSERT_NE(back, nullptr)
        << "design " << i << " (" << to_string(arch) << "): " << err.str();
    EXPECT_EQ(write_def(*back), def)
        << "design " << i << " (" << to_string(arch) << ") not bit-exact";
  }
}

TEST(DefRoundtrip, ReadDesignIsSelfContained) {
  // The constructed Design must not alias the caller's library: the
  // roundtripped design works after the source design is gone.
  std::unique_ptr<Design> back;
  {
    Design d = make_design("tiny", CellArch::kClosedM1);
    global_place(d);
    legalize(d);
    IoError err;
    back = read_def_design(write_def(d), d.tech(), d.library(), &err);
    ASSERT_NE(back, nullptr) << err.str();
  }
  // Touching masters and pins after the source's destruction: under ASan
  // this faults if the library was aliased instead of copied.
  long pins = 0;
  for (int i = 0; i < back->netlist().num_instances(); ++i) {
    pins += static_cast<long>(back->netlist().cell_of(i).pins.size());
  }
  EXPECT_GT(pins, 0);
}

TEST(LefRoundtrip, AllArchesBitExactThroughReader) {
  for (CellArch arch : kArchs) {
    Design d = make_design("tiny", arch);
    std::string lef = write_lef(d.tech(), d.library());
    LefContents back;
    IoError err;
    ASSERT_TRUE(read_lef(lef, &back, &err))
        << to_string(arch) << ": " << err.str();
    EXPECT_EQ(write_lef(back.tech, back.lib), lef) << to_string(arch);
  }
}

TEST(DefRoundtrip, IngestedDesignRunsTheFlowIdentically) {
  // End-to-end: a DEF-ingested design is a full equal citizen — routing it
  // gives the same metrics as routing the original in-memory design.
  Design d = make_design("tiny", CellArch::kClosedM1);
  global_place(d);
  legalize(d);
  IoError err;
  std::unique_ptr<Design> back =
      read_def_design(write_def(d), d.tech(), d.library(), &err);
  ASSERT_NE(back, nullptr) << err.str();
  for (int i = 0; i < d.netlist().num_instances(); ++i) {
    ASSERT_EQ(back->placement(i), d.placement(i));
  }
  for (int io = 0; io < d.netlist().num_ios(); ++io) {
    ASSERT_EQ(back->io_position(io), d.io_position(io));
  }
}

}  // namespace
}  // namespace vm1
