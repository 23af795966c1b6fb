/// LEF/DEF ingestion tests: the LEF writer, round trips through read_lef
/// and read_def_design, one typed IoError per malformed input, and a seeded
/// mutation fuzz of both readers. Also built into the `io` binary, which
/// sanitizer builds run with VM1_EQUIV_LIGHT (a smaller fuzz).
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <exception>
#include <utility>
#include <vector>

#include "cells/library_builder.h"
#include "io/def_io.h"
#include "io/def_reader.h"
#include "io/lef_reader.h"
#include "io/lef_writer.h"
#include "io/report.h"
#include "place/global_placer.h"
#include "place/legalizer.h"
#include "util/rng.h"

namespace vm1 {
namespace {

TEST(LefWriter, ContainsMacrosAndLayers) {
  Tech tech = Tech::make_7nm();
  Library lib = build_library(CellArch::kClosedM1);
  std::string lef = write_lef(tech, lib);
  EXPECT_NE(lef.find("MACRO INV_X1_SVT"), std::string::npos);
  EXPECT_NE(lef.find("LAYER M1"), std::string::npos);
  EXPECT_NE(lef.find("DIRECTION VERTICAL"), std::string::npos);
  EXPECT_NE(lef.find("PIN ZN"), std::string::npos);
  EXPECT_NE(lef.find("CLASS CORE SPACER"), std::string::npos);  // fillers
}

// ---------------------------------------------------------------------------
// Full LEF/DEF ingestion (read_lef + read_def_design): every malformed
// input yields a typed IoError and never a partially-constructed result.

/// A placed small design plus its serialized LEF/DEF pair.
struct Ingest {
  Design d;
  std::string lef;
  std::string def;
};

Ingest make_ingest(CellArch arch) {
  DesignOptions opts;
  opts.scale = 0.3;
  Design d = make_design("tiny", arch, opts);
  global_place(d);
  legalize(d);
  std::string lef = write_lef(d.tech(), d.library());
  std::string def = write_def(d);
  return {std::move(d), std::move(lef), std::move(def)};
}

TEST(LefReader, RoundTripsOwnWriter) {
  for (CellArch arch : {CellArch::kConventional12T, CellArch::kClosedM1,
                        CellArch::kOpenM1}) {
    Tech tech = Tech::make_7nm();
    Library lib = build_library(arch);
    std::string lef = write_lef(tech, lib);
    LefContents back;
    IoError err;
    ASSERT_TRUE(read_lef(lef, &back, &err)) << err.str();
    EXPECT_EQ(back.lib.arch(), arch);
    EXPECT_EQ(back.lib.num_cells(), lib.num_cells());
    // Bit-exact: the reparsed library serializes to the identical LEF.
    EXPECT_EQ(write_lef(back.tech, back.lib), lef) << to_string(arch);
  }
}

TEST(LefReader, TruncatedFileIsTypedError) {
  Ingest in = make_ingest(CellArch::kClosedM1);
  // Cut mid-MACRO: everything after the first PIN keyword disappears.
  std::string cut = in.lef.substr(0, in.lef.find("PIN") + 3);
  LefContents out;
  IoError err;
  EXPECT_FALSE(read_lef(cut, &out, &err));
  EXPECT_EQ(err.kind, IoErrorKind::kTruncated) << err.str();
  EXPECT_EQ(out.lib.num_cells(), 0);  // untouched, not partially filled
}

TEST(LefReader, DuplicateMacroIsTypedError) {
  Tech tech = Tech::make_7nm();
  Library lib = build_library(CellArch::kClosedM1);
  std::string lef = write_lef(tech, lib);
  std::size_t m = lef.find("\nMACRO ");
  ASSERT_NE(m, std::string::npos);
  std::size_t name_at = m + 7;
  std::string name =
      lef.substr(name_at, lef.find('\n', name_at) - name_at);
  std::size_t end = lef.find("END " + name, m);
  ASSERT_NE(end, std::string::npos);
  end = lef.find('\n', end) + 1;
  // Splice the first MACRO block in a second time.
  std::string block = lef.substr(m + 1, end - m - 1);
  std::string dup = lef.substr(0, end) + block + lef.substr(end);
  LefContents out;
  IoError err;
  EXPECT_FALSE(read_lef(dup, &out, &err));
  EXPECT_EQ(err.kind, IoErrorKind::kDuplicateComponent) << err.str();
}

TEST(LefReader, OutOfRangeNumbersAreTypedErrors) {
  // Each number does not fit the field it is read into: a width of 2^32
  // wraps to 0 in an int, NaN and 1e308 have no integer coordinate, and a
  // RECT corner at LONG_MAX overflows the M0 pin's midpoint.
  const std::string lef = write_lef(Tech::make_7nm(),
                                    build_library(CellArch::kOpenM1));
  // Replaces the number after the first `key` inside a MACRO.
  auto with_first_number_after = [&lef](const std::string& key,
                                        const std::string& value) {
    std::string bad = lef;
    std::size_t at = bad.find(key, bad.find("\nMACRO "));
    EXPECT_NE(at, std::string::npos) << key;
    at += key.size();
    bad.replace(at, bad.find(' ', at) - at, value);
    return bad;
  };
  for (const std::string& bad :
       {with_first_number_after("\n  SIZE ", "4294967296"),
        with_first_number_after("vm1_x_track ", "nan"),
        with_first_number_after("vm1_y_off ", "1e308"),
        with_first_number_after("LAYER M0 RECT ", "9223372036854775807")}) {
    LefContents out;
    IoError err;
    EXPECT_FALSE(read_lef(bad, &out, &err));
    EXPECT_EQ(err.kind, IoErrorKind::kBadValue) << err.str();
  }
}

TEST(DefReader, BuildsCompleteDesign) {
  Ingest in = make_ingest(CellArch::kOpenM1);
  IoError err;
  std::unique_ptr<Design> d2 =
      read_def_design(in.def, in.d.tech(), in.d.library(), &err);
  ASSERT_NE(d2, nullptr) << err.str();
  EXPECT_EQ(d2->name(), in.d.name());
  EXPECT_EQ(d2->netlist().num_instances(), in.d.netlist().num_instances());
  EXPECT_EQ(d2->netlist().num_nets(), in.d.netlist().num_nets());
  EXPECT_EQ(d2->netlist().num_ios(), in.d.netlist().num_ios());
  EXPECT_EQ(d2->num_rows(), in.d.num_rows());
  EXPECT_EQ(d2->sites_per_row(), in.d.sites_per_row());
  for (int i = 0; i < in.d.netlist().num_instances(); ++i) {
    EXPECT_EQ(d2->placement(i), in.d.placement(i)) << "instance " << i;
  }
}

TEST(DefReader, TruncatedFileIsTypedError) {
  Ingest in = make_ingest(CellArch::kClosedM1);
  for (const char* marker : {"END COMPONENTS", "END NETS", "END DESIGN"}) {
    std::string cut = in.def.substr(0, in.def.find(marker));
    IoError err;
    EXPECT_EQ(read_def_design(cut, in.d.tech(), in.d.library(), &err),
              nullptr);
    EXPECT_EQ(err.kind, IoErrorKind::kTruncated)
        << marker << ": " << err.str();
  }
}

TEST(DefReader, UnknownMasterIsTypedError) {
  Ingest in = make_ingest(CellArch::kClosedM1);
  std::string bad = in.def;
  std::size_t name = bad.find("- u0 ") + 5;
  bad.replace(name, bad.find(' ', name) - name, "NO_SUCH_CELL");
  IoError err;
  EXPECT_EQ(read_def_design(bad, in.d.tech(), in.d.library(), &err), nullptr);
  EXPECT_EQ(err.kind, IoErrorKind::kUnknownMaster) << err.str();
  EXPECT_NE(err.message.find("NO_SUCH_CELL"), std::string::npos);
}

TEST(DefReader, DuplicateInstanceIsTypedError) {
  Ingest in = make_ingest(CellArch::kClosedM1);
  std::string bad = in.def;
  std::size_t a = bad.find("- u0 ");
  std::size_t e = bad.find('\n', a) + 1;
  std::string line = bad.substr(a, e - a);
  bad.insert(e, line);  // u0 declared twice (count now off by one too)
  IoError err;
  EXPECT_EQ(read_def_design(bad, in.d.tech(), in.d.library(), &err), nullptr);
  EXPECT_EQ(err.kind, IoErrorKind::kDuplicateComponent) << err.str();
}

TEST(DefReader, DanglingNetPinIsTypedError) {
  Ingest in = make_ingest(CellArch::kClosedM1);
  // A net referencing an instance that is never declared.
  {
    std::string bad = in.def;
    std::size_t n = bad.find("- n0 (");
    bad.replace(n, bad.find('\n', n) - n, "- n0 ( phantom A ) ;");
    IoError err;
    EXPECT_EQ(read_def_design(bad, in.d.tech(), in.d.library(), &err),
              nullptr);
    EXPECT_EQ(err.kind, IoErrorKind::kDanglingNetPin) << err.str();
    EXPECT_NE(err.message.find("phantom"), std::string::npos);
  }
  // A net referencing a pin its master does not have.
  {
    std::string bad = in.def;
    std::size_t n = bad.find("- n0 (");
    bad.replace(n, bad.find('\n', n) - n, "- n0 ( u0 NOT_A_PIN ) ;");
    IoError err;
    EXPECT_EQ(read_def_design(bad, in.d.tech(), in.d.library(), &err),
              nullptr);
    EXPECT_EQ(err.kind, IoErrorKind::kDanglingNetPin) << err.str();
  }
}

TEST(DefReader, OutsideDieAreaIsTypedError) {
  Ingest in = make_ingest(CellArch::kClosedM1);
  std::string bad = in.def;
  std::size_t a = bad.find("+ PLACED ( ");
  bad.replace(a, bad.find(')', a) - a, "+ PLACED ( 100000 0 ");
  IoError err;
  EXPECT_EQ(read_def_design(bad, in.d.tech(), in.d.library(), &err), nullptr);
  EXPECT_EQ(err.kind, IoErrorKind::kOutsideDieArea) << err.str();
}

/// 1-based line of the first occurrence of `needle` in `text`.
int line_of(const std::string& text, const std::string& needle) {
  std::size_t at = text.find(needle);
  EXPECT_NE(at, std::string::npos) << needle;
  return 1 + static_cast<int>(std::count(
                 text.begin(), text.begin() + static_cast<long>(at), '\n'));
}

/// Removes the whole line holding `needle` from *text and returns it.
std::string take_line(std::string* text, const std::string& needle) {
  std::size_t a = text->rfind('\n', text->find(needle)) + 1;
  std::size_t e = text->find('\n', a) + 1;
  std::string line = text->substr(a, e - a);
  text->erase(a, e - a);
  return line;
}

/// Sets the "( x row )" of component `name` to `xy`.
void place_component(std::string* def, const std::string& name,
                     const std::string& xy) {
  std::size_t open = def->find("( ", def->find("- " + name + " "));
  def->replace(open, def->find(')', open) + 1 - open, "( " + xy + " )");
}

TEST(DefReader, HugeComponentXIsTypedError) {
  // x + width would overflow a long: the check must not add.
  Ingest in = make_ingest(CellArch::kClosedM1);
  std::string bad = in.def;
  place_component(&bad, "u0", "9223372036854775807 1");
  IoError err;
  EXPECT_EQ(read_def_design(bad, in.d.tech(), in.d.library(), &err), nullptr);
  EXPECT_EQ(err.kind, IoErrorKind::kOutsideDieArea) << err.str();
  EXPECT_EQ(err.line, line_of(bad, "- u0 ")) << err.str();
}

TEST(DefReader, FloorplanAfterComponentsStillBoundsThem) {
  // DIEAREA and ROWS after COMPONENTS: the placements are checked against
  // the grid they arrive with, not waved through for lack of one.
  Ingest in = make_ingest(CellArch::kClosedM1);
  std::string bad = in.def;
  std::string floorplan = take_line(&bad, "DIEAREA") + take_line(&bad, "ROWS");
  bad.insert(bad.find("END COMPONENTS\n") + 15, floorplan);
  place_component(&bad, "u0", "5000 40");
  IoError err;
  EXPECT_EQ(read_def_design(bad, in.d.tech(), in.d.library(), &err), nullptr);
  EXPECT_EQ(err.kind, IoErrorKind::kOutsideDieArea) << err.str();
  EXPECT_EQ(err.line, line_of(bad, "- u0 ")) << err.str();
}

TEST(DefReader, LaterRowsStatementRechecksComponents) {
  // A second ROWS after COMPONENTS shrinks the die to one row under
  // components already read: the first one above row 0 is refused.
  Ingest in = make_ingest(CellArch::kClosedM1);
  std::string bad = in.def;
  bad.insert(bad.find("END COMPONENTS\n") + 15,
             "ROWS 1 SITES " + std::to_string(in.d.sites_per_row()) + " ;\n");
  const Netlist& nl = in.d.netlist();
  int first_above = -1;
  for (int i = 0; i < nl.num_instances() && first_above < 0; ++i) {
    if (in.d.placement(i).row > 0) first_above = i;
  }
  ASSERT_GE(first_above, 0);
  IoError err;
  EXPECT_EQ(read_def_design(bad, in.d.tech(), in.d.library(), &err), nullptr);
  EXPECT_EQ(err.kind, IoErrorKind::kOutsideDieArea) << err.str();
  EXPECT_EQ(err.line,
            line_of(bad, "- " + nl.instance(first_above).name + " "))
      << err.str();
}

TEST(DefReader, GridAboveIntMaxIsTypedError) {
  Ingest in = make_ingest(CellArch::kClosedM1);
  const std::string sites = std::to_string(in.d.sites_per_row());
  // 4294967301 rows would wrap to 5 in an int; 2^32 sites to 0.
  for (const std::string& rows : std::vector<std::string>{
           "ROWS 4294967301 SITES " + sites + " ;\n",
           "ROWS 5 SITES 4294967296 ;\n"}) {
    std::string bad = in.def;
    std::size_t a = bad.find("ROWS ");
    bad.replace(a, bad.find('\n', a) + 1 - a, rows);
    IoError err;
    EXPECT_EQ(read_def_design(bad, in.d.tech(), in.d.library(), &err),
              nullptr)
        << rows;
    EXPECT_EQ(err.kind, IoErrorKind::kBadValue) << err.str();
    EXPECT_EQ(err.line, line_of(bad, "ROWS ")) << err.str();
  }
  // Without ROWS the grid comes from DIEAREA, under the same limit.
  std::string bad = in.def;
  take_line(&bad, "ROWS ");
  std::size_t a = bad.find("DIEAREA");
  bad.replace(a, bad.find('\n', a) - a,
              "DIEAREA ( 0 0 ) ( 9223372036854775807 "
              "9223372036854775807 ) ;");
  IoError err;
  EXPECT_EQ(read_def_design(bad, in.d.tech(), in.d.library(), &err), nullptr);
  EXPECT_EQ(err.kind, IoErrorKind::kBadValue) << err.str();
}

// ---------------------------------------------------------------------------
// Mutation fuzz of both readers, in the manner of WireFuzz
// (tests/test_wire.cpp): seeded byte flips, truncations, deleted or
// duplicated tokens, and numeric tokens swapped for hostile values. No
// exception may escape, a rejection must fill a typed IoError with a
// message, and whatever is accepted must hold what the reader promises.

#ifdef VM1_EQUIV_LIGHT
constexpr int kMutationsPerArch = 500;
#else
constexpr int kMutationsPerArch = 2000;
#endif

constexpr CellArch kAllArchs[] = {CellArch::kConventional12T,
                                  CellArch::kClosedM1, CellArch::kOpenM1};

/// A fuzz seed text with its whitespace-separated token spans.
struct FuzzSeed {
  std::string text;
  std::vector<std::pair<std::size_t, std::size_t>> toks;  ///< [begin, end)
  std::vector<std::size_t> numeric;  ///< indices into toks

  explicit FuzzSeed(std::string t) : text(std::move(t)) {
    auto space = [](char c) {
      return std::isspace(static_cast<unsigned char>(c)) != 0;
    };
    for (std::size_t i = 0; i < text.size();) {
      while (i < text.size() && space(text[i])) ++i;
      std::size_t b = i;
      while (i < text.size() && !space(text[i])) ++i;
      if (i == b) continue;
      bool digits = std::all_of(text.begin() + static_cast<long>(b),
                                text.begin() + static_cast<long>(i),
                                [](char c) {
                                  return std::isdigit(
                                             static_cast<unsigned char>(c)) ||
                                         c == '-' || c == '.';
                                });
      if (digits) numeric.push_back(toks.size());
      toks.emplace_back(b, i);
    }
  }

  std::string mutate(Rng& rng) const {
    static const char* const kHostile[] = {"9223372036854775807", "-1",
                                           "4294967296", "1e308", "nan"};
    std::string s = text;
    auto [b, e] = toks[rng.uniform(toks.size())];
    switch (rng.uniform(5)) {
      case 0:  // byte flip
        s[rng.uniform(s.size())] ^= static_cast<char>(1 + rng.uniform(255));
        break;
      case 1:  // truncation
        s.resize(rng.uniform(s.size() + 1));
        break;
      case 2:  // deleted token
        s.erase(b, e - b);
        break;
      case 3:  // duplicated token
        s.insert(e, " " + s.substr(b, e - b));
        break;
      default: {  // hostile number
        auto [nb, ne] = toks[numeric[rng.uniform(numeric.size())]];
        s.replace(nb, ne - nb, kHostile[rng.uniform(5)]);
        break;
      }
    }
    return s;
  }
};

TEST(IoFuzz, MutatedDefIsTypedErrorOrInsideTheDie) {
  Rng rng(1907);
  long accepted = 0, rejected = 0;
  for (CellArch arch : kAllArchs) {
    Ingest in = make_ingest(arch);
    FuzzSeed seed(in.def);
    for (int k = 0; k < kMutationsPerArch; ++k) {
      std::string text = seed.mutate(rng);
      IoError err;
      std::unique_ptr<Design> d;
      try {
        d = read_def_design(text, in.d.tech(), in.d.library(), &err);
      } catch (const std::exception& e) {
        FAIL() << to_string(arch) << " mutation " << k
               << ": exception escaped: " << e.what();
      }
      if (!d) {
        ++rejected;
        ASSERT_FALSE(err.message.empty())
            << to_string(arch) << " mutation " << k << ": " << err.str();
        continue;
      }
      ++accepted;
      const Netlist& nl = d->netlist();
      for (int i = 0; i < nl.num_instances(); ++i) {
        const Placement& p = d->placement(i);
        const long width = nl.cell_of(i).width_sites;
        ASSERT_TRUE(p.x >= 0 && p.row >= 0 && p.row < d->num_rows() &&
                    p.x + width <= d->sites_per_row())
            << to_string(arch) << " mutation " << k << ": "
            << nl.instance(i).name << " at (" << p.x << ", " << p.row
            << ") outside the " << d->num_rows() << " x "
            << d->sites_per_row() << " grid";
      }
    }
  }
  // Both outcomes occur, so neither check above is vacuous.
  EXPECT_GT(accepted, 0);
  EXPECT_GT(rejected, 0);
}

TEST(IoFuzz, MutatedLefIsTypedErrorOrWellFormed) {
  Rng rng(1917);
  long accepted = 0, rejected = 0;
  for (CellArch arch : kAllArchs) {
    FuzzSeed seed(write_lef(Tech::make_7nm(), build_library(arch)));
    for (int k = 0; k < kMutationsPerArch; ++k) {
      std::string text = seed.mutate(rng);
      LefContents out;
      IoError err;
      bool ok = false;
      try {
        ok = read_lef(text, &out, &err);
      } catch (const std::exception& e) {
        FAIL() << to_string(arch) << " mutation " << k
               << ": exception escaped: " << e.what();
      }
      if (!ok) {
        ++rejected;
        ASSERT_FALSE(err.message.empty())
            << to_string(arch) << " mutation " << k << ": " << err.str();
        continue;
      }
      ++accepted;
      ASSERT_GT(out.lib.num_cells(), 0);
      for (int c = 0; c < out.lib.num_cells(); ++c) {
        ASSERT_GT(out.lib.cell(c).width_sites, 0)
            << to_string(arch) << " mutation " << k << ": "
            << out.lib.cell(c).name;
      }
    }
  }
  EXPECT_GT(accepted, 0);
  EXPECT_GT(rejected, 0);
}

TEST(Report, TableRendering) {
  Table t({"design", "RWL", "delta%"});
  t.add_row({"aes", "32560", "-6.4"});
  t.add_row({"jpeg", "96621", "-6.2"});
  std::string out = t.render();
  EXPECT_NE(out.find("design"), std::string::npos);
  EXPECT_NE(out.find("aes"), std::string::npos);
  EXPECT_NE(out.find("-6.4"), std::string::npos);
  // Header separator present.
  EXPECT_NE(out.find("---"), std::string::npos);
  // Rows align: every line has the same length.
  std::size_t first_nl = out.find('\n');
  std::size_t second_nl = out.find('\n', first_nl + 1);
  std::size_t third_nl = out.find('\n', second_nl + 1);
  EXPECT_EQ(first_nl, third_nl - second_nl - 1);
}

}  // namespace
}  // namespace vm1
