#include "sim/vcd.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

namespace rasoc::sim {
namespace {

TEST(VcdTest, HeaderContainsDefinitions) {
  VcdWriter vcd("top");
  std::uint64_t a = 0;
  vcd.addSignal("clk", 1, [&] { return a; });
  vcd.sample(0);
  const std::string text = vcd.render();
  EXPECT_NE(text.find("$timescale 1 ns $end"), std::string::npos);
  EXPECT_NE(text.find("$scope module top $end"), std::string::npos);
  EXPECT_NE(text.find("$var wire 1 ! clk $end"), std::string::npos);
  EXPECT_NE(text.find("$enddefinitions $end"), std::string::npos);
}

TEST(VcdTest, ScalarChangesUseCompactForm) {
  VcdWriter vcd("top");
  std::uint64_t v = 0;
  vcd.addSignal("sig", 1, [&] { return v; });
  vcd.sample(0);
  v = 1;
  vcd.sample(1);
  const std::string text = vcd.render();
  EXPECT_NE(text.find("#0\n0!"), std::string::npos);
  EXPECT_NE(text.find("#1\n1!"), std::string::npos);
}

TEST(VcdTest, VectorsUseBinaryForm) {
  VcdWriter vcd("top");
  std::uint64_t v = 0xa;
  vcd.addSignal("bus", 4, [&] { return v; });
  vcd.sample(0);
  const std::string text = vcd.render();
  EXPECT_NE(text.find("b1010 !"), std::string::npos);
}

TEST(VcdTest, UnchangedValuesAreNotReemitted) {
  VcdWriter vcd("top");
  std::uint64_t v = 1;
  vcd.addSignal("sig", 1, [&] { return v; });
  vcd.sample(0);
  vcd.sample(1);  // unchanged: no #1 section at all
  v = 0;
  vcd.sample(2);
  const std::string text = vcd.render();
  EXPECT_NE(text.find("#0\n"), std::string::npos);
  EXPECT_EQ(text.find("#1\n"), std::string::npos);
  EXPECT_NE(text.find("#2\n"), std::string::npos);
}

TEST(VcdTest, DottedNamesBecomeScopes) {
  VcdWriter vcd("router");
  vcd.addSignal("Lin.val", 1, [] { return 0u; });
  vcd.addSignal("Lin.ack", 1, [] { return 0u; });
  vcd.addSignal("Eout.val", 1, [] { return 0u; });
  vcd.sample(0);
  const std::string text = vcd.render();
  EXPECT_NE(text.find("$scope module Lin $end"), std::string::npos);
  EXPECT_NE(text.find("$scope module Eout $end"), std::string::npos);
  // Member names are emitted without the scope prefix.
  EXPECT_NE(text.find(" val $end"), std::string::npos);
  EXPECT_NE(text.find(" ack $end"), std::string::npos);
}

TEST(VcdTest, ManySignalsGetUniqueIds) {
  VcdWriter vcd("top");
  std::vector<std::string> ids;
  for (int i = 0; i < 200; ++i)
    ids.push_back(vcd.addSignal(std::string("s").append(std::to_string(i)),
                                1, [] { return 0u; }));
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(std::unique(ids.begin(), ids.end()), ids.end());
}

TEST(VcdTest, Signal95UsesTwoCharacterId) {
  // Ids are base-94 over '!'..'~', least-significant digit first: index 94
  // rolls over from the single char '~' (index 93) to the two-char "!\"".
  VcdWriter vcd("top");
  std::string id93, id94;
  std::uint64_t v = 0;
  for (int i = 0; i < 100; ++i) {
    const std::string id =
        vcd.addSignal(std::string("s").append(std::to_string(i)), 1,
                      [&] { return v; });
    if (i == 93) id93 = id;
    if (i == 94) id94 = id;
  }
  EXPECT_EQ(id93, "~");
  EXPECT_EQ(id94, "!\"");

  vcd.sample(0);
  v = 1;
  vcd.sample(1);
  const std::string text = vcd.render();
  // Both definition and value-change lines carry the multi-char id intact.
  EXPECT_NE(text.find("$var wire 1 !\" s94 $end"), std::string::npos);
  EXPECT_NE(text.find("0!\"\n"), std::string::npos);
  EXPECT_NE(text.find("1!\"\n"), std::string::npos);
}

TEST(VcdTest, AddAfterSampleThrows) {
  VcdWriter vcd("top");
  vcd.addSignal("a", 1, [] { return 0u; });
  vcd.sample(0);
  EXPECT_THROW(vcd.addSignal("b", 1, [] { return 0u; }),
               std::logic_error);
}

TEST(VcdTest, WidthBoundsChecked) {
  VcdWriter vcd("top");
  EXPECT_THROW(vcd.addSignal("w0", 0, [] { return 0u; }),
               std::invalid_argument);
  EXPECT_THROW(vcd.addSignal("w65", 65, [] { return 0u; }),
               std::invalid_argument);
  EXPECT_NO_THROW(vcd.addSignal("w64", 64, [] { return 0u; }));
}

}  // namespace
}  // namespace rasoc::sim
