// The packed words of router/vc_arena.hpp have one layout, declared once
// and read two ways: placed in the compiled kernel's arena, and read and
// driven through each word's Wire twin.  These tests hold the two views to
// the documented bit layout and to each other, in both directions, at every
// VC count the router builds.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "router/vc_arena.hpp"
#include "sim/compile.hpp"
#include "sim/module.hpp"
#include "sim/rng.hpp"

namespace rasoc::router {
namespace {

using vcarena::WireTwin;

constexpr std::uint64_t ones(unsigned width) { return sim::fieldMask(width); }

// The documented layouts, spelled out independently of the field visitors.
std::uint64_t channelLayout(int vcs) {
  const auto v = static_cast<unsigned>(vcs);
  return ones(32) | (1ull << 32) | (1ull << 33) | (1ull << 34) |
         (ones(4) << 35) | (1ull << 39) | (ones(v) << 40) | (ones(v) << 48);
}
std::uint64_t controlLayout(int vcs) {
  std::uint64_t m = 0;
  for (unsigned v = 0; v < static_cast<unsigned>(vcs); ++v)
    m |= (ones(5) << (8 * v)) | (ones(5) << (32 + 8 * v));
  return m;
}
constexpr std::uint64_t kBundleLayout = ones(44);
constexpr std::uint64_t kInputNetsLayout = ones(38);
constexpr std::uint64_t kOutputNetsLayout = ones(3) | (ones(3) << 8);

// One channel bundle, one port block of `vcs` crossbar bundles and both
// single-VC block-net words.  Its lowering places every word through the
// twins and emits one op that copies the arena words out to `captured`,
// or, while `inject` is set, overwrites them with `injected`.
class WordProbe : public sim::Module {
 public:
  explicit WordProbe(int vcs) : Module("probe"), vcs_(vcs) {
    twins_.push_back(WireTwin::channel(channel_, vcs));
    twins_.push_back(WireTwin::control(xbar_.data(), vcs));
    for (int v = 0; v < vcs; ++v)
      twins_.push_back(WireTwin::bundle(xbar_[static_cast<std::size_t>(v)]));
    twins_.push_back(WireTwin::nets(inputNets_));
    twins_.push_back(WireTwin::nets(outputNets_));
    layouts_ = {channelLayout(vcs), controlLayout(vcs)};
    for (int v = 0; v < vcs; ++v) layouts_.push_back(kBundleLayout);
    layouts_.push_back(kInputNetsLayout);
    layouts_.push_back(kOutputNetsLayout);
    captured.assign(twins_.size(), 0);
    injected.assign(twins_.size(), 0);
  }

  const std::vector<WireTwin>& twins() const { return twins_; }
  const std::vector<std::uint64_t>& layouts() const { return layouts_; }

  bool describe(sim::Lowering& lw) override {
    vcarena::ArenaPlacer place{lw};
    words_.clear();
    words_.push_back(place(twins_[0]));
    const std::uint32_t block =
        vcarena::portBlock(place, xbar_.data(), vcs_);
    words_.push_back(block);
    for (int v = 0; v < vcs_; ++v)
      words_.push_back(block + 1 + static_cast<std::uint32_t>(v));
    words_.push_back(place(twins_[twins_.size() - 2]));
    words_.push_back(place(twins_.back()));
    // Placing again finds the same words.
    EXPECT_EQ(place(twins_[0]), words_[0]);
    EXPECT_EQ(place(twins_[1]), words_[1]);
    lw.op(
        [](std::uint64_t* w, void* self) {
          auto& p = *static_cast<WordProbe*>(self);
          for (std::size_t k = 0; k < p.words_.size(); ++k) {
            if (p.inject)
              w[p.words_[k]] = p.injected[k];
            else
              p.captured[k] = w[p.words_[k]];
          }
        },
        this, {}, {});
    return true;
  }

  bool inject = false;
  std::vector<std::uint64_t> captured;
  std::vector<std::uint64_t> injected;

 private:
  int vcs_;
  ChannelWires channel_;
  std::array<CrossbarWires, kMaxVCs> xbar_;
  InputBlockNets inputNets_;
  OutputBlockNets outputNets_;
  std::vector<WireTwin> twins_;
  std::vector<std::uint64_t> layouts_;
  std::vector<std::uint32_t> words_;
};

class WordViewTest : public ::testing::TestWithParam<int> {};

TEST_P(WordViewTest, TwinDrivenWordsReachTheArenaAndArenaWordsReachTheTwins) {
  const int vcs = GetParam();
  WordProbe probe(vcs);
  const auto& twins = probe.twins();
  const auto& layouts = probe.layouts();
  sim::Xoshiro256 rng(0xa7e4a + static_cast<std::uint64_t>(vcs));

  // Wires to arena: random field values driven through each twin read back
  // through it, and are the arena words once the program binds the wires.
  std::vector<std::uint64_t> driven;
  for (std::size_t k = 0; k < twins.size(); ++k) {
    const std::uint64_t bits = rng.next();
    twins[k].drive(~std::uint64_t{0}, bits);
    driven.push_back(bits & layouts[k]);
    EXPECT_EQ(twins[k].read(~std::uint64_t{0}), driven[k]) << "word " << k;
  }
  auto prog = sim::CompiledProgram::build({&probe});
  prog->settle();
  for (std::size_t k = 0; k < twins.size(); ++k)
    EXPECT_EQ(probe.captured[k] & layouts[k], driven[k]) << "word " << k;

  // Arena to wires: words written in the arena read back through the
  // twins, field by field under a mask too, and stay in the wires after
  // the program unbinds them.
  probe.inject = true;
  for (std::size_t k = 0; k < twins.size(); ++k)
    probe.injected[k] = rng.next();
  prog->settle();
  for (std::size_t k = 0; k < twins.size(); ++k) {
    const std::uint64_t want = probe.injected[k] & layouts[k];
    EXPECT_EQ(twins[k].read(~std::uint64_t{0}), want) << "word " << k;
    EXPECT_EQ(twins[k].read(ones(32)), want & ones(32)) << "word " << k;
  }
  prog->unbindWires();
  for (std::size_t k = 0; k < twins.size(); ++k)
    EXPECT_EQ(twins[k].read(~std::uint64_t{0}),
              probe.injected[k] & layouts[k])
        << "word " << k;
}

TEST_P(WordViewTest, MaskedDriveTouchesOnlyTheFieldsUnderTheMask) {
  const int vcs = GetParam();
  WordProbe probe(vcs);
  const WireTwin& channel = probe.twins()[0];
  const std::uint64_t layout = probe.layouts()[0];
  channel.drive(~std::uint64_t{0}, 0);
  // The vcFree levels and the single-VC ack, each set alone.
  channel.drive(vcarena::kFreeMask, ~std::uint64_t{0});
  EXPECT_EQ(channel.read(~std::uint64_t{0}), layout & vcarena::kFreeMask);
  channel.drive(vcarena::bit(vcarena::kAck), ~std::uint64_t{0});
  EXPECT_EQ(channel.read(~std::uint64_t{0}),
            layout & (vcarena::kFreeMask | vcarena::bit(vcarena::kAck)));
  // A forward copy leaves both in place.
  channel.drive(vcarena::kForwardMask, 0x5ull << vcarena::kVc);
  EXPECT_EQ(channel.read(vcarena::kForwardMask), 0x5ull << vcarena::kVc);
  EXPECT_EQ(channel.read(~vcarena::kForwardMask),
            layout & (vcarena::kFreeMask | vcarena::bit(vcarena::kAck)));
}

INSTANTIATE_TEST_SUITE_P(VcCounts, WordViewTest, ::testing::Values(1, 2, 4),
                         [](const auto& info) {
                           return "Vc" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace rasoc::router
