// The packed words of router/vc_arena.hpp have one layout, declared once
// as the field visitors ArenaPlacer places a WireTwin's wires with.  These
// tests hold the placed words to the documented bit layout in both
// directions, at every VC count the router builds: values forced on the
// named wires are the arena words once a program binds them, and arena
// words read back through the same wires.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <functional>
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

// One named wire of a word at its documented place: `width` bits at
// `shift`, forced and read as the raw field value.
struct Field {
  unsigned shift;
  unsigned width;
  std::function<void(std::uint32_t)> force;
  std::function<std::uint32_t()> read;
};

template <typename T>
Field field(sim::Wire<T>& w, unsigned shift, unsigned width) {
  return {shift, width,
          [&w](std::uint32_t v) { w.force(static_cast<T>(v)); },
          [&w] { return static_cast<std::uint32_t>(w.get()); }};
}

// The documented layouts, spelled out independently of the field visitors.
std::vector<Field> channelFields(ChannelWires& c, int vcs) {
  std::vector<Field> f = {field(c.flit.data, 0, 32), field(c.flit.bop, 32, 1),
                          field(c.flit.eop, 33, 1),  field(c.val, 34, 1),
                          field(c.vc, 35, 4),        field(c.ack, 39, 1)};
  for (unsigned v = 0; v < static_cast<unsigned>(vcs); ++v) {
    f.push_back(field(c.vcFree[v], 40 + v, 1));
    f.push_back(field(c.vcAck[v], 48 + v, 1));
  }
  return f;
}
std::vector<Field> controlFields(std::array<CrossbarWires, kMaxVCs>& xbar,
                                 int vcs) {
  std::vector<Field> f;
  for (unsigned v = 0; v < static_cast<unsigned>(vcs); ++v)
    for (unsigned o = 0; o < kNumPorts; ++o) {
      f.push_back(field(xbar[v].gnt[o], 8 * v + o, 1));
      f.push_back(field(xbar[v].rd[o], 32 + 8 * v + o, 1));
    }
  return f;
}
std::vector<Field> bundleFields(CrossbarWires& x) {
  std::vector<Field> f = {field(x.flit.data, 0, 32), field(x.flit.bop, 32, 1),
                          field(x.flit.eop, 33, 1), field(x.rok, 34, 1)};
  for (unsigned o = 0; o < kNumPorts; ++o)
    f.push_back(field(x.req[o], 35 + o, 1));
  f.push_back(field(x.want, 40, 4));
  return f;
}
std::vector<Field> inputNetFields(InputBlockNets& n) {
  return {field(n.dout.data, 0, 32), field(n.dout.bop, 32, 1),
          field(n.dout.eop, 33, 1),  field(n.wok, 34, 1),
          field(n.rok, 35, 1),       field(n.wr, 36, 1),
          field(n.rd, 37, 1)};
}
std::vector<Field> outputNetFields(OutputBlockNets& n) {
  return {field(n.connected, 0, 1), field(n.rokSel, 1, 1),
          field(n.xRd, 2, 1), field(n.sel, 8, 3)};
}

// One channel bundle, one port block of `vcs` crossbar bundles and both
// single-VC block-net words.  Its lowering places every word through
// ArenaPlacer and emits one op that copies the arena words out to
// `captured`, or, while `inject` is set, overwrites them with `injected`.
class WordProbe : public sim::Module {
 public:
  explicit WordProbe(int vcs) : Module("probe"), vcs_(vcs) {
    words.push_back(channelFields(channel_, vcs));
    words.push_back(controlFields(xbar_, vcs));
    for (int v = 0; v < vcs; ++v)
      words.push_back(bundleFields(xbar_[static_cast<std::size_t>(v)]));
    words.push_back(inputNetFields(inputNets_));
    words.push_back(outputNetFields(outputNets_));
    captured.assign(words.size(), 0);
    injected.assign(words.size(), 0);
  }

  bool describe(sim::Lowering& lw) override {
    const vcarena::ArenaPlacer place{lw};
    refs_.clear();
    refs_.push_back(place(WireTwin::channel(channel_, vcs_)));
    const std::uint32_t block = vcarena::portBlock(place, xbar_.data(), vcs_);
    refs_.push_back(block);
    for (int v = 0; v < vcs_; ++v)
      refs_.push_back(block + 1 + static_cast<std::uint32_t>(v));
    refs_.push_back(place(WireTwin::nets(inputNets_)));
    refs_.push_back(place(WireTwin::nets(outputNets_)));
    // Placing again finds the same words.
    EXPECT_EQ(place(WireTwin::channel(channel_, vcs_)), refs_[0]);
    EXPECT_EQ(place(WireTwin::control(xbar_.data(), vcs_)), refs_[1]);
    lw.op(
        [](std::uint64_t* w, void* self) {
          auto& p = *static_cast<WordProbe*>(self);
          for (std::size_t k = 0; k < p.refs_.size(); ++k) {
            if (p.inject)
              w[p.refs_[k]] = p.injected[k];
            else
              p.captured[k] = w[p.refs_[k]];
          }
        },
        this, {}, {});
    return true;
  }

  // Per word, its named wires.
  std::vector<std::vector<Field>> words;
  bool inject = false;
  std::vector<std::uint64_t> captured;
  std::vector<std::uint64_t> injected;

 private:
  int vcs_;
  ChannelWires channel_;
  std::array<CrossbarWires, kMaxVCs> xbar_;
  InputBlockNets inputNets_;
  OutputBlockNets outputNets_;
  std::vector<std::uint32_t> refs_;
};

class WordViewTest : public ::testing::TestWithParam<int> {};

TEST_P(WordViewTest, TwinDrivenWordsReachTheArenaAndArenaWordsReachTheTwins) {
  const int vcs = GetParam();
  WordProbe probe(vcs);
  sim::Xoshiro256 rng(0xa7e4a + static_cast<std::uint64_t>(vcs));

  // Wires to arena: random values forced on the named wires are the arena
  // words, field by field, once the program binds the wires.
  std::vector<std::uint64_t> forced;
  for (const auto& word : probe.words) {
    std::uint64_t bits = 0;
    for (const Field& f : word) {
      const auto v = static_cast<std::uint32_t>(rng.next() & ones(f.width));
      f.force(v);
      bits |= std::uint64_t{v} << f.shift;
    }
    forced.push_back(bits);
  }
  auto prog = sim::CompiledProgram::build({&probe});
  prog->settle();
  for (std::size_t k = 0; k < probe.words.size(); ++k)
    EXPECT_EQ(probe.captured[k], forced[k]) << "word " << k;

  // Arena to wires: words written in the arena read back through the named
  // wires, and stay in the wires after the program unbinds them.
  probe.inject = true;
  for (std::uint64_t& w : probe.injected) w = rng.next();
  prog->settle();
  const auto expectFields = [&](const char* when) {
    for (std::size_t k = 0; k < probe.words.size(); ++k)
      for (const Field& f : probe.words[k])
        EXPECT_EQ(f.read(), (probe.injected[k] >> f.shift) & ones(f.width))
            << when << ": word " << k << " field at bit " << f.shift;
  };
  expectFields("bound");
  prog->unbindWires();
  expectFields("unbound");
}

INSTANTIATE_TEST_SUITE_P(VcCounts, WordViewTest, ::testing::Values(1, 2, 4),
                         [](const auto& info) {
                           return "Vc" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace rasoc::router
