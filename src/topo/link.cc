#include "topo/link.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "common/units.h"

namespace mgjoin::topo {

const char* LinkTypeName(LinkType type) {
  switch (type) {
    case LinkType::kNvLink1:
      return "NVLink";
    case LinkType::kNvLink2:
      return "NVLinkx2";
    case LinkType::kPcie3:
      return "PCIe3";
    case LinkType::kQpi:
      return "QPI";
  }
  return "?";
}

double PeakBandwidth(LinkType type) {
  switch (type) {
    case LinkType::kNvLink1:
      return 25.0 * kGBps;
    case LinkType::kNvLink2:
      return 50.0 * kGBps;
    case LinkType::kPcie3:
      return 16.0 * kGBps;
    case LinkType::kQpi:
      return 38.4 * kGBps;  // dual QPI links on DGX-1
  }
  return 0.0;
}

sim::SimTime LinkLatency(LinkType type) {
  switch (type) {
    case LinkType::kNvLink1:
    case LinkType::kNvLink2:
      return 1900 * sim::kNanosecond;  // ~1.9 us measured on V100 P2P
    case LinkType::kPcie3:
      return 5 * sim::kMicrosecond;
    case LinkType::kQpi:
      return 600 * sim::kNanosecond;
  }
  return 0;
}

namespace {

// (size KiB, effective GB/s) samples calibrated to paper Figure 4: ~20x
// degradation at 2 KB, saturation near 12 MB, NVLink ~24 GB/s and PCIe
// ~11.9 GB/s at saturation.
struct CurvePoint {
  double kib;
  double gbps;
};

constexpr CurvePoint kNvLinkCurve[] = {
    {2, 1.2},      {4, 2.3},      {8, 4.2},     {16, 7.0},    {32, 10.5},
    {64, 14.0},    {128, 17.0},   {256, 19.0},  {512, 20.5},  {1024, 21.5},
    {2048, 22.3},  {4096, 23.0},  {8192, 23.6}, {12288, 24.0},
    {16384, 24.1},
};

constexpr CurvePoint kPcieCurve[] = {
    {2, 0.55},     {4, 1.0},      {8, 1.8},     {16, 3.0},    {32, 4.4},
    {64, 5.8},     {128, 7.4},    {256, 8.7},   {512, 9.7},   {1024, 10.4},
    {2048, 10.9},  {4096, 11.3},  {8192, 11.6}, {12288, 11.8},
    {16384, 11.9},
};

constexpr CurvePoint kQpiCurve[] = {
    {2, 1.5},      {4, 2.9},      {8, 5.3},     {16, 8.7},    {32, 12.9},
    {64, 17.3},    {128, 20.9},   {256, 23.6},  {512, 25.5},  {1024, 26.9},
    {2048, 27.8},  {4096, 28.4},  {8192, 28.8}, {12288, 29.1},
    {16384, 29.3},
};

double Interpolate(const CurvePoint* curve, std::size_t n, double kib) {
  if (kib <= curve[0].kib) return curve[0].gbps;
  if (kib >= curve[n - 1].kib) return curve[n - 1].gbps;
  for (std::size_t i = 1; i < n; ++i) {
    if (kib <= curve[i].kib) {
      // Log-linear interpolation in transfer size.
      const double x0 = std::log2(curve[i - 1].kib);
      const double x1 = std::log2(curve[i].kib);
      const double t = (std::log2(kib) - x0) / (x1 - x0);
      return curve[i - 1].gbps + t * (curve[i].gbps - curve[i - 1].gbps);
    }
  }
  return curve[n - 1].gbps;
}

}  // namespace

double EffectiveBandwidth(LinkType type, std::uint64_t bytes) {
  const double kib = static_cast<double>(bytes) / 1024.0;
  switch (type) {
    case LinkType::kNvLink1:
      return Interpolate(kNvLinkCurve, std::size(kNvLinkCurve), kib) * kGBps;
    case LinkType::kNvLink2:
      // Packets are striped over both bricks; each brick sees half the
      // transfer and the bricks run in parallel.
      return 2.0 *
             Interpolate(kNvLinkCurve, std::size(kNvLinkCurve), kib / 2.0) *
             kGBps;
    case LinkType::kPcie3:
      return Interpolate(kPcieCurve, std::size(kPcieCurve), kib) * kGBps;
    case LinkType::kQpi:
      return Interpolate(kQpiCurve, std::size(kQpiCurve), kib) * kGBps;
  }
  return 0.0;
}

std::string Link::ToString() const {
  std::string out = LinkTypeName(type);
  out += "(" + std::to_string(node_a) + "<->" + std::to_string(node_b) + ")";
  return out;
}

const char* LinkHealthName(LinkHealth health) {
  switch (health) {
    case LinkHealth::kUp:
      return "up";
    case LinkHealth::kDegraded:
      return "degraded";
    case LinkHealth::kDown:
      return "down";
  }
  return "?";
}

void LinkAvailabilityView::Reset(int num_links) {
  states_.assign(static_cast<std::size_t>(num_links), State{});
  down_links_ = 0;
}

void LinkAvailabilityView::SetHealth(int link_id, LinkHealth health,
                                     double factor) {
  MGJ_CHECK(link_id >= 0 &&
            link_id < static_cast<int>(states_.size()))
      << "bad link id " << link_id;
  State& st = states_[static_cast<std::size_t>(link_id)];
  if (st.health == LinkHealth::kDown) --down_links_;
  st.health = health;
  if (health == LinkHealth::kDegraded) {
    MGJ_CHECK(factor > 0.0 && factor <= 1.0)
        << "degrade factor " << factor << " outside (0, 1]";
    st.factor = factor;
  } else {
    st.factor = health == LinkHealth::kDown ? 0.0 : 1.0;
  }
  if (health == LinkHealth::kDown) ++down_links_;
}

double LinkAvailabilityView::Factor(int link_id) const {
  return states_.empty()
             ? 1.0
             : states_[static_cast<std::size_t>(link_id)].factor;
}

}  // namespace mgjoin::topo
