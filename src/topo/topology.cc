#include "topo/topology.h"

#include <algorithm>
#include <cstring>
#include <deque>
#include <limits>

#include "common/logging.h"
#include "common/units.h"

namespace mgjoin::topo {

std::string Route::ToString() const {
  std::string out;
  for (std::size_t i = 0; i < gpus.size(); ++i) {
    if (i) out += "->";
    out += std::to_string(gpus[i]);
  }
  return out;
}

int Topology::AddNode(NodeType type, int socket, std::string name) {
  MGJ_CHECK(!finalized_) << "AddNode after Finalize";
  const int id = static_cast<int>(nodes_.size());
  Node n;
  n.id = id;
  n.type = type;
  n.socket = socket;
  n.name = std::move(name);
  if (type == NodeType::kGpu) {
    n.gpu_index = static_cast<int>(gpu_nodes_.size());
    gpu_nodes_.push_back(id);
  }
  nodes_.push_back(std::move(n));
  return id;
}

int Topology::AddLink(int a, int b, LinkType type) {
  MGJ_CHECK(!finalized_) << "AddLink after Finalize";
  MGJ_CHECK(a >= 0 && a < num_nodes() && b >= 0 && b < num_nodes() && a != b)
      << "bad link endpoints " << a << "," << b;
  const int id = static_cast<int>(links_.size());
  links_.push_back(Link{id, a, b, type});
  return id;
}

Status Topology::Finalize() {
  if (finalized_) return Status::Internal("Finalize called twice");
  if (gpu_nodes_.empty()) {
    return Status::InvalidArgument("topology has no GPUs");
  }
  adjacency_.assign(nodes_.size(), {});
  for (const Link& l : links_) {
    adjacency_[l.node_a].push_back(l.id);
    adjacency_[l.node_b].push_back(l.id);
  }
  // NVLink GPU-GPU adjacency at gpu_index granularity.
  nvlink_adj_.assign(gpu_nodes_.size(), {});
  for (const Link& l : links_) {
    if (l.type != LinkType::kNvLink1 && l.type != LinkType::kNvLink2)
      continue;
    const Node& na = nodes_[l.node_a];
    const Node& nb = nodes_[l.node_b];
    if (na.type == NodeType::kGpu && nb.type == NodeType::kGpu) {
      nvlink_adj_[na.gpu_index].push_back(nb.gpu_index);
      nvlink_adj_[nb.gpu_index].push_back(na.gpu_index);
    }
  }
  for (auto& adj : nvlink_adj_) std::sort(adj.begin(), adj.end());

  finalized_ = true;
  const int g = num_gpus();
  channels_.resize(static_cast<std::size_t>(g) * g);
  for (int s = 0; s < g; ++s) {
    for (int d = 0; d < g; ++d) {
      if (s == d) continue;
      BuildChannel(s, d);
      if (channels_[static_cast<std::size_t>(s) * g + d].path.empty()) {
        finalized_ = false;
        return Status::InvalidArgument("GPUs " + std::to_string(s) + " and " +
                                       std::to_string(d) +
                                       " are not connected");
      }
    }
  }
  return Status::OK();
}

bool Topology::HasNvLink(int src_gpu, int dst_gpu) const {
  const auto& adj = nvlink_adj_[src_gpu];
  return std::binary_search(adj.begin(), adj.end(), dst_gpu);
}

namespace {

// Parses the integer suffix of specs like "qpi0"; -1 on malformed.
int ParseIndexSuffix(const std::string& spec, std::size_t prefix_len) {
  if (spec.size() <= prefix_len) return -1;
  int n = 0;
  for (std::size_t i = prefix_len; i < spec.size(); ++i) {
    if (spec[i] < '0' || spec[i] > '9') return -1;
    n = n * 10 + (spec[i] - '0');
  }
  return n;
}

}  // namespace

Result<int> Topology::ResolveLinkSpec(const std::string& spec) const {
  MGJ_CHECK(finalized_);
  // gpuA-gpuB: the direct GPU-GPU link.
  if (spec.rfind("gpu", 0) == 0) {
    const auto dash = spec.find('-');
    if (dash == std::string::npos || spec.rfind("gpu", dash + 1) != dash + 1) {
      return Status::InvalidArgument("bad GPU-pair link spec: " + spec);
    }
    const int a = ParseIndexSuffix(spec.substr(0, dash), 3);
    const int b = ParseIndexSuffix(spec, dash + 4);
    if (a < 0 || b < 0 || a >= num_gpus() || b >= num_gpus() || a == b) {
      return Status::InvalidArgument("bad GPU pair in link spec: " + spec);
    }
    for (const Link& l : links_) {
      if ((l.node_a == gpu_nodes_[a] && l.node_b == gpu_nodes_[b]) ||
          (l.node_a == gpu_nodes_[b] && l.node_b == gpu_nodes_[a])) {
        return l.id;
      }
    }
    return Status::NotFound("no direct link between gpu" +
                            std::to_string(a) + " and gpu" +
                            std::to_string(b));
  }
  // linkN: raw link id.
  if (spec.rfind("link", 0) == 0) {
    const int id = ParseIndexSuffix(spec, 4);
    if (id < 0 || id >= num_links()) {
      return Status::InvalidArgument("bad link id in spec: " + spec);
    }
    return id;
  }
  // nvlinkN / pcieN / qpiN: Nth link of that type in id order.
  const auto nth_of_type = [this](bool (*match)(LinkType),
                                  int n) -> int {
    for (const Link& l : links_) {
      if (!match(l.type)) continue;
      if (n-- == 0) return l.id;
    }
    return -1;
  };
  struct TypeSpec {
    const char* prefix;
    bool (*match)(LinkType);
  };
  static constexpr TypeSpec kTypeSpecs[] = {
      {"nvlink",
       [](LinkType t) {
         return t == LinkType::kNvLink1 || t == LinkType::kNvLink2;
       }},
      {"pcie", [](LinkType t) { return t == LinkType::kPcie3; }},
      {"qpi", [](LinkType t) { return t == LinkType::kQpi; }},
  };
  for (const TypeSpec& ts : kTypeSpecs) {
    if (spec.rfind(ts.prefix, 0) != 0) continue;
    const int n = ParseIndexSuffix(spec, std::strlen(ts.prefix));
    if (n < 0) break;  // maybe an exact name; fall through
    const int id = nth_of_type(ts.match, n);
    if (id < 0) {
      return Status::NotFound("fewer than " + std::to_string(n + 1) + " " +
                              ts.prefix + " links in this topology");
    }
    return id;
  }
  // Exact Link::ToString() match.
  for (const Link& l : links_) {
    if (l.ToString() == spec) return l.id;
  }
  return Status::NotFound("unknown link spec: " + spec);
}

const Channel& Topology::channel(int src_gpu, int dst_gpu) const {
  MGJ_CHECK(finalized_);
  MGJ_CHECK(src_gpu != dst_gpu) << "no channel to self";
  return channels_[static_cast<std::size_t>(src_gpu) * num_gpus() + dst_gpu];
}

void Topology::BuildChannel(int src_gpu, int dst_gpu) {
  Channel ch;
  ch.src_gpu = src_gpu;
  ch.dst_gpu = dst_gpu;
  const int src_node = gpu_nodes_[src_gpu];
  const int dst_node = gpu_nodes_[dst_gpu];

  // Prefer a dedicated NVLink link; when both NV1 and NV2 exist (never
  // the case on real hardware) pick the faster one.
  int best_link = -1;
  for (int lid : adjacency_[src_node]) {
    const Link& l = links_[lid];
    if (l.OtherEnd(src_node) != dst_node) continue;
    if (l.type != LinkType::kNvLink1 && l.type != LinkType::kNvLink2)
      continue;
    if (best_link < 0 || l.bandwidth() > links_[best_link].bandwidth())
      best_link = lid;
  }
  if (best_link >= 0) {
    const Link& l = links_[best_link];
    ch.path.push_back(LinkDir{best_link, l.node_a == src_node ? 0 : 1});
    channels_[static_cast<std::size_t>(src_gpu) * num_gpus() + dst_gpu] =
        std::move(ch);
    return;
  }

  // Otherwise: BFS over the non-NVLink (PCIe/QPI) subgraph — the staged
  // host-memory path.
  std::vector<int> prev_link(nodes_.size(), -1);
  std::vector<bool> seen(nodes_.size(), false);
  std::deque<int> queue;
  seen[src_node] = true;
  queue.push_back(src_node);
  while (!queue.empty()) {
    const int u = queue.front();
    queue.pop_front();
    if (u == dst_node) break;
    // Intermediate vertices must not be GPUs: the staged path goes
    // switch/CPU only.
    if (u != src_node && nodes_[u].type == NodeType::kGpu) continue;
    for (int lid : adjacency_[u]) {
      const Link& l = links_[lid];
      if (l.type == LinkType::kNvLink1 || l.type == LinkType::kNvLink2)
        continue;
      const int v = l.OtherEnd(u);
      if (seen[v]) continue;
      seen[v] = true;
      prev_link[v] = lid;
      queue.push_back(v);
    }
  }
  if (!seen[dst_node]) return;  // caller reports the error

  // Walk back from dst to src.
  std::vector<LinkDir> rev;
  int cur = dst_node;
  while (cur != src_node) {
    const int lid = prev_link[cur];
    const Link& l = links_[lid];
    const int from = l.OtherEnd(cur);
    rev.push_back(LinkDir{lid, l.node_a == from ? 0 : 1});
    if (nodes_[cur].type == NodeType::kCpu) ++ch.cpu_hops;
    cur = from;
  }
  std::reverse(rev.begin(), rev.end());
  ch.path = std::move(rev);
  ch.staged = true;
  channels_[static_cast<std::size_t>(src_gpu) * num_gpus() + dst_gpu] =
      std::move(ch);
}

double Topology::ChannelEffectiveBandwidth(const Channel& ch,
                                           std::uint64_t bytes) const {
  double bw = std::numeric_limits<double>::infinity();
  for (const LinkDir& ld : ch.path) {
    bw = std::min(bw, links_[ld.link_id].effective_bandwidth(bytes));
  }
  if (ch.staged) bw *= kStagingEfficiency;
  return bw;
}

sim::SimTime Topology::ChannelLatency(const Channel& ch) const {
  sim::SimTime lat = 0;
  for (const LinkDir& ld : ch.path) lat += links_[ld.link_id].latency();
  lat += static_cast<sim::SimTime>(ch.cpu_hops) * kStagingLatency;
  return lat;
}

double Topology::RouteBottleneckBandwidth(const Route& r,
                                          std::uint64_t bytes) const {
  double bw = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i + 1 < r.gpus.size(); ++i) {
    bw = std::min(
        bw, ChannelEffectiveBandwidth(channel(r.gpus[i], r.gpus[i + 1]),
                                      bytes));
  }
  return bw;
}

sim::SimTime Topology::RouteLatency(const Route& r) const {
  sim::SimTime lat = 0;
  for (std::size_t i = 0; i + 1 < r.gpus.size(); ++i) {
    lat += ChannelLatency(channel(r.gpus[i], r.gpus[i + 1]));
  }
  return lat;
}

std::vector<Route> Topology::EnumerateRoutes(int src_gpu, int dst_gpu,
                                             int max_intermediates) const {
  MGJ_CHECK(finalized_);
  MGJ_CHECK(src_gpu != dst_gpu);
  std::vector<Route> routes;
  // Direct channel (NVLink or staged) is always a candidate.
  routes.push_back(Route{{src_gpu, dst_gpu}});

  // DFS over NVLink channels for multi-hop candidates.
  std::vector<int> path{src_gpu};
  std::vector<bool> on_path(num_gpus(), false);
  on_path[src_gpu] = true;
  auto dfs = [&](auto&& self, int u) -> void {
    for (int v : nvlink_adj_[u]) {
      if (on_path[v]) continue;
      if (v == dst_gpu) {
        if (path.size() >= 2) {  // at least one intermediate
          Route r;
          r.gpus = path;
          r.gpus.push_back(dst_gpu);
          routes.push_back(std::move(r));
        }
        continue;
      }
      if (static_cast<int>(path.size()) - 1 >= max_intermediates) continue;
      on_path[v] = true;
      path.push_back(v);
      self(self, v);
      path.pop_back();
      on_path[v] = false;
    }
  };
  // Only start multi-hop routes over NVLink from the source as well; if
  // src has no NVLink at all, the direct staged route is the only option.
  dfs(dfs, src_gpu);

  // Direct NVLink route may have been added twice (once as the direct
  // channel and once by DFS termination is impossible: DFS requires at
  // least one intermediate). Sort deterministically.
  std::sort(routes.begin(), routes.end(), [](const Route& a, const Route& b) {
    if (a.gpus.size() != b.gpus.size()) return a.gpus.size() < b.gpus.size();
    return a.gpus < b.gpus;
  });
  routes.erase(std::unique(routes.begin(), routes.end()), routes.end());
  return routes;
}

double Topology::MaxFlowBetween(const std::vector<int>& side_a,
                                const std::vector<int>& side_b,
                                std::vector<bool>* crossing) const {
  // Edmonds-Karp on a small adjacency-matrix network. Node ids are fabric
  // nodes plus a super source (n) and super sink (n+1).
  const int n = num_nodes();
  const int src = n;
  const int dst = n + 1;
  const int total = n + 2;
  // Non-participating GPUs may not relay traffic: the sub-fabric's
  // bisection only counts links reachable through participants, switches
  // and CPUs.
  std::vector<bool> usable(n, true);
  for (int v = 0; v < n; ++v) {
    usable[v] = nodes_[v].type != NodeType::kGpu;
  }
  for (int g : side_a) usable[gpu_nodes_[g]] = true;
  for (int g : side_b) usable[gpu_nodes_[g]] = true;

  std::vector<std::vector<double>> cap(total, std::vector<double>(total, 0));
  for (const Link& l : links_) {
    if (!usable[l.node_a] || !usable[l.node_b]) continue;
    cap[l.node_a][l.node_b] += l.bandwidth();
    cap[l.node_b][l.node_a] += l.bandwidth();
  }
  const double kInf = 1e30;
  for (int g : side_a) cap[src][gpu_nodes_[g]] = kInf;
  for (int g : side_b) cap[gpu_nodes_[g]][dst] = kInf;

  double flow = 0;
  for (;;) {
    std::vector<int> parent(total, -1);
    parent[src] = src;
    std::deque<int> queue{src};
    while (!queue.empty() && parent[dst] < 0) {
      const int u = queue.front();
      queue.pop_front();
      for (int v = 0; v < total; ++v) {
        if (parent[v] < 0 && cap[u][v] > 1e-9) {
          parent[v] = u;
          queue.push_back(v);
        }
      }
    }
    if (parent[dst] < 0) break;
    double aug = kInf;
    for (int v = dst; v != src; v = parent[v]) {
      aug = std::min(aug, cap[parent[v]][v]);
    }
    for (int v = dst; v != src; v = parent[v]) {
      cap[parent[v]][v] -= aug;
      cap[v][parent[v]] += aug;
    }
    flow += aug;
  }
  if (crossing != nullptr) {
    // Residual reachability from the super source identifies the min-cut
    // sides; a link crosses if its endpoints fall on different sides.
    std::vector<bool> reach(total, false);
    reach[src] = true;
    std::deque<int> queue{src};
    while (!queue.empty()) {
      const int u = queue.front();
      queue.pop_front();
      for (int v = 0; v < total; ++v) {
        if (!reach[v] && cap[u][v] > 1e-9) {
          reach[v] = true;
          queue.push_back(v);
        }
      }
    }
    crossing->assign(links_.size(), false);
    for (const Link& l : links_) {
      (*crossing)[l.id] = (reach[l.node_a] != reach[l.node_b]);
    }
  }
  return flow;
}

Topology::BisectionCut Topology::MinBisectionCut(
    const std::vector<int>& gpus) const {
  MGJ_CHECK(finalized_);
  BisectionCut result;
  result.link_crossing.assign(links_.size(), false);
  const int n = static_cast<int>(gpus.size());
  if (n < 2) return result;
  const int half = (n + 1) / 2;

  double best = std::numeric_limits<double>::infinity();
  // Enumerate subsets of size `half`. For even n, fix gpus[0] on side A
  // to skip mirrored duplicates.
  std::vector<int> idx(half);
  for (int i = 0; i < half; ++i) idx[i] = i;
  for (;;) {
    const bool fixed_first = (n % 2 == 0);
    if (!fixed_first || idx[0] == 0) {
      std::vector<int> a, b;
      std::vector<bool> in_a(n, false);
      for (int i : idx) in_a[i] = true;
      for (int i = 0; i < n; ++i) {
        (in_a[i] ? a : b).push_back(gpus[i]);
      }
      // Capacity in both directions; the fabric is symmetric so this is
      // twice the one-way max-flow.
      std::vector<bool> crossing;
      const double cut = 2.0 * MaxFlowBetween(a, b, &crossing);
      if (cut < best) {
        best = cut;
        result.link_crossing = std::move(crossing);
      }
    }
    // Next combination.
    int i = half - 1;
    while (i >= 0 && idx[i] == n - half + i) --i;
    if (i < 0) break;
    ++idx[i];
    for (int j = i + 1; j < half; ++j) idx[j] = idx[j - 1] + 1;
  }
  result.bandwidth = best;
  return result;
}

double Topology::BisectionBandwidth(const std::vector<int>& gpus) const {
  return MinBisectionCut(gpus).bandwidth;
}

std::string Topology::ToString() const {
  std::string out = "Topology{gpus=" + std::to_string(num_gpus()) +
                    ", nodes=" + std::to_string(num_nodes()) +
                    ", links=" + std::to_string(num_links()) + "}\n";
  for (const Link& l : links_) {
    out += "  " + nodes_[l.node_a].name + " <-> " + nodes_[l.node_b].name +
           " : " + LinkTypeName(l.type) + " " +
           FormatBandwidth(l.bandwidth()) + "\n";
  }
  return out;
}

}  // namespace mgjoin::topo
