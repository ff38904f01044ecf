#include "inputs.hpp"

#include <functional>
#include <limits>
#include <queue>
#include <stdexcept>

namespace perfbench {

int Graph::add_node(const std::string& name) {
  names.push_back(name);
  adj.emplace_back();
  return size() - 1;
}

int Graph::add_link(int a, int b, std::uint32_t cost) {
  const int id = static_cast<int>(links.size());
  links.push_back({a, b, cost});
  adj[a].push_back({b, id});
  adj[b].push_back({a, id});
  return id;
}

int Graph::find_link(int a, int b) const {
  for (const auto& [nbr, link] : adj[a]) {
    if (nbr == b) return link;
  }
  return -1;
}

std::string FatTree::prefix_lo(int p) const {
  const int half = k / 2;
  return "10." + std::to_string(p / half) + "." + std::to_string(p % half) + ".0";
}

namespace {

FatTree fat_tree_topology(int k, const std::vector<std::uint32_t>& costs) {
  if (k < 2 || k % 2 != 0 || k > 254) throw std::runtime_error("bad fat tree k");
  FatTree ft;
  ft.k = k;
  const int half = k / 2;
  Graph& g = ft.g;
  for (int pod = 0; pod < k; ++pod) {
    for (int i = 0; i < half; ++i) {
      ft.edges.push_back(g.add_node("edge-" + std::to_string(pod) + "-" + std::to_string(i)));
    }
  }
  for (int pod = 0; pod < k; ++pod) {
    for (int i = 0; i < half; ++i) {
      ft.aggs.push_back(g.add_node("agg-" + std::to_string(pod) + "-" + std::to_string(i)));
    }
  }
  for (int i = 0; i < half * half; ++i) {
    ft.cores.push_back(g.add_node("core-" + std::to_string(i)));
  }
  const auto cost = [&costs, &g]() -> std::uint32_t {
    return costs.empty() ? 10u : costs.at(g.links.size());
  };
  for (int pod = 0; pod < k; ++pod) {
    for (int e = 0; e < half; ++e) {
      for (int a = 0; a < half; ++a) g.add_link(ft.edge_at(pod, e), ft.agg_at(pod, a), cost());
    }
  }
  for (int pod = 0; pod < k; ++pod) {
    for (int a = 0; a < half; ++a) {
      for (int c = 0; c < half; ++c) g.add_link(ft.agg_at(pod, a), ft.cores[a * half + c], cost());
    }
  }
  for (int p = 0; p < k * half; ++p) ft.prefixes.push_back(ft.prefix_lo(p) + "/24");

  for (const int n : ft.edges) ft.body += "node " + g.names[n] + "\n";
  for (const int n : ft.aggs) ft.body += "node " + g.names[n] + "\n";
  for (const int n : ft.cores) ft.body += "node " + g.names[n] + "\n";
  for (const Graph::Link& l : g.links) {
    const std::string c = std::to_string(l.cost);
    ft.body += "link " + g.names[l.a] + " " + g.names[l.b] + " cost " + c + " cost-ba " + c + "\n";
  }
  return ft;
}

/// The splitmix64 finalizer with its increment, as the repository's
/// netbase/hash.hpp defines it; kept here so make_as_net reproduces the
/// Fig. 7d topology without calling into the program.
constexpr std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

}  // namespace

FatTree make_ospf_fat_tree(int k, const std::vector<std::uint32_t>& costs) {
  FatTree ft = fat_tree_topology(k, costs);
  for (int n = 0; n < ft.g.size(); ++n) {
    const std::string& name = ft.g.names[n];
    ft.body += "ospf " + name + " enable\nospf " + name + " no-loopback\n";
    if (n < static_cast<int>(ft.edges.size())) {
      ft.body += "ospf " + name + " originate " + ft.prefixes[n] + "\n";
    }
  }
  return ft;
}

FatTree make_bgp_fat_tree(int k) {
  FatTree ft = fat_tree_topology(k, {});
  for (int n = 0; n < ft.g.size(); ++n) {
    const std::string& name = ft.g.names[n];
    ft.body += "bgp " + name + " asn " + std::to_string(64512 + n) + "\n";
    if (n < static_cast<int>(ft.edges.size())) {
      ft.body += "bgp " + name + " originate " + ft.prefixes[n] + "\n";
    }
  }
  for (const Graph::Link& l : ft.g.links) {
    ft.body += "bgp-session " + ft.g.names[l.a] + " " + ft.g.names[l.b] + " ebgp\n";
  }
  return ft;
}

std::vector<StaticRoute> matching_core_statics(const FatTree& ft) {
  const int half = ft.k / 2;
  std::vector<StaticRoute> out;
  for (int a = 0; a < half; ++a) {
    for (int c = 0; c < half; ++c) {
      for (int p = 0; p < static_cast<int>(ft.prefixes.size()); ++p) {
        out.push_back({ft.cores[a * half + c], p, ft.agg_at(ft.pod_of_prefix(p), a)});
      }
    }
  }
  return out;
}

std::string render_static(const FatTree& ft, const StaticRoute& s) {
  return "static " + ft.g.names[s.node] + " " + ft.prefixes[s.prefix] + " via " +
         ft.g.names[s.via];
}

std::string render_statics(const FatTree& ft, const std::vector<StaticRoute>& s) {
  std::string out;
  for (const StaticRoute& r : s) out += render_static(ft, r) + "\n";
  return out;
}

AsNet make_as_net(const std::string& name, int nodes) {
  if (nodes < 2 || nodes > 65535) throw std::runtime_error("bad AS size");
  AsNet as;
  Graph& g = as.g;
  std::uint64_t state = 0xa5701;
  for (const char c : name) state = mix(state ^ mix(static_cast<std::uint64_t>(c)));
  const auto below = [&state](std::uint32_t n) {
    state += 0x9e3779b97f4a7c15ull;
    return static_cast<int>(mix(state) % n);
  };
  const int bb = std::max(3, nodes / 7);
  as.backbone = bb;
  for (int i = 0; i < nodes; ++i) {
    g.add_node(i < bb ? "bb" + std::to_string(i) : "pop" + std::to_string(i - bb));
    as.loopbacks.push_back("10." + std::to_string(i >> 8) + "." +
                           std::to_string(i & 0xff) + ".1");
  }
  const auto w = [&below] { return static_cast<std::uint32_t>(1 + below(10)); };
  for (int i = 0; i < bb; ++i) g.add_link(i, (i + 1) % bb, w());
  const int chords = std::max(1, bb / 3);
  for (int c = 0; c < chords; ++c) {
    const int a = below(bb);
    int b = below(bb);
    if (a == b) b = (b + 1) % bb;
    if (g.find_link(a, b) < 0 && a != b) g.add_link(a, b, w());
  }
  for (int pop = bb; pop < nodes; ++pop) {
    const int h1 = below(bb);
    g.add_link(pop, h1, w());
    if (below(100) < 80) {
      int h2 = below(bb);
      if (h2 == h1) h2 = (h1 + 1) % bb;
      if (h2 != h1 && g.find_link(pop, h2) < 0) g.add_link(pop, h2, w());
    }
  }
  as.ingress = 0;
  for (int n = bb; n < nodes; ++n) {
    if (g.adj[n].size() > 1) {
      as.ingress = n;
      break;
    }
  }
  return as;
}

std::string render_as(const AsNet& as) {
  const Graph& g = as.g;
  std::string out;
  for (int n = 0; n < g.size(); ++n) {
    out += "node " + g.names[n] + " loopback " + as.loopbacks[n] + "\n";
  }
  for (const Graph::Link& l : g.links) {
    const std::string c = std::to_string(l.cost);
    out += "link " + g.names[l.a] + " " + g.names[l.b] + " cost " + c + " cost-ba " + c + "\n";
  }
  for (int n = 0; n < g.size(); ++n) out += "ospf " + g.names[n] + " enable\n";
  return out;
}

std::vector<std::uint64_t> dist_to(const Graph& g, int dst) {
  constexpr std::uint64_t kInf = std::numeric_limits<std::uint64_t>::max();
  std::vector<std::uint64_t> dist(g.size(), kInf);
  using Item = std::pair<std::uint64_t, int>;
  std::priority_queue<Item, std::vector<Item>, std::greater<>> pq;
  dist[dst] = 0;
  pq.push({0, dst});
  while (!pq.empty()) {
    const auto [d, n] = pq.top();
    pq.pop();
    if (d != dist[n]) continue;
    for (const auto& [nbr, link] : g.adj[n]) {
      const std::uint64_t nd = d + g.links[link].cost;
      if (nd < dist[nbr]) {
        dist[nbr] = nd;
        pq.push({nd, nbr});
      }
    }
  }
  return dist;
}

std::vector<int> ospf_next_hops(const Graph& g, const std::vector<std::uint64_t>& dist,
                                int n) {
  std::vector<int> out;
  if (dist[n] == 0 || dist[n] == std::numeric_limits<std::uint64_t>::max()) return out;
  for (const auto& [nbr, link] : g.adj[n]) {
    if (dist[nbr] + g.links[link].cost == dist[n]) out.push_back(nbr);
  }
  return out;
}

bool has_forwarding_loop(const Graph& g, const std::vector<std::uint64_t>& dist,
                         int origin, const std::vector<StaticRoute>& statics,
                         int prefix) {
  std::vector<std::vector<int>> next(g.size());
  std::vector<std::uint8_t> pinned(g.size(), 0);
  for (const StaticRoute& s : statics) {
    if (s.prefix != prefix || pinned[s.node] != 0 || g.find_link(s.node, s.via) < 0) continue;
    pinned[s.node] = 1;
    next[s.node] = {s.via};
  }
  for (int n = 0; n < g.size(); ++n) {
    if (n == origin) {
      next[n].clear();  // delivered locally
    } else if (pinned[n] == 0) {
      next[n] = ospf_next_hops(g, dist, n);
    }
  }
  // Iterative three-colour DFS over the forwarding graph.
  std::vector<std::uint8_t> colour(g.size(), 0);
  for (int root = 0; root < g.size(); ++root) {
    if (colour[root] != 0) continue;
    std::vector<std::pair<int, std::size_t>> stack{{root, 0}};
    colour[root] = 1;
    while (!stack.empty()) {
      auto& [n, i] = stack.back();
      if (i == next[n].size()) {
        colour[n] = 2;
        stack.pop_back();
        continue;
      }
      const int m = next[n][i++];
      if (colour[m] == 1) return true;
      if (colour[m] == 0) {
        colour[m] = 1;
        stack.push_back({m, 0});
      }
    }
  }
  return false;
}

std::set<int> cut_by_one_link(const Graph& g, int src) {
  std::set<int> cut;
  for (int removed = 0; removed < static_cast<int>(g.links.size()); ++removed) {
    std::vector<std::uint8_t> seen(g.size(), 0);
    std::vector<int> queue{src};
    seen[src] = 1;
    for (std::size_t i = 0; i < queue.size(); ++i) {
      for (const auto& [nbr, link] : g.adj[queue[i]]) {
        if (link == removed || seen[nbr] != 0) continue;
        seen[nbr] = 1;
        queue.push_back(nbr);
      }
    }
    for (int n = 0; n < g.size(); ++n) {
      if (seen[n] == 0) cut.insert(n);
    }
  }
  return cut;
}

}  // namespace perfbench
