// Inputs of the benchmark and the independent computations its verdicts are
// checked against.
//
// Every network is built here as a plain graph and rendered to the
// verifier's config text; the program under test only ever sees that text
// (and, for the serve workload, line deltas against it). The checks below
// walk the same graph with their own shortest paths, BFS and topology rules,
// sharing no code with the verifier.
#pragma once

#include <cstdint>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "common.hpp"

namespace perfbench {

/// A network as the benchmark models it: nodes, symmetric weighted links,
/// per-node originated /24s or loopback /32s, and static routes.
struct Graph {
  struct Link {
    int a = 0;
    int b = 0;
    std::uint32_t cost = 10;
  };
  std::vector<std::string> names;
  std::vector<Link> links;
  std::vector<std::vector<std::pair<int, int>>> adj;  ///< (neighbour, link)

  int add_node(const std::string& name);
  int add_link(int a, int b, std::uint32_t cost);
  [[nodiscard]] int find_link(int a, int b) const;  ///< -1 when absent
  [[nodiscard]] int size() const { return static_cast<int>(names.size()); }
};

/// `static <node> <prefix> via <via>`.
struct StaticRoute {
  int node = 0;
  int prefix = 0;  ///< index into the network's prefix list
  int via = 0;
  bool operator<(const StaticRoute& o) const {
    return std::tie(prefix, node, via) < std::tie(o.prefix, o.node, o.via);
  }
  bool operator==(const StaticRoute& o) const = default;
};

/// A k-ary fat tree (k pods of k/2 edge and k/2 aggregation switches,
/// (k/2)^2 cores; every edge switch originates one /24).
struct FatTree {
  int k = 0;
  Graph g;
  std::vector<int> edges, aggs, cores;  ///< pod-major order
  std::vector<std::string> prefixes;    ///< prefixes[i] is originated by edges[i]
  /// Protocol section of the config (nodes, links, OSPF or eBGP); statics are
  /// rendered after it by render_statics.
  std::string body;

  [[nodiscard]] int edge_at(int pod, int i) const { return edges[pod * (k / 2) + i]; }
  [[nodiscard]] int agg_at(int pod, int i) const { return aggs[pod * (k / 2) + i]; }
  [[nodiscard]] int pod_of_prefix(int p) const { return p / (k / 2); }
  /// First address of prefix p ("10.P.E.0").
  [[nodiscard]] std::string prefix_lo(int p) const;
};

/// OSPF fat tree; `costs` (one per link, in link order) or 10 everywhere.
FatTree make_ospf_fat_tree(int k, const std::vector<std::uint32_t>& costs = {});
/// RFC 7938 eBGP fat tree: every link an eBGP session, one ASN per device.
FatTree make_bgp_fat_tree(int k);

/// The statics a matching core configuration installs: core c of row a
/// reaches pod P's prefixes through agg_at(P, a), the OSPF next hop.
std::vector<StaticRoute> matching_core_statics(const FatTree& ft);

std::string render_static(const FatTree& ft, const StaticRoute& s);
std::string render_statics(const FatTree& ft, const std::vector<StaticRoute>& s);

/// RocketFuel-sized synthetic AS (backbone ring with chords plus mostly
/// dual-homed PoPs, OSPF weights 1..10, every router advertising its
/// loopback /32). Same construction as the repository's Fig. 7d topology.
struct AsNet {
  Graph g;
  int backbone = 0;
  std::vector<std::string> loopbacks;  ///< dotted loopback of node i
  int ingress = 0;                     ///< first PoP with more than one link
};
AsNet make_as_net(const std::string& name, int nodes);
std::string render_as(const AsNet& as);

// -- independent computations ----------------------------------------------

/// Shortest-path distances to `dst` (links are symmetric).
std::vector<std::uint64_t> dist_to(const Graph& g, int dst);

/// OSPF ECMP next hops of `n` towards the node whose distances are `dist`.
std::vector<int> ospf_next_hops(const Graph& g, const std::vector<std::uint64_t>& dist,
                                int n);

/// Walks forwarding for one prefix originated at `origin` over every ECMP
/// branch from every node: a node with a static for the prefix forwards to
/// its first static's neighbour, any other node to its OSPF next hops.
/// True when some branch revisits a node (a forwarding loop).
bool has_forwarding_loop(const Graph& g, const std::vector<std::uint64_t>& dist,
                         int origin, const std::vector<StaticRoute>& statics,
                         int prefix);

/// Nodes that some single link removal disconnects from `src` (one BFS per
/// removed link).
std::set<int> cut_by_one_link(const Graph& g, int src);

}  // namespace perfbench
