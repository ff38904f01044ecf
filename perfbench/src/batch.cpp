// The three batch workloads: whole-network verification through the
// library, from config text to verdict, as plankton_verify performs it.
//
// A run repeats three operations: a read (the unchanged network, config text
// to verdict), a change (the network with one seeded edit, text to verdict)
// and a query (the policy asked of the unchanged network held in a
// constructed Verifier, without parse or set-up). The batch verifier keeps no
// state between runs, so a change costs a full run, which is the baseline an
// incremental checker has to beat.
#include <sys/wait.h>
#include <unistd.h>

#include <cstdlib>
#include <functional>
#include <memory>
#include <optional>
#include <set>
#include <stdexcept>

#include "common.hpp"
#include "config/parser.hpp"
#include "core/verifier.hpp"
#include "eqclass/pec_dedup.hpp"
#include "inputs.hpp"

namespace perfbench {
namespace {

using plankton::BudgetKind;
using plankton::NodeId;
using plankton::Verdict;

/// The verdict the independent computation predicts for one operation.
struct Expect {
  Verdict verdict = Verdict::kHolds;
  /// First addresses of the PECs that must be the violating ones (all of
  /// them when the run collects every violation, a superset otherwise).
  std::set<std::string> violating;
  bool all_violations = false;
};

struct Op {
  bool change = false;
  /// Whether the change's latency is reported. A workload whose stream mixes
  /// kinds of change reports one kind, so the figure does not depend on the
  /// mix; the others are verified and checked all the same.
  bool timed = true;
  std::string text;
  Expect expect;
};

/// One batch workload: its base network, options, policy, and the seeded
/// change stream.
struct BatchCase {
  plankton::VerifyOptions opts;
  std::string base_text;
  Expect base_expect;
  std::function<std::unique_ptr<plankton::Policy>(const plankton::Network&)> policy;
  std::optional<plankton::IpAddr> address;  ///< verify_address target, or all PECs
  /// Builds change number i of the stream (deterministic in the seed).
  std::function<Op(std::uint64_t i)> change;
};

NodeId device(const plankton::Network& net, const std::string& name) {
  const auto id = net.find_device(name);
  if (!id) throw std::runtime_error("unknown device " + name);
  return *id;
}

// ---------------------------------------------------------------------------
// verify-fattree-loop: K=20 OSPF fat tree, matching core statics, loop
// freedom on every PEC. Changes alternate a benign aggregation static that
// copies the OSPF next hop and a core static deflected to the wrong pod; the
// benign ones are timed.
// ---------------------------------------------------------------------------
BatchCase fattree_loop_case(std::uint64_t seed, RunRecord& rec) {
  auto ft = std::make_shared<FatTree>(make_ospf_fat_tree(20));
  auto statics = std::make_shared<std::vector<StaticRoute>>(matching_core_statics(*ft));
  const int n_prefixes = static_cast<int>(ft->prefixes.size());
  auto dists = std::make_shared<std::vector<std::vector<std::uint64_t>>>();
  for (int p = 0; p < n_prefixes; ++p) dists->push_back(dist_to(ft->g, ft->edges[p]));
  for (int p = 0; p < n_prefixes; ++p) {
    if (has_forwarding_loop(ft->g, (*dists)[p], ft->edges[p], *statics, p)) {
      rec.fail("fattree-loop base network is not loop-free by the forwarding walk", true);
    }
  }

  BatchCase c;
  c.opts.cores = 4;
  c.base_text = ft->body + render_statics(*ft, *statics);
  c.policy = [](const plankton::Network&) {
    return std::make_unique<plankton::LoopFreedomPolicy>();
  };
  c.change = [ft, statics, dists, seed, &rec](std::uint64_t i) {
    Rng rng(seed * 0x100000001b3ull + i);
    const int half = ft->k / 2;
    const int p = static_cast<int>(rng.below(static_cast<std::uint32_t>(ft->prefixes.size())));
    const int pod = ft->pod_of_prefix(p);
    std::vector<StaticRoute> edited = *statics;
    if (i % 2 == 0) {
      // Benign: an aggregation switch of the prefix's pod pins the edge.
      edited.push_back({ft->agg_at(pod, static_cast<int>(rng.below(half))), p, ft->edges[p]});
    } else {
      // Broken: one core of row a deflects the prefix to row a's agg of the
      // next pod, whose OSPF paths climb back through that row.
      const int a = static_cast<int>(rng.below(half));
      const int core = ft->cores[a * half + static_cast<int>(rng.below(half))];
      for (StaticRoute& s : edited) {
        if (s.node == core && s.prefix == p) s.via = ft->agg_at((pod + 1) % ft->k, a);
      }
    }
    Op op;
    op.change = true;
    op.timed = i % 2 == 0;
    op.text = ft->body + render_statics(*ft, edited);
    if (has_forwarding_loop(ft->g, (*dists)[p], ft->edges[p], edited, p)) {
      op.expect.verdict = Verdict::kViolated;
      op.expect.violating = {ft->prefix_lo(p)};
    }
    if ((op.expect.verdict == Verdict::kViolated) != (i % 2 == 1)) {
      rec.fail("fattree-loop change generator disagrees with the forwarding walk", true);
    }
    return op;
  };
  return c;
}

// ---------------------------------------------------------------------------
// verify-as-failures: AS3967-sized topology, reachability from the first
// multi-homed PoP to every loopback under at most one link failure, every
// violation collected. Changes re-weight one link; reachability under
// failures does not depend on weights, so the violating set stays the one
// the per-link BFS finds.
// ---------------------------------------------------------------------------
BatchCase as_failures_case(std::uint64_t seed) {
  auto as = std::make_shared<AsNet>(make_as_net("AS3967", 79));
  Expect expect;
  expect.verdict = Verdict::kViolated;
  expect.all_violations = true;
  for (const int n : cut_by_one_link(as->g, as->ingress)) expect.violating.insert(as->loopbacks[n]);
  if (expect.violating.empty()) expect.verdict = Verdict::kHolds;

  BatchCase c;
  c.opts.cores = 4;
  c.opts.explore.max_failures = 1;
  c.opts.explore.find_all_violations = true;
  c.base_text = render_as(*as);
  c.base_expect = expect;
  const std::string ingress = as->g.names[as->ingress];
  c.policy = [ingress](const plankton::Network& net) {
    return std::make_unique<plankton::ReachabilityPolicy>(
        std::vector<NodeId>{device(net, ingress)});
  };
  c.change = [as, expect, seed](std::uint64_t i) {
    Rng rng(seed * 0x100000001b3ull + i);
    AsNet edited = *as;
    Graph::Link& l = edited.g.links[rng.below(static_cast<std::uint32_t>(edited.g.links.size()))];
    l.cost = 1 + (l.cost + rng.below(9)) % 10;  // any other weight in 1..10
    Op op;
    op.change = true;
    op.text = render_as(edited);
    op.expect = expect;
    return op;
  };
  return c;
}

// ---------------------------------------------------------------------------
// verify-bgp-dpor: RFC 7938 eBGP fat tree K=4, waypoint from the last edge
// switch through any aggregation switch, on the PEC of the first edge
// prefix, with deterministic-node detection and equivalence suppression off
// so DPOR carries the search. Changes pin one core's route to the checked
// prefix with a static that copies its BGP next hop, so the checked PEC's
// search changes while the policy still holds.
// ---------------------------------------------------------------------------
BatchCase bgp_dpor_case(std::uint64_t seed, RunRecord& rec) {
  auto ft = std::make_shared<FatTree>(make_bgp_fat_tree(4));
  const int src = ft->edges.back();
  // Every neighbour of the source is an aggregation switch, so every path
  // out of it crosses a waypoint: the policy holds by construction.
  for (const auto& [nbr, link] : ft->g.adj[src]) {
    if (std::find(ft->aggs.begin(), ft->aggs.end(), nbr) == ft->aggs.end()) {
      rec.fail("bgp-dpor source has a non-aggregation neighbour", true);
    }
  }

  BatchCase c;
  c.opts.cores = 4;
  c.opts.explore.det_nodes_bgp = false;
  c.opts.explore.suppress_equivalent = false;
  c.base_text = ft->body;
  c.address = plankton::IpAddr::parse(ft->prefix_lo(0));
  std::vector<std::string> aggs;
  for (const int a : ft->aggs) aggs.push_back(ft->g.names[a]);
  const std::string src_name = ft->g.names[src];
  c.policy = [src_name, aggs](const plankton::Network& net) {
    std::vector<NodeId> wps;
    for (const std::string& a : aggs) wps.push_back(device(net, a));
    return std::make_unique<plankton::WaypointPolicy>(
        std::vector<NodeId>{device(net, src_name)}, std::move(wps));
  };
  c.change = [ft, seed](std::uint64_t i) {
    Rng rng(seed * 0x100000001b3ull + i);
    const int half = ft->k / 2;
    const StaticRoute s{ft->agg_at(ft->pod_of_prefix(0), static_cast<int>(rng.below(half))), 0,
                        ft->edges[0]};
    Op op;
    op.change = true;
    op.text = ft->body + render_static(*ft, s) + "\n";
    return op;
  };
  return c;
}

/// Outcome of one verification from text.
struct OpResult {
  double wall_ms = 0;
  double config_ms = 0, setup_ms = 0, verify_ms = 0;  ///< traced ops only
  plankton::VerifyResult result;
  std::vector<std::string> violating_lo;  ///< first address of violating PECs
};

std::vector<std::string> violating_los(const plankton::VerifyResult& v,
                                       const plankton::PecSet& pecs) {
  std::vector<std::string> out;
  for (const auto& rep : v.reports) {
    if (!rep.result.violations.empty()) out.push_back(pecs.pecs[rep.pec].lo.str());
  }
  return out;
}

/// Config text -> verdict, the way plankton_verify does it. Spans are
/// recorded only when the tracer is on.
OpResult verify_text(const BatchCase& c, const Op& op, Tracer& tr, std::uint64_t op_id) {
  OpResult out;
  const std::string& text = op.text;
  const auto t0 = Clock::now();
  Scope root(tr, op.change ? "change" : "read", 0, op_id);
  Scope cfg(tr, "config", root.id(), op_id);
  plankton::ParsedNetwork parsed = plankton::parse_network_config(text);
  const auto problems = parsed.net.validate();
  if (!problems.empty()) throw std::runtime_error("invalid network: " + problems.front());
  const std::unique_ptr<plankton::Policy> policy = c.policy(parsed.net);
  out.config_ms = cfg.stop();
  Scope setup(tr, "core.setup", root.id(), op_id);
  plankton::Verifier verifier(parsed.net, c.opts);
  out.setup_ms = setup.stop();
  Scope ver(tr, "core.verify", root.id(), op_id);
  out.result = c.address ? verifier.verify_address(*c.address, *policy)
                         : verifier.verify(*policy);
  out.verify_ms = ver.stop();
  root.stop();
  out.wall_ms = ms_since(t0);
  out.violating_lo = violating_los(out.result, verifier.pecs());
  return out;
}

/// The policy asked of a network already held in a constructed Verifier:
/// verification alone, without parse or set-up.
OpResult query_resident(const BatchCase& c, plankton::Verifier& verifier,
                        const plankton::Policy& policy, Tracer& tr, std::uint64_t op_id) {
  OpResult out;
  const auto t0 = Clock::now();
  Scope root(tr, "query", 0, op_id);
  Scope ver(tr, "core.verify", root.id(), op_id);
  out.result = c.address ? verifier.verify_address(*c.address, policy) : verifier.verify(policy);
  out.verify_ms = ver.stop();
  root.stop();
  out.wall_ms = ms_since(t0);
  out.violating_lo = violating_los(out.result, verifier.pecs());
  return out;
}

/// Checks one result against the independent prediction; records a failure
/// and returns false when they disagree or the run did not finish.
bool check(const OpResult& r, const Expect& e, RunRecord& rec, const std::string& what) {
  const plankton::VerifyResult& v = r.result;
  if (v.budget_tripped != BudgetKind::kNone || v.verdict == Verdict::kInconclusive ||
      !v.exhaustive) {
    rec.fail(what + ": verification did not finish exhaustively", false);
    return false;
  }
  bool ok = v.verdict == e.verdict;
  const std::set<std::string> got(r.violating_lo.begin(), r.violating_lo.end());
  if (e.verdict == Verdict::kViolated) {
    if (e.all_violations) {
      ok = ok && got == e.violating;
    } else {
      ok = ok && !got.empty() &&
           std::includes(e.violating.begin(), e.violating.end(), got.begin(), got.end());
    }
  } else {
    ok = ok && got.empty();
  }
  if (!ok) {
    rec.fail(what + ": verdict " + std::string(plankton::to_string(v.verdict)) + " with " +
                 std::to_string(got.size()) + " violating PEC(s) disagrees with the "
                 "independent computation (" + std::to_string(e.violating.size()) + ")",
             true);
  }
  return ok;
}

/// Layer calls the Verifier makes internally, repeated outside the timed
/// operation so each gets its own span: PEC partition, dependency graph,
/// and dedup classing on the verify plan's masks.
struct Breakdown {
  double partition_ms = 0, deps_ms = 0, classes_ms = 0;
  std::size_t pecs = 0, classes = 0, deduped = 0;
};

Breakdown layer_breakdown(const BatchCase& c, const std::string& text, Tracer& tr,
                          std::uint64_t op_id) {
  Breakdown b;
  const plankton::ParsedNetwork parsed = plankton::parse_network_config(text);
  const std::unique_ptr<plankton::Policy> policy = c.policy(parsed.net);
  Scope root(tr, "breakdown", 0, op_id);
  Scope part(tr, "pec.partition", root.id(), op_id);
  const plankton::PecSet pecs = plankton::compute_pecs(parsed.net);
  b.partition_ms = part.stop();
  b.pecs = pecs.pecs.size();
  Scope dep(tr, "sched.deps", root.id(), op_id);
  const plankton::PecDependencies deps = plankton::compute_dependencies(parsed.net, pecs);
  b.deps_ms = dep.stop();

  const std::vector<plankton::PecId> targets =
      c.address ? std::vector<plankton::PecId>{pecs.find(*c.address)} : pecs.routed();
  std::vector<std::uint8_t> needed(pecs.pecs.size(), 0), is_target(pecs.pecs.size(), 0);
  std::vector<plankton::PecId> frontier = targets;
  for (const plankton::PecId p : targets) is_target[p] = 1;
  while (!frontier.empty()) {
    const plankton::PecId p = frontier.back();
    frontier.pop_back();
    if (needed[p] != 0) continue;
    needed[p] = 1;
    for (const plankton::PecId q : deps.depends_on[p]) frontier.push_back(q);
  }
  if (c.opts.pec_dedup) {
    Scope cls(tr, "eqclass.classes", root.id(), op_id);
    const plankton::PecClassSet classes =
        plankton::compute_pec_classes(parsed.net, pecs, deps, *policy, needed, is_target);
    b.classes_ms = cls.stop();
    b.classes = classes.stats.classes;
    b.deduped = classes.stats.deduped;
  }
  return b;
}

BatchCase make_case(const RunSettings& s, RunRecord& rec) {
  if (s.workload == "verify-fattree-loop") return fattree_loop_case(s.seed, rec);
  if (s.workload == "verify-as-failures") return as_failures_case(s.seed);
  return bgp_dpor_case(s.seed, rec);
}

/// Peak RSS of fresh runner processes that each verify the base network
/// once, as one plankton_verify invocation does; median of kProbes. The
/// workload process itself is no measure: it runs many verifications, and
/// how much memory the allocator keeps between them differs from run to run.
double probe_rss_mb(const RunSettings& s) {
  constexpr int kProbes = 3;
  std::vector<double> mb;
  const std::string seed = std::to_string(s.seed);
  for (int i = 0; i < kProbes; ++i) {
    int fds[2];
    if (::pipe(fds) != 0) throw std::runtime_error("pipe failed");
    const pid_t pid = ::fork();
    if (pid < 0) throw std::runtime_error("fork failed");
    if (pid == 0) {
      ::dup2(fds[1], STDOUT_FILENO);
      ::close(fds[0]);
      ::close(fds[1]);
      ::execl("/proc/self/exe", "perfbench_runner", "--workload", s.workload.c_str(), "--seed",
              seed.c_str(), "--rss-probe", "1", static_cast<char*>(nullptr));
      ::_exit(127);
    }
    ::close(fds[1]);
    std::string out;
    char buf[256];
    ssize_t n = 0;
    while ((n = ::read(fds[0], buf, sizeof buf)) > 0) out.append(buf, static_cast<std::size_t>(n));
    ::close(fds[0]);
    int status = 0;
    double rss = 0;
    if (::waitpid(pid, &status, 0) != pid || !WIFEXITED(status) || WEXITSTATUS(status) != 0 ||
        std::sscanf(out.c_str(), "%lf", &rss) != 1) {
      throw std::runtime_error("memory probe process failed");
    }
    mb.push_back(rss);
  }
  return median(mb);
}

}  // namespace

RunRecord run_batch(const RunSettings& s) {
  RunRecord rec;
  const BatchCase c = make_case(s, rec);
  Tracer tr(s.trace);

  // The base network held in a Verifier, which the query operation asks.
  const plankton::ParsedNetwork resident_net = plankton::parse_network_config(c.base_text);
  plankton::Verifier resident(resident_net.net, c.opts);
  const std::unique_ptr<plankton::Policy> resident_policy = c.policy(resident_net.net);

  // Set-up: config text -> constructed Verifier, repeated in every round for
  // at least 20 ms (at least once); a round contributes its fastest
  // repetition and the run reports the median over rounds. On a shared
  // virtual machine the CPU's speed can swing between regimes up to 1.5x
  // apart every few milliseconds, so a sub-millisecond set-up's median
  // follows how long each regime lasted, while the fastest of a round's
  // repetitions is its cost at full speed; spreading the repetitions over
  // the run keeps a slow minute from setting the figure.
  std::vector<double> setup_ms;
  const auto time_setup = [&]() {
    double fastest = 0;
    const auto t0 = Clock::now();
    for (int n = 0; n == 0 || ms_since(t0) < 20; ++n) {
      const auto r0 = Clock::now();
      plankton::ParsedNetwork parsed = plankton::parse_network_config(c.base_text);
      if (!parsed.net.validate().empty()) throw std::runtime_error("base network invalid");
      const plankton::Verifier verifier(parsed.net, c.opts);
      const double ms = ms_since(r0);
      if (n == 0 || ms < fastest) fastest = ms;
    }
    setup_ms.push_back(fastest);
  };

  // Rounds of read, change, query, read, change, query until the time is
  // up. In the traced run every other round records spans, so the untraced
  // rounds of the same run give the tracing overhead.
  std::vector<double> read_ms, change_ms, query_ms;
  std::vector<double> traced_read_ms, untraced_read_ms;
  std::vector<double> cfg_ms, core_setup_ms, core_verify_ms, explore_ms, busy;
  std::vector<double> part_ms, deps_ms, classes_ms;
  std::optional<OpResult> first_read;
  Breakdown read_breakdown;
  std::uint64_t op_id = 0, change_no = 0;
  const auto run_op = [&](const Op& op, bool timed, bool traced) {
    ++rec.attempted;
    ++op_id;
    Tracer off(false);
    Tracer& t = traced ? tr : off;
    const std::string what = std::string(op.change ? "change " : "read ") + std::to_string(op_id);
    try {
      OpResult r = verify_text(c, op, t, op_id);
      if (!check(r, op.change ? op.expect : c.base_expect, rec, what)) return;
      if (!timed) return;
      if (op.change && op.timed) change_ms.push_back(r.wall_ms);
      if (!op.change) read_ms.push_back(r.wall_ms);
      // Per-layer numbers come from traced reads, the base network each time.
      if (!s.trace || op.change) return;
      (traced ? traced_read_ms : untraced_read_ms).push_back(r.wall_ms);
      if (!traced) return;
      const double fp_ms = ns_to_ms(r.result.dedup_fingerprint_time.count());
      cfg_ms.push_back(r.config_ms);
      core_setup_ms.push_back(r.setup_ms);
      core_verify_ms.push_back(r.verify_ms);
      explore_ms.push_back(r.verify_ms - fp_ms);
      double pec_busy_ms = 0;
      for (const auto& rep : r.result.reports) {
        if (rep.translated_from == plankton::kNoPec) {
          pec_busy_ms += ns_to_ms(rep.result.stats.elapsed.count());
        }
      }
      busy.push_back(pec_busy_ms / (r.verify_ms * c.opts.cores));
      const Breakdown b = layer_breakdown(c, op.text, t, op_id);
      part_ms.push_back(b.partition_ms);
      deps_ms.push_back(b.deps_ms);
      classes_ms.push_back(b.classes_ms);
      if (!first_read) {
        first_read = std::move(r);
        read_breakdown = b;
      }
    } catch (const std::exception& e) {
      rec.fail(what + ": " + e.what(), false);
    }
  };

  const auto run_query = [&](bool traced) {
    ++rec.attempted;
    ++op_id;
    Tracer off(false);
    const std::string what = "query " + std::to_string(op_id);
    try {
      const OpResult r = query_resident(c, resident, *resident_policy, traced ? tr : off, op_id);
      if (check(r, c.base_expect, rec, what)) query_ms.push_back(r.wall_ms);
    } catch (const std::exception& e) {
      rec.fail(what + ": " + e.what(), false);
    }
  };

  Op read;
  read.text = c.base_text;
  run_op(read, false, false);  // warm-up, checked but not timed
  const auto t0 = Clock::now();
  std::uint64_t round = 0;
  // A traced run makes at least two rounds, so at least one is traced.
  while (ms_since(t0) < s.seconds * 1000.0 || (s.trace && round < 2)) {
    const bool traced = s.trace && round % 2 == 1;
    for (int k = 0; k < 2; ++k) {
      run_op(read, true, traced);
      run_op(c.change(change_no++), true, traced);
      run_query(traced);
    }
    if (!s.trace) time_setup();
    ++round;
  }

  if (!s.trace) {
    rec.add("setup_s", median(setup_ms) / 1000.0, "s");
    rec.add("verify_ms", median(read_ms), "ms");
    rec.add("peak_rss_mb", probe_rss_mb(s), "MB");
    rec.add("change_verdict_p50_ms", percentile(change_ms, 0.5), "ms");
    rec.add("query_p50_ms", percentile(query_ms, 0.5), "ms");
    return rec;
  }

  const plankton::VerifyResult empty;
  const plankton::VerifyResult& v = first_read ? first_read->result : empty;
  const plankton::SearchStats& t = v.total;
  const double explore = median(explore_ms);
  const double accounted = median(cfg_ms) + median(part_ms) + median(deps_ms) +
                           median(classes_ms) + explore;
  const double untraced = median(untraced_read_ms);
  rec.add("config.parse_ms", median(cfg_ms), "ms");
  rec.add("pec.partition_ms", median(part_ms), "ms");
  rec.add("pec.count", static_cast<double>(read_breakdown.pecs), "count");
  rec.add("sched.deps_ms", median(deps_ms), "ms");
  rec.add("sched.busy_ratio", median(busy), "ratio");
  rec.add("eqclass.classes_ms", median(classes_ms), "ms");
  rec.add("eqclass.classes", static_cast<double>(read_breakdown.classes), "count");
  rec.add("eqclass.pecs_deduped", static_cast<double>(read_breakdown.deduped), "count");
  rec.add("core.setup_ms", median(core_setup_ms), "ms");
  rec.add("core.verify_ms", median(core_verify_ms), "ms");
  rec.add("core.explore_ms", explore, "ms");
  rec.add("rpvp.states_explored", static_cast<double>(t.states_explored), "count");
  rec.add("rpvp.states_stored", static_cast<double>(t.states_stored), "count");
  rec.add("rpvp.states_per_s",
          explore > 0 ? static_cast<double>(t.states_explored) / (explore / 1000.0) : 0.0,
          "1/s");
  rec.add("rpvp.failure_sets", static_cast<double>(t.failure_sets), "count");
  const double ad = static_cast<double>(t.ad_cache_hits + t.ad_cache_misses);
  rec.add("rpvp.ad_cache_hit_ratio", ad > 0 ? static_cast<double>(t.ad_cache_hits) / ad : 0.0,
          "ratio");
  rec.add("rpvp.model_mb", static_cast<double>(t.model_bytes()) / 1e6, "MB");
  rec.add("engine.por_pruned", static_cast<double>(t.por_pruned), "count");
  rec.add("engine.por_source_sets", static_cast<double>(t.por_source_sets), "count");
  rec.add("engine.por_footprint_ms", ns_to_ms(t.por_footprint_time.count()), "ms");
  rec.add("engine.visited_mb", static_cast<double>(t.bytes_visited) / 1e6, "MB");
  rec.add("trace.overhead_pct",
          untraced > 0 ? 100.0 * (median(traced_read_ms) - untraced) / untraced : 0.0, "%");
  rec.add("trace.unattributed_pct",
          untraced > 0 ? 100.0 * (untraced - accounted) / untraced : 0.0, "%");
  if (!tr.write(s.trace_path)) rec.fail("cannot write trace " + s.trace_path, false);
  return rec;
}

int probe_batch(const RunSettings& s) {
  RunRecord rec;
  const BatchCase c = make_case(s, rec);
  Tracer off(false);
  Op read;
  read.text = c.base_text;
  if (!check(verify_text(c, read, off, 0), c.base_expect, rec, "memory probe")) return 1;
  std::printf("%.6f\n", vm_hwm_mb("self"));
  return 0;
}

}  // namespace perfbench
