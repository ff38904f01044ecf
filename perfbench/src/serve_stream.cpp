// serve-delta-stream: one plankton_serve daemon (default options plus
// --all-violations) with a PKJ1 journal, holding an OSPF fat tree K=16 with
// perturbed link costs, driven over a Unix socket by one closed-loop client
// (the next request goes out when the previous reply is in).
//
// The stream is made of rounds. Each round, on two seeded prefixes X and Y:
//   add a, add b, remove a, remove b   (benign statics copying an OSPF next
//                                       hop; each change followed by its
//                                       `loop` query)
// then on a third prefix Z a mutual-static loop pair with its query, and its
// revert with its query. After every change whose network holds come
// kReadsPerChange read-only `loop` queries, all cache hits.
//
// The generator predicts every reply: the verdict from its own forwarding
// walk, and which queries hit the verdict cache from the set of per-prefix
// static configurations that were already verified clean.
//
// The mix is synthetic. Its loop pairs and cache-hit changes exercise the
// violation and cache paths, which every reply's check covers, but the change
// latency reported is taken over one kind of change only, a benign edit whose
// query re-verifies its one moved PEC, so the figure does not depend on how
// many changes of each kind a round holds.
#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <map>
#include <memory>
#include <set>
#include <stdexcept>
#include <thread>

#include "common.hpp"
#include "config/parser.hpp"
#include "eqclass/pec_dedup.hpp"
#include "inputs.hpp"
#include "netbase/hash.hpp"
#include "serve/journal.hpp"
#include "serve/server.hpp"
#include "serve/serve.hpp"

namespace perfbench {
namespace {

using plankton::Verdict;
namespace ps = plankton::serve;

constexpr int kFatTreeK = 16;
constexpr int kReadsPerChange = 16;
constexpr int kSetupReps = 7;

/// One change of the stream with the reply the generator predicts for its
/// query.
struct Step {
  std::string kind;  ///< add | remove | loop | revert
  ps::ApplyDeltaMsg delta;
  int prefix = 0;
  Verdict verdict = Verdict::kHolds;
  std::uint64_t reverified = 0;
  int reads_after = 0;

  /// A benign edit whose query re-verifies its PEC: the one kind of change
  /// whose latency is reported.
  [[nodiscard]] bool timed() const { return verdict == Verdict::kHolds && reverified == 1; }
};

/// The seeded change stream and its model of the daemon's verdict cache.
class Stream {
 public:
  Stream(const FatTree& ft, std::uint64_t seed) : ft_(ft), rng_(seed ^ 0x5e7e5e7eull) {
    for (int p = 0; p < static_cast<int>(ft.prefixes.size()); ++p) {
      dist_.push_back(dist_to(ft.g, ft.edges[p]));
      clean_[p].insert(std::vector<std::string>{});  // verified clean by the cold query
    }
  }

  std::vector<Step> next_round() {
    std::vector<Step> steps;
    const int n = static_cast<int>(ft_.prefixes.size());
    const int x = static_cast<int>(rng_.below(n));
    int y = static_cast<int>(rng_.below(n - 1));
    if (y >= x) ++y;
    for (const int p : {x, y}) {
      const StaticRoute a = benign(p);
      steps.push_back(change("add", p, {a}, {}));
      const StaticRoute b = benign(p);
      steps.push_back(change("add", p, {b}, {}));
      steps.push_back(change("remove", p, {}, {a}));
      steps.push_back(change("remove", p, {}, {b}));
    }
    int z = static_cast<int>(rng_.below(n));
    while (z == x || z == y) z = (z + 1) % n;
    const int origin = ft_.edges[z];
    const Graph::Link* l = nullptr;
    do {
      l = &ft_.g.links[rng_.below(static_cast<std::uint32_t>(ft_.g.links.size()))];
    } while (l->a == origin || l->b == origin);
    const std::vector<StaticRoute> pair = {{l->a, z, l->b}, {l->b, z, l->a}};
    steps.push_back(change("loop", z, pair, {}));
    steps.push_back(change("revert", z, {}, pair));
    return steps;
  }

 private:
  /// A static at a random device without one for `p`, pointing at one of its
  /// OSPF next hops: every hop still gets closer to the origin.
  StaticRoute benign(int p) {
    for (;;) {
      const int node = static_cast<int>(rng_.below(static_cast<std::uint32_t>(ft_.g.size())));
      if (node == ft_.edges[p]) continue;
      bool taken = false;
      for (const StaticRoute& s : active_[p]) taken = taken || s.node == node;
      if (taken) continue;
      const std::vector<int> hops = ospf_next_hops(ft_.g, dist_[p], node);
      if (hops.empty()) continue;
      return {node, p, hops[rng_.below(static_cast<std::uint32_t>(hops.size()))]};
    }
  }

  Step change(const std::string& kind, int p, const std::vector<StaticRoute>& add,
              const std::vector<StaticRoute>& remove) {
    Step s;
    s.kind = kind;
    s.prefix = p;
    std::vector<StaticRoute>& act = active_[p];
    for (const StaticRoute& r : add) {
      s.delta.ops.push_back({true, render_static(ft_, r)});
      act.push_back(r);
    }
    for (const StaticRoute& r : remove) {
      s.delta.ops.push_back({false, render_static(ft_, r)});
      act.erase(std::find(act.begin(), act.end(), r));
    }
    const bool loop = has_forwarding_loop(ft_.g, dist_[p], ft_.edges[p], act, p);
    if (loop != (kind == "loop")) throw std::logic_error("stream generator: walk disagrees");
    std::vector<std::string> key;
    for (const StaticRoute& r : act) key.push_back(render_static(ft_, r));
    std::sort(key.begin(), key.end());
    if (loop) {
      s.verdict = Verdict::kViolated;
      s.reverified = 1;  // a violated verdict is never served from the cache
    } else {
      s.reverified = clean_[p].insert(key).second ? 1 : 0;
      s.reads_after = kReadsPerChange;
    }
    return s;
  }

  const FatTree& ft_;
  Rng rng_;
  std::vector<std::vector<std::uint64_t>> dist_;
  std::map<int, std::vector<StaticRoute>> active_;
  std::map<int, std::set<std::vector<std::string>>> clean_;
};

/// Checks a query reply against the prediction; false (and a recorded
/// failure) on any disagreement.
bool check_reply(const ps::VerdictReplyMsg& r, Verdict verdict, std::uint64_t reverified,
                 const std::string& violating_lo, std::size_t targets, RunRecord& rec,
                 const std::string& what) {
  if (!r.ok) {
    rec.fail(what + ": error reply '" + r.error + "'", false);
    return false;
  }
  bool ok = static_cast<Verdict>(r.verdict) == verdict && r.targets == targets &&
            r.cache_hits + r.reverified == r.targets && r.reverified == reverified;
  if (verdict == Verdict::kViolated) {
    ok = ok && !r.violations.empty();
    for (const ps::ViolationText& v : r.violations) {
      ok = ok && v.pec.find(violating_lo + ",") != std::string::npos;
    }
  } else {
    ok = ok && r.violations.empty();
  }
  if (!ok) {
    rec.fail(what + ": verdict " + plankton::to_string(static_cast<Verdict>(r.verdict)) +
                 " targets " + std::to_string(r.targets) + " hits " +
                 std::to_string(r.cache_hits) + " reverified " + std::to_string(r.reverified) +
                 " (predicted " + plankton::to_string(verdict) + ", reverified " +
                 std::to_string(reverified) + ")",
             true);
  }
  return ok;
}

/// The daemon under test, spawned as a child process and reaped by the
/// destructor (SIGKILL if it has not shut down by then).
class Daemon {
 public:
  Daemon(const std::string& bin, const std::string& socket, const std::string& journal)
      : socket_(socket), journal_(journal) {
    ::unlink(socket.c_str());
    ::unlink(journal.c_str());
    pid_ = ::fork();
    if (pid_ < 0) throw std::runtime_error("fork failed");
    if (pid_ == 0) {
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);  // never outlive the runner
      const int devnull = ::open("/dev/null", O_WRONLY);
      if (devnull >= 0) ::dup2(devnull, STDOUT_FILENO);
      ::execl(bin.c_str(), bin.c_str(), "--socket", socket.c_str(), "--journal",
              journal.c_str(), "--all-violations", static_cast<char*>(nullptr));
      ::_exit(127);
    }
    std::string error;
    const auto t0 = Clock::now();
    while ((fd_ = ps::connect_unix(socket, error)) < 0) {
      if (ms_since(t0) > 10000 || exited()) {
        stop();
        throw std::runtime_error("cannot connect to the daemon: " + error);
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    // A daemon that stops answering fails the run instead of hanging it.
    const timeval limit{60, 0};
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &limit, sizeof limit);
  }
  ~Daemon() { stop(); }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Sends one request and waits for its reply frame.
  ps::VerdictReplyMsg request(plankton::sched::MsgType type, const std::string& payload) {
    ps::VerdictReplyMsg reply;
    plankton::sched::Frame frame;
    std::string error;
    if (!ps::send_frame(fd_, type, payload) || !ps::recv_frame(fd_, decoder_, frame, error)) {
      throw std::runtime_error("daemon connection lost: " + error);
    }
    if (frame.type != plankton::sched::MsgType::kVerdictReply ||
        !ps::decode_verdict_reply(frame.payload, reply)) {
      throw std::runtime_error("undecodable daemon reply");
    }
    return reply;
  }

  /// The daemon's peak resident set so far (VmHWM), in MB.
  [[nodiscard]] double peak_rss_mb() const { return vm_hwm_mb(std::to_string(pid_)); }

  /// Orderly kShutdown; throws unless the daemon exits with status 0.
  void shutdown() {
    (void)request(plankton::sched::MsgType::kShutdown, "");
    int status = 0;
    const bool reaped = ::waitpid(pid_, &status, 0) == pid_;
    pid_ = -1;
    if (!reaped || !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
      throw std::runtime_error("daemon did not exit cleanly");
    }
  }

 private:
  void stop() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, nullptr, 0);
    }
    pid_ = -1;
    ::unlink(socket_.c_str());
    ::unlink(journal_.c_str());
  }

  bool exited() {
    int status = 0;
    if (::waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;
      return true;
    }
    return false;
  }

  std::string socket_, journal_;
  pid_t pid_ = -1;
  int fd_ = -1;
  plankton::sched::FrameDecoder decoder_;
};

std::string loop_query() {
  ps::QueryMsg q;
  q.policy_spec = "loop";
  return ps::encode_query(q);
}

/// Latencies of the stream's operations through the daemon.
struct DaemonPass {
  std::vector<double> change_ms, read_ms;
  std::vector<double> untraced_change_ms;                ///< traced run only
  std::vector<double> traced_read_ms, untraced_read_ms;  ///< traced run only
  std::vector<double> read_overhead_ms;  ///< round trip minus daemon wall_ns
};

/// One round of the stream through the daemon: each change is kApplyDelta
/// then its kQuery, each read one kQuery, each checked against the
/// prediction.
void daemon_round(Daemon& d, const std::vector<Step>& steps, const FatTree& ft,
                  std::uint64_t round, Tracer& t, RunRecord& rec, DaemonPass& out) {
  static const std::string query = loop_query();
  const std::size_t targets = ft.prefixes.size();
  for (const Step& s : steps) {
    std::string what = "round " + std::to_string(round) + " " + s.kind;
    for (const ps::DeltaOp& o : s.delta.ops) what += (o.add ? " +[" : " -[") + o.line + "]";
    ++rec.attempted;
    const auto c0 = Clock::now();
    Scope change(t, "change." + s.kind, 0, rec.attempted);
    Scope apply(t, "request.apply_delta", change.id(), rec.attempted);
    const ps::VerdictReplyMsg ack =
        d.request(plankton::sched::MsgType::kApplyDelta, ps::encode_apply_delta(s.delta));
    apply.stop();
    Scope q(t, "request.query", change.id(), rec.attempted);
    const ps::VerdictReplyMsg r = d.request(plankton::sched::MsgType::kQuery, query);
    q.stop();
    change.stop();
    const double ms = ms_since(c0);
    if (!ack.ok || ack.moved != 1) {
      rec.fail(what + ": apply ack ok=" + std::to_string(ack.ok) + " moved=" +
                   std::to_string(ack.moved) + " '" + ack.error + "'",
               ack.ok);
    } else if (check_reply(r, s.verdict, s.reverified, ft.prefix_lo(s.prefix), targets, rec,
                           what) &&
               s.timed()) {
      out.change_ms.push_back(ms);
      if (!t.on()) out.untraced_change_ms.push_back(ms);
    }
    for (int i = 0; i < s.reads_after; ++i) {
      ++rec.attempted;
      const auto r0 = Clock::now();
      Scope read(t, "read", 0, rec.attempted);
      const ps::VerdictReplyMsg rr = d.request(plankton::sched::MsgType::kQuery, query);
      read.stop();
      const double rms = ms_since(r0);
      if (!check_reply(rr, Verdict::kHolds, 0, "", targets, rec, what + " read")) continue;
      out.read_ms.push_back(rms);
      out.read_overhead_ms.push_back(rms - ns_to_ms(rr.wall_ns));
      (t.on() ? out.traced_read_ms : out.untraced_read_ms).push_back(rms);
    }
  }
}

struct Setup {
  double setup_ms = 0;   ///< spawn -> kLoadNet acked
  double verify_ms = 0;  ///< cold kQuery sent -> its verdict
};

/// Spawns a daemon, loads the network and answers the first (cold) query.
std::unique_ptr<Daemon> start_daemon(const RunSettings& s, const std::string& text,
                                     std::size_t targets, int rep, RunRecord& rec,
                                     Setup& out) {
  const std::string base = s.work_dir + "/d" + std::to_string(::getpid()) + "-" +
                           std::to_string(rep);
  const auto t0 = Clock::now();
  auto d = std::make_unique<Daemon>(s.serve_bin, base + ".sock", base + ".pkj");
  ++rec.attempted;
  ps::LoadNetMsg load;
  load.config_text = text;
  const ps::VerdictReplyMsg ack =
      d->request(plankton::sched::MsgType::kLoadNet, ps::encode_load_net(load));
  if (!ack.ok) throw std::runtime_error("kLoadNet refused: " + ack.error);
  out.setup_ms = ms_since(t0);
  const auto t1 = Clock::now();
  const ps::VerdictReplyMsg cold = d->request(plankton::sched::MsgType::kQuery, loop_query());
  out.verify_ms = ms_since(t1);
  check_reply(cold, Verdict::kHolds, targets, "", targets, rec, "cold query");
  return d;
}

/// Link costs 10..20 in a fixed pattern. The asymmetry keeps every prefix in
/// its own dedup class, so the cold query explores all of them; the costs do
/// not depend on the seed, which only drives the change stream.
std::vector<std::uint32_t> perturbed_costs() {
  const int half = kFatTreeK / 2;
  std::vector<std::uint32_t> costs(static_cast<std::size_t>(kFatTreeK * half * half * 2));
  for (std::size_t l = 0; l < costs.size(); ++l) costs[l] = 10 + static_cast<std::uint32_t>(l * 7 % 11);
  return costs;
}

/// The traced run's in-process side: the same stream through a ServeState
/// (no journal) with a span around each layer call, plus the journal appends
/// and cache lookups timed on their own.
class InProcess {
 public:
  std::vector<double> load_ms, apply_ms, miss_ms, hit_ms;
  std::vector<double> change_ms;  ///< apply + journal append + query, per timed change
  std::vector<double> parse_ms, partition_ms, deps_ms, fingerprint_ms;
  std::vector<double> append_ms, lookup_us;
  std::uint64_t moved = 0, changes = 0, hits = 0, targets = 0;
  std::uint64_t journal_bytes = 0;
  std::size_t pecs = 0;

  InProcess(const RunSettings& s, const FatTree& ft, Tracer& tr, RunRecord& rec)
      : ft_(ft), tr_(tr), rec_(rec), state_(serve_options()),
        journal_path_(s.work_dir + "/j" + std::to_string(::getpid()) + ".pkj") {
    std::string error;
    ++rec_.attempted;
    Scope l(tr_, "serve.load", 0, rec_.attempted);
    if (!state_.load(ft_.body, error)) throw std::runtime_error("load: " + error);
    load_ms.push_back(l.stop());
    query("in-process cold query", Verdict::kHolds, ft_.prefixes.size(), "");
    ::unlink(journal_path_.c_str());
    if (!journal_.open(journal_path_, error)) throw std::runtime_error("journal: " + error);
  }
  ~InProcess() {
    journal_.close();
    ::unlink(journal_path_.c_str());
  }
  InProcess(const InProcess&) = delete;
  InProcess& operator=(const InProcess&) = delete;

  void round(const std::vector<Step>& steps, std::uint64_t round) {
    std::string error;
    for (const Step& st : steps) {
      const std::string what = "in-process round " + std::to_string(round) + " " + st.kind;
      ++rec_.attempted;
      Scope a(tr_, "serve.apply_delta", 0, rec_.attempted);
      const bool applied = state_.apply_delta(st.delta, error);
      const double apply = a.stop();
      apply_ms.push_back(apply);
      if (!applied || state_.last_moved() != 1) {
        rec_.fail(what + ": apply_delta " + error, applied);
        continue;
      }
      ++changes;
      moved += state_.last_moved();
      const std::string payload = ps::encode_apply_delta(st.delta);
      Scope j(tr_, "journal.append", 0, rec_.attempted);
      if (!journal_.append(ps::JournalRecord::kApplyDelta, payload, error)) {
        throw std::runtime_error("journal append: " + error);
      }
      const double append = j.stop();
      append_ms.push_back(append);
      journal_bytes += payload.size();
      const double q = query(what, st.verdict, st.reverified, ft_.prefix_lo(st.prefix));
      if (st.timed()) change_ms.push_back(apply + append + q);
      breakdown();
      for (int i = 0; i < st.reads_after; ++i) {
        ++rec_.attempted;
        query(what + " read", Verdict::kHolds, 0, "");
      }
      if (st.reads_after > 0) time_lookups(what);
    }
  }

 private:
  /// plankton_serve's options under --all-violations.
  static plankton::VerifyOptions serve_options() {
    plankton::VerifyOptions vo;
    vo.explore.find_all_violations = true;
    return vo;
  }

  double query(const std::string& what, Verdict v, std::uint64_t reverified,
               const std::string& lo) {
    Scope q(tr_, reverified > 0 ? "serve.query_miss" : "serve.query_hit", 0, rec_.attempted);
    const ps::VerdictReplyMsg r = state_.query({"loop", 0});
    const double ms = q.stop();
    (reverified > 0 ? miss_ms : hit_ms).push_back(ms);
    hits += r.cache_hits;
    targets += r.targets;
    check_reply(r, v, reverified, lo, ft_.prefixes.size(), rec_, what);
    return ms;
  }

  /// apply_delta's parts, repeated outside it on the resident config.
  void breakdown() {
    Scope b(tr_, "breakdown", 0, rec_.attempted);
    Scope p(tr_, "config.parse", b.id(), rec_.attempted);
    const plankton::ParsedNetwork parsed = plankton::parse_network_config(state_.config_text());
    parse_ms.push_back(p.stop());
    Scope pp(tr_, "pec.partition", b.id(), rec_.attempted);
    const plankton::PecSet pecs_now = plankton::compute_pecs(parsed.net);
    partition_ms.push_back(pp.stop());
    pecs = pecs_now.pecs.size();
    Scope dp(tr_, "sched.deps", b.id(), rec_.attempted);
    (void)plankton::compute_dependencies(parsed.net, pecs_now);
    deps_ms.push_back(dp.stop());
    Scope fp(tr_, "eqclass.fingerprint", b.id(), rec_.attempted);
    (void)plankton::compute_pec_fingerprints(parsed.net, pecs_now);
    fingerprint_ms.push_back(fp.stop());
  }

  /// Looks up every routed PEC's key on the resident cache (all clean hits),
  /// with the keys derived as ServeState::query derives them. A miss means
  /// that derivation changed and the timing would be of misses: it fails.
  void time_lookups(const std::string& what) {
    const auto hash_str = [](std::uint64_t h, std::string_view str) {
      h = plankton::hash_combine(h, str.size());
      for (const char c : str) h = plankton::hash_combine(h, static_cast<unsigned char>(c));
      return h;
    };
    const std::uint64_t ctx = plankton::hash_combine(hash_str(0x53455256'00000001ull, "loop"), 0);
    const plankton::PecSet& rp = state_.verifier().pecs();
    const std::vector<plankton::PecId> routed = rp.routed();
    std::uint64_t found = 0;
    ++rec_.attempted;
    const auto l0 = Clock::now();
    for (const plankton::PecId id : routed) {
      ps::CacheEntry e;
      found += state_.cache().lookup({state_.cone_of(id), hash_str(ctx, rp.pecs[id].str())}, e)
                   ? 1 : 0;
    }
    const double us = ms_since(l0) * 1000.0 / static_cast<double>(routed.size());
    if (found != routed.size()) {
      rec_.fail(what + " cache lookups: " + std::to_string(found) + " of " +
                    std::to_string(routed.size()) + " hit; the cache key derivation changed",
                false);
      return;
    }
    lookup_us.push_back(us);
  }

  const FatTree& ft_;
  Tracer& tr_;
  RunRecord& rec_;
  ps::ServeState state_;
  std::string journal_path_;
  ps::Journal journal_;
};

}  // namespace

RunRecord run_serve(const RunSettings& s) {
  RunRecord rec;
  ::mkdir(s.work_dir.c_str(), 0755);
  const FatTree ft = make_ospf_fat_tree(kFatTreeK, perturbed_costs());
  for (int p = 0; p < static_cast<int>(ft.prefixes.size()); ++p) {
    if (has_forwarding_loop(ft.g, dist_to(ft.g, ft.edges[p]), ft.edges[p], {}, p)) {
      rec.fail("serve base network is not loop-free by the forwarding walk", true);
    }
  }
  const std::size_t targets = ft.prefixes.size();
  Tracer tr(s.trace);
  Tracer off(false);

  if (!s.trace) {
    std::vector<double> setup_ms, verify_ms;
    std::unique_ptr<Daemon> d;
    for (int rep = 0; rep < kSetupReps; ++rep) {
      if (d) d->shutdown();
      Setup st;
      d = start_daemon(s, ft.body, targets, rep, rec, st);
      setup_ms.push_back(st.setup_ms);
      verify_ms.push_back(st.verify_ms);
    }
    Stream stream(ft, s.seed);
    DaemonPass pass;
    const auto t0 = Clock::now();
    for (std::uint64_t round = 0; ms_since(t0) < s.seconds * 1000.0; ++round) {
      daemon_round(*d, stream.next_round(), ft, round, off, rec, pass);
    }
    const double rss = d->peak_rss_mb();
    d->shutdown();
    rec.add("setup_s", median(setup_ms) / 1000.0, "s");
    rec.add("verify_ms", median(verify_ms), "ms");
    rec.add("peak_rss_mb", rss, "MB");
    rec.add("change_verdict_p50_ms", percentile(pass.change_ms, 0.5), "ms");
    rec.add("query_p50_ms", percentile(pass.read_ms, 0.5), "ms");
    return rec;
  }

  // Traced run: rounds alternate between the daemon and an in-process
  // ServeState fed the same stream, so both see the machine at the same
  // times; every other daemon round records spans, for the overhead.
  Setup st;
  std::unique_ptr<Daemon> d = start_daemon(s, ft.body, targets, 0, rec, st);
  InProcess ip(s, ft, tr, rec);
  Stream daemon_stream(ft, s.seed), in_process_stream(ft, s.seed);
  DaemonPass pass;
  const auto t0 = Clock::now();
  for (std::uint64_t round = 0; ms_since(t0) < s.seconds * 1000.0; ++round) {
    daemon_round(*d, daemon_stream.next_round(), ft, round, round % 2 == 1 ? tr : off, rec,
                 pass);
    ip.round(in_process_stream.next_round(), round);
  }
  d->shutdown();

  const double overhead = median(pass.read_overhead_ms);
  const double untraced = median(pass.untraced_read_ms);
  // A change through the daemon is apply + journal append + query in the
  // daemon, plus the socket overhead of its two requests.
  const double accounted = percentile(ip.change_ms, 0.5) + 2 * overhead;
  const double change_p50 = percentile(pass.untraced_change_ms, 0.5);
  rec.add("config.parse_ms", median(ip.parse_ms), "ms");
  rec.add("pec.partition_ms", median(ip.partition_ms), "ms");
  rec.add("pec.count", static_cast<double>(ip.pecs), "count");
  rec.add("sched.deps_ms", median(ip.deps_ms), "ms");
  rec.add("eqclass.fingerprint_ms", median(ip.fingerprint_ms), "ms");
  rec.add("serve.load_ms", median(ip.load_ms), "ms");
  rec.add("serve.apply_delta_ms", median(ip.apply_ms), "ms");
  rec.add("serve.query_miss_ms", median(ip.miss_ms), "ms");
  rec.add("serve.query_hit_ms", median(ip.hit_ms), "ms");
  rec.add("serve.moved_pecs",
          ip.changes > 0 ? static_cast<double>(ip.moved) / static_cast<double>(ip.changes) : 0.0,
          "count");
  rec.add("serve.cache_hit_ratio",
          ip.targets > 0 ? static_cast<double>(ip.hits) / static_cast<double>(ip.targets) : 0.0,
          "ratio");
  rec.add("verdict_cache.lookup_us", median(ip.lookup_us), "us");
  rec.add("journal.append_ms", median(ip.append_ms), "ms");
  rec.add("journal.bytes",
          ip.changes > 0 ? static_cast<double>(ip.journal_bytes) / static_cast<double>(ip.changes)
                         : 0.0,
          "B");
  rec.add("server.request_overhead_ms", overhead, "ms");
  rec.add("trace.overhead_pct",
          untraced > 0 ? 100.0 * (median(pass.traced_read_ms) - untraced) / untraced : 0.0, "%");
  rec.add("trace.unattributed_pct",
          change_p50 > 0 ? 100.0 * (change_p50 - accounted) / change_p50 : 0.0, "%");
  if (!tr.write(s.trace_path)) rec.fail("cannot write trace " + s.trace_path, false);
  return rec;
}

}  // namespace perfbench
