// PEM benchmark program: runs one workload's fixed set of sampled
// trading windows through core::RunSimulation and prints its metrics.
//
//   pem_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                 [--git-sha SHA]
//
// The seed is both the trace seed and the crypto seed.  --seconds fixes
// how many passes (RunSimulation days) run over the workload's sampled
// windows (never a time box), so every run of one (seed, seconds) pair
// executes the same windows and repeats every count exactly.  With
// --trace 0 the last line carries the end-to-end metrics; with
// --trace 1 a traced replay of the first pass follows and the last line
// carries the per-layer metrics.  README.md maps each metric to its
// layer.  Exit codes: 0 ran (the result says whether it was correct),
// 2 bad arguments, 3 unoptimized build, 4 setup failure.
#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/simulation.h"
#include "crypto/circuit.h"
#include "crypto/garble.h"
#include "crypto/modp_group.h"
#include "crypto/ot.h"
#include "crypto/paillier.h"
#include "crypto/rng.h"
#include "crypto/secure_compare.h"
#include "grid/trace.h"
#include "grid/types.h"
#include "net/bus.h"
#include "net/frame.h"
#include "protocol/audit.h"
#include "protocol/key_directory.h"
#include "protocol/market_eval.h"
#include "protocol/pricing.h"

namespace {

using namespace pem;
using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ---- workloads ----------------------------------------------------------

struct Workload {
  std::string_view name;
  int homes = 0;
  int key_bits = 0;
  net::ExecutionPolicy policy;  // engine of the measured run
  int windows = 0;  // sampled windows of one pass (one RunSimulation day)
};

const Workload kWorkloads[] = {
    {"deploy-n50-k1024", 50, 1024, net::ExecutionPolicy::Parallel(4), 36},
    {"forked-n4-k1024", 4, 1024, net::ExecutionPolicy::Process(), 48},
};

// A run makes --seconds / kPassSeconds passes (at least kMinPasses), so
// every window is timed several times, and a burst of host slowness
// that hits one pass does not move the metrics.
constexpr double kPassSeconds = 8.0;
constexpr int kMinPasses = 3;
// Set-up is sampled this many times after each pass, on a day cut after
// the first sampled window (see RunSetupDay).
constexpr int kSetupsPerPass = 4;

// The traced replay runs in-process: on the workload's own engine, or
// the serial one for the forked backend, since transcripts do not
// depend on the backend.
net::ExecutionPolicy ReplayPolicy(const Workload& wl) {
  return wl.policy.transport_kind == net::TransportKind::kProcess
             ? net::ExecutionPolicy::Serial()
             : wl.policy;
}

// The sampled windows: `count` windows `stride` apart from `first`, run
// as one RunSimulation day cut after the last of them.  The band spans
// every hour in which the synthetic trace has markets: general ones at
// dawn and dusk, extreme ones in between.
constexpr int kDayWindows = 720;  // 2-minute windows
constexpr int kBandFirst = 90;    // 03:00
constexpr int kBandEnd = 600;     // 20:00

// Communities are drawn from a trace of the seed this many times their
// size (see MakePlan).
constexpr int kPoolFactor = 8;

grid::TraceConfig TraceOf(int homes, uint64_t seed) {
  grid::TraceConfig cfg;
  cfg.num_homes = homes;
  cfg.windows_per_day = kDayWindows;
  cfg.seed = seed;
  return cfg;
}

struct SamplePlan {
  int homes = 0;
  int first = kBandFirst;
  int stride = 1;
  int count = 0;
  std::vector<grid::HomeTrace> picked;  // the community's homes, from the pool

  int day_end() const { return first + count * stride; }
  core::SimulationConfig Sampled(core::SimulationConfig cfg) const {
    cfg.window_offset = first;
    cfg.window_stride = stride;
    return cfg;
  }
  // The community's trace, cut after window `end` - 1 (default: the
  // last sampled window).  The generation of a trace of the community's
  // size is timed into `gen_s`; the community then takes its homes from
  // the pool, whose homes cost the same to generate.
  grid::CommunityTrace Trace(uint64_t seed, double* gen_s = nullptr,
                             int end = 0) const {
    const Clock::time_point t0 = Clock::now();
    grid::CommunityTrace trace =
        grid::GenerateCommunityTrace(TraceOf(homes, seed));
    if (gen_s) *gen_s = SecondsSince(t0);
    trace.homes = picked;
    trace.windows_per_day = end > 0 ? end : day_end();
    return trace;
  }
};

// Market and general-market windows of `plan` on the plaintext engine.
std::pair<int, int> CountMarkets(const SamplePlan& plan, uint64_t seed) {
  int markets = 0, general = 0;
  for (const core::WindowRecord& w :
       core::RunSimulation(plan.Trace(seed), plan.Sampled({})).windows) {
    markets += w.type != market::MarketType::kNoMarket;
    general += w.type == market::MarketType::kGeneral;
  }
  return {markets, general};
}

SamplePlan MakePlan(const Workload& wl, uint64_t seed) {
  SamplePlan plan;
  plan.homes = wl.homes;
  plan.count = wl.windows;
  plan.stride = (kBandEnd - kBandFirst) / plan.count;
  const int pool_homes = kPoolFactor * wl.homes;
  const grid::CommunityTrace pool =
      grid::GenerateCommunityTrace(TraceOf(pool_homes, seed));
  std::vector<int> order(pool_homes);
  for (int h = 0; h < pool_homes; ++h) order[h] = h;

  if (wl.homes != 4) {
    // Rank the pool by the sampled windows in which a home sells, then
    // by those in which it buys (a home's role depends only on its own
    // trace and battery), and take the middle home of each of `homes`
    // equal rank strata, in pool order.  The community's sellers and
    // buyers per window, and with them a window's work, then vary a
    // third to a half as much from seed to seed as those of the pool's
    // first `homes` homes.
    std::vector<grid::Battery> batteries = pool.MakeBatteries();
    std::vector<std::pair<int, int>> rank(pool_homes);  // (sells, buys)
    for (int w = 0; w < plan.day_end(); ++w) {
      for (int h = 0; h < pool_homes; ++h) {
        const grid::Role role = grid::ClassifyRole(
            pool.ResolveWindow(h, w, batteries).NetEnergy());
        if (w < plan.first || (w - plan.first) % plan.stride) continue;
        rank[h].first += role == grid::Role::kSeller;
        rank[h].second += role == grid::Role::kBuyer;
      }
    }
    std::stable_sort(order.begin(), order.end(),
                     [&](int a, int b) { return rank[a] > rank[b]; });
    std::vector<int> picked;
    for (int i = 0; i < wl.homes; ++i) {
      picked.push_back(order[kPoolFactor * i + kPoolFactor / 2]);
    }
    std::sort(picked.begin(), picked.end());
    for (int h : picked) plan.picked.push_back(pool.homes[h]);
    return plan;
  }

  // Four random homes often contain no seller or no buyer all day.  So
  // take two of the six homes with the most windows of generation above
  // load and the two with the fewest; the first seller pair whose
  // sampled windows are >= 70% markets with >= 5 general markets wins,
  // else the pair with the most markets.
  std::vector<int> surplus(pool_homes, 0);
  for (int h = 0; h < pool_homes; ++h) {
    for (const grid::WindowObservation& o : pool.homes[h].observations) {
      surplus[h] += o.generation_kwh > o.load_kwh;
    }
  }
  std::stable_sort(order.begin(), order.end(),
                   [&](int a, int b) { return surplus[a] > surplus[b]; });
  std::vector<grid::HomeTrace> best;
  int best_market = -1;
  for (int i = 0; i < 6; ++i) {
    for (int j = i + 1; j < 6; ++j) {
      plan.picked.clear();
      for (int h : {order[i], order[j], order[pool_homes - 2],
                    order[pool_homes - 1]}) {
        plan.picked.push_back(pool.homes[h]);
      }
      const auto [markets, general] = CountMarkets(plan, seed);
      if (markets * 10 >= plan.count * 7 && general >= 5) return plan;
      if (markets > best_market) {
        best_market = markets;
        best = plan.picked;
      }
    }
  }
  plan.picked = std::move(best);
  return plan;
}

core::SimulationConfig CryptoConfig(const Workload& wl, const SamplePlan& plan,
                                    uint64_t seed) {
  core::SimulationConfig cfg;
  cfg.engine = core::Engine::kCrypto;
  cfg.pem.key_bits = wl.key_bits;
  cfg.policy = wl.policy;
  cfg.crypto_seed = seed;
  return plan.Sampled(cfg);
}

// ---- measurement helpers -----------------------------------------------

struct CpuTimes {
  double self = 0.0;
  double children = 0.0;
};

double UserSys(const rusage& u) {
  return static_cast<double>(u.ru_utime.tv_sec + u.ru_stime.tv_sec) +
         static_cast<double>(u.ru_utime.tv_usec + u.ru_stime.tv_usec) * 1e-6;
}

CpuTimes CpuNow() {
  rusage self{};
  rusage children{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &children);
  return {UserSys(self), UserSys(children)};
}

// Peak resident set of this process image (VmHWM; ru_maxrss of SELF
// would also count the launcher's image before exec) and of the
// largest reaped child, in MiB.
double PeakRssMb() {
  double self_kb = 0.0;
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) self_kb = std::atof(line.c_str() + 6);
  }
  rusage children{};
  getrusage(RUSAGE_CHILDREN, &children);
  return std::max(self_kb, static_cast<double>(children.ru_maxrss)) / 1024.0;
}

// Steal and total jiffies of all CPUs from /proc/stat: the time the
// hypervisor ran something else on this guest's CPUs.  The run record
// reports the share per pass, because steal, not the program, is what
// moves this host's wall times by tens of percent over minutes.
struct HostTicks {
  uint64_t steal = 0;
  uint64_t total = 0;
};

HostTicks HostTicksNow() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  HostTicks t;
  uint64_t v = 0;
  stat >> cpu;
  for (int i = 0; i < 10 && stat >> v; ++i) {
    if (i == 7) t.steal = v;
    t.total += v;
  }
  return t;
}

double StealShare(const HostTicks& a, const HostTicks& b) {
  return b.total > a.total ? static_cast<double>(b.steal - a.steal) /
                                 static_cast<double>(b.total - a.total)
                           : 0.0;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

// The highest integer percentile p whose nearest-rank sample still has
// at least ten samples above it; nullopt with fewer than 11 samples.
struct Tail {
  int percentile = 0;
  double value = 0.0;
};
std::optional<Tail> TailPercentile(std::vector<double> v) {
  const size_t n = v.size();
  if (n < 11) return std::nullopt;
  std::sort(v.begin(), v.end());
  for (int p = 99; p >= 1; --p) {
    const size_t rank = static_cast<size_t>(
        std::ceil(static_cast<double>(p) * static_cast<double>(n) / 100.0));
    if (rank >= 1 && n - rank >= 10) return Tail{p, v[rank - 1]};
  }
  return std::nullopt;
}

bool IsMarket(market::MarketType t) {
  return t != market::MarketType::kNoMarket;
}

// Tolerances of Simulation.CryptoEngineMatchesPlaintextEngine.
std::string PlaintextMismatch(const core::WindowRecord& c,
                              const core::WindowRecord& p) {
  if (c.window != p.window) return "window index";
  if (c.type != p.type) return "market type";
  if (c.num_sellers != p.num_sellers) return "seller count";
  if (c.num_buyers != p.num_buyers) return "buyer count";
  if (std::fabs(c.price - p.price) > 1e-5) return "price";
  if (std::fabs(c.buyer_cost_pem - p.buyer_cost_pem) > 1e-4) {
    return "buyer cost";
  }
  if (std::fabs(c.grid_interaction_pem - p.grid_interaction_pem) > 1e-4) {
    return "grid interaction";
  }
  return {};
}

// ---- the measured (untraced) run ---------------------------------------

struct WindowSample {
  int pass = 0;
  int window = 0;
  market::MarketType type = market::MarketType::kNoMarket;
  double seconds = 0.0;
  uint64_t bytes = 0;
  uint64_t rng_cursor = 0;
  uint64_t rng_delta = 0;
  bool failed = false;
};

struct PassCost {
  double outside_s = 0.0;  // RunSimulation wall - total_runtime_seconds
  double window_total_s = 0.0;
  CpuTimes cpu;
  double steal = 0.0;  // host steal share over the pass
};

struct SetupCost {
  double trace_gen_s = 0.0;
  double outside_s = 0.0;  // RunSimulation wall - total_runtime_seconds
};

struct Untraced {
  std::vector<WindowSample> windows;  // pass after pass, in window order
  std::vector<PassCost> passes;
  std::vector<SetupCost> setups;
  size_t pass_size = 0;  // sampled windows per pass
  uint64_t total_bus_bytes = 0;  // of the first pass
  int failed = 0;
  int setup_errors = 0;

  std::span<WindowSample> Pass(int p) {
    return std::span(windows).subspan(static_cast<size_t>(p) * pass_size,
                                      pass_size);
  }
};

void Fail(WindowSample& s, Untraced& out, const std::string& why) {
  if (!s.failed) ++out.failed;
  s.failed = true;
  std::printf("FAILED window %d (pass %d): %s\n", s.window, s.pass,
              why.c_str());
}

// One set-up sample: trace generation, then a crypto day cut after the
// first sampled window, whose RunSimulation wall time minus its window
// time is transport bring-up (and fork), the idle work after the
// window, and teardown.
void RunSetupDay(const Workload& wl, const SamplePlan& plan, uint64_t seed,
                 const core::WindowRecord& plain_first, Untraced& out) {
  SetupCost cost;
  const grid::CommunityTrace trace =
      plan.Trace(seed, &cost.trace_gen_s, plan.first + 1);
  std::string why;
  try {
    const Clock::time_point t0 = Clock::now();
    const core::SimulationResult r =
        core::RunSimulation(trace, CryptoConfig(wl, plan, seed));
    cost.outside_s = SecondsSince(t0) - r.total_runtime_seconds;
    why = r.windows.size() != 1 ? "executed-window count"
                                : PlaintextMismatch(r.windows[0], plain_first);
  } catch (const std::exception& e) {
    why = e.what();
  }
  if (why.empty()) {
    out.setups.push_back(cost);
  } else {
    ++out.setup_errors;
    std::printf("ERROR: set-up day failed: %s\n", why.c_str());
  }
}

// Runs `passes` RunSimulation days over the sampled windows, each
// followed by kSetupsPerPass set-up days.  Every pass repeats the same
// transcripts, so a pass that differs from the first in any exact count
// fails the window.
Untraced RunUntraced(const Workload& wl, const SamplePlan& plan,
                     uint64_t seed, int passes) {
  Untraced out;
  const core::SimulationResult plain =
      core::RunSimulation(plan.Trace(seed), plan.Sampled({}));
  out.pass_size = plain.windows.size();
  const core::SimulationConfig cfg = CryptoConfig(wl, plan, seed);
  for (int pass = 0; pass < passes; ++pass) {
    PassCost& cost = out.passes.emplace_back();
    const grid::CommunityTrace trace = plan.Trace(seed);
    for (const core::WindowRecord& p : plain.windows) {
      WindowSample& s = out.windows.emplace_back();
      s.pass = pass;
      s.window = p.window;
    }
    const std::span<WindowSample> mine = out.Pass(pass);

    std::optional<core::SimulationResult> result;
    const CpuTimes c0 = CpuNow();
    const HostTicks h0 = HostTicksNow();
    const Clock::time_point t0 = Clock::now();
    try {
      result = core::RunSimulation(trace, cfg);
    } catch (const std::exception& e) {
      for (WindowSample& s : mine) Fail(s, out, e.what());
    }
    const double wall = SecondsSince(t0);
    cost.steal = StealShare(h0, HostTicksNow());
    const CpuTimes c1 = CpuNow();
    cost.cpu = {c1.self - c0.self, c1.children - c0.children};
    for (int k = 0; k < kSetupsPerPass; ++k) {
      RunSetupDay(wl, plan, seed, plain.windows.front(), out);
    }
    if (!result) continue;
    cost.outside_s = wall - result->total_runtime_seconds;
    cost.window_total_s = result->total_runtime_seconds;
    if (pass == 0) out.total_bus_bytes = result->total_bus_bytes;
    if (result->windows.size() != mine.size()) {
      for (WindowSample& s : mine) Fail(s, out, "executed-window count");
      continue;
    }
    uint64_t cursor = 0;
    for (size_t i = 0; i < mine.size(); ++i) {
      const core::WindowRecord& rec = result->windows[i];
      WindowSample& s = mine[i];
      s.type = rec.type;
      s.seconds = rec.runtime_seconds;
      s.bytes = rec.bus_bytes;
      s.rng_cursor = rec.rng_cursor;
      s.rng_delta = rec.rng_cursor - cursor;
      cursor = rec.rng_cursor;
      const std::string why = PlaintextMismatch(rec, plain.windows[i]);
      if (!why.empty()) Fail(s, out, "differs from plaintext engine: " + why);
      if (pass == 0) continue;
      const WindowSample& first = out.windows[i];
      if (first.type != s.type || first.bytes != s.bytes ||
          first.rng_cursor != s.rng_cursor) {
        Fail(s, out, "exact counts differ from the first pass");
      }
    }
  }
  return out;
}

// ---- the traced replay -------------------------------------------------

enum TagClass { kTagCompare, kTagRing, kTagPubkey, kTagOther, kTagClasses };

TagClass Classify(uint32_t type) {
  if ((type >> 16) == 0x4743) return kTagCompare;
  if (type == protocol::kMsgRingHop || type == protocol::kMsgRingFinal) {
    return kTagRing;
  }
  if (type == protocol::kMsgPublicKey) return kTagPubkey;
  return kTagOther;
}

struct WireCount {
  uint64_t bytes[kTagClasses] = {};
  uint64_t frames = 0;

  uint64_t total() const {
    uint64_t t = 0;
    for (uint64_t b : bytes) t += b;
    return t;
  }
};

struct Traced {
  std::vector<double> market_eval_s;    // market windows
  std::vector<double> pricing_s;        // general windows
  std::vector<double> distribution_s;   // market windows
  std::vector<double> window_s;         // market windows, traced
  WireCount market_wire;                // summed over market windows
  uint64_t observed_bytes = 0;          // every window
};

// Drives the first pass's windows through the Protocol 1 phases on its
// own ProtocolContext, mirroring the in-process loop of
// core::RunSimulation (same rng, parties, key directory and window
// order), and checks each window's bytes and rng cursor against the
// measured run.
void ReplayPass(const Workload& wl, const SamplePlan& plan, uint64_t seed,
                std::span<WindowSample> mine, Untraced& untraced,
                Traced& out) {
  const grid::CommunityTrace trace = plan.Trace(seed);
  const core::SimulationConfig cfg = CryptoConfig(wl, plan, seed);
  const int n = trace.num_homes();
  const net::ExecutionPolicy replay = ReplayPolicy(wl);

  crypto::DeterministicRng rng(seed);
  std::unique_ptr<net::Transport> bus =
      net::MakeTransport(replay.transport_kind, n);
  WireCount current;
  // Runs under the transport's lock on the concurrent bus, so the
  // counters are never touched by two threads at once.
  bus->SetObserver([&current](const net::Message& m) {
    current.bytes[Classify(m.type)] += net::FramedSize(m);
    ++current.frames;
  });
  std::vector<net::Endpoint> endpoints = bus->endpoints();
  std::vector<protocol::Party> parties;
  parties.reserve(static_cast<size_t>(n));
  for (int h = 0; h < n; ++h) {
    parties.emplace_back(static_cast<net::AgentId>(h),
                         trace.homes[static_cast<size_t>(h)].params);
  }
  protocol::KeyDirectory directory;
  std::vector<grid::Battery> batteries = trace.MakeBatteries();

  size_t next = 0;
  for (int w = 0; w < plan.day_end(); ++w) {
    std::vector<grid::WindowState> states(static_cast<size_t>(n));
    for (int h = 0; h < n; ++h) {
      states[static_cast<size_t>(h)] = trace.ResolveWindow(h, w, batteries);
    }
    if (w < cfg.window_offset || (w - cfg.window_offset) % cfg.window_stride) {
      continue;
    }
    PEM_CHECK(next < mine.size(), "perfbench: replay ran past the pass");
    WindowSample& s = mine[next++];
    for (int h = 0; h < n; ++h) {
      parties[static_cast<size_t>(h)].BeginWindow(
          states[static_cast<size_t>(h)], cfg.pem.nonce_bound, rng);
    }
    protocol::ProtocolContext ctx{endpoints, rng, cfg.pem, nullptr,
                                  replay, &directory};
    ctx.window = w;
    current = WireCount{};
    const uint64_t bytes_before = net::TotalBytesSent(endpoints);
    market::MarketType type = market::MarketType::kNoMarket;
    double eval_s = 0.0, pricing_s = 0.0, dist_s = 0.0;
    const Clock::time_point t0 = Clock::now();
    try {
      protocol::RunAuditRound(ctx, parties);
      const protocol::Coalitions coalitions = protocol::FormCoalitions(parties);
      if (!coalitions.sellers.empty() && !coalitions.buyers.empty()) {
        Clock::time_point t = Clock::now();
        const protocol::MarketEvalResult eval =
            protocol::RunPrivateMarketEvaluation(ctx, parties, coalitions);
        eval_s = SecondsSince(t);
        double price = cfg.pem.market.price_floor;
        type = market::MarketType::kExtreme;
        if (eval.general_market) {
          type = market::MarketType::kGeneral;
          t = Clock::now();
          price = protocol::RunPrivatePricing(ctx, parties, coalitions).price;
          pricing_s = SecondsSince(t);
        }
        t = Clock::now();
        protocol::RunPrivateDistribution(ctx, parties, coalitions,
                                         eval.general_market, price);
        dist_s = SecondsSince(t);
      }
    } catch (const std::exception& e) {
      Fail(s, untraced, std::string("traced replay threw: ") + e.what());
      continue;
    }
    const double window_s = SecondsSince(t0);
    const uint64_t bytes = net::TotalBytesSent(endpoints) - bytes_before;
    out.observed_bytes += current.total();
    if (type != s.type) Fail(s, untraced, "traced replay market type");
    if (bytes != s.bytes) Fail(s, untraced, "traced replay bytes");
    if (current.total() != bytes) Fail(s, untraced, "observed framed bytes");
    if (rng.Cursor() != s.rng_cursor) Fail(s, untraced, "traced replay rng");
    if (!IsMarket(type)) continue;
    out.window_s.push_back(window_s);
    out.market_eval_s.push_back(eval_s);
    out.distribution_s.push_back(dist_s);
    if (type == market::MarketType::kGeneral) {
      out.pricing_s.push_back(pricing_s);
    }
    for (int c = 0; c < kTagClasses; ++c) {
      out.market_wire.bytes[c] += current.bytes[c];
    }
    out.market_wire.frames += current.frames;
  }
}

// ---- crypto layer: medians of repeated calls ---------------------------

struct CryptoCosts {
  double keygen_s = 0.0, encrypt_s = 0.0, encrypt_crt_s = 0.0,
         decrypt_s = 0.0, compare_s = 0.0, ot_s = 0.0, garble_s = 0.0;
  bool correct = true;
};

template <typename F>
double MedianOf(int reps, F&& call) {
  std::vector<double> t;
  for (int i = 0; i < reps; ++i) {
    const Clock::time_point t0 = Clock::now();
    call(i);
    t.push_back(SecondsSince(t0));
  }
  return Median(std::move(t));
}

CryptoCosts MeasureCrypto(const Workload& wl, uint64_t seed) {
  CryptoCosts c;
  crypto::DeterministicRng rng(seed);
  const int keygen_reps = wl.key_bits >= 1024 ? 7 : 15;
  std::optional<crypto::PaillierKeyPair> kp;
  c.keygen_s = MedianOf(keygen_reps, [&](int) {
    kp = crypto::GeneratePaillierKeyPair(wl.key_bits, rng);
  });
  const crypto::PaillierCrtEncryptor crt(kp->priv);
  constexpr int kPaillierReps = 64;
  std::vector<crypto::PaillierCiphertext> cts(kPaillierReps);
  const auto value = [](int i) { return int64_t{1000003} * (i - 31); };
  c.encrypt_s = MedianOf(kPaillierReps, [&](int i) {
    cts[static_cast<size_t>(i)] = kp->pub.EncryptSigned(value(i), rng);
  });
  std::vector<crypto::PaillierCiphertext> crt_cts(kPaillierReps);
  c.encrypt_crt_s = MedianOf(kPaillierReps, [&](int i) {
    crt_cts[static_cast<size_t>(i)] = crt.EncryptSigned(value(i), rng);
  });
  c.decrypt_s = MedianOf(kPaillierReps, [&](int i) {
    if (kp->priv.DecryptSigned(cts[static_cast<size_t>(i)]) != value(i)) {
      c.correct = false;
    }
  });
  for (int i = 0; i < kPaillierReps; ++i) {
    if (kp->priv.DecryptSigned(crt_cts[static_cast<size_t>(i)]) != value(i)) {
      c.correct = false;
    }
  }

  const crypto::SecureCompareConfig compare;
  net::MessageBus bus(2);
  std::vector<net::Endpoint> eps = bus.endpoints();
  c.compare_s = MedianOf(7, [&](int i) {
    const uint64_t x = rng.NextU64() >> 1;
    const uint64_t y = i % 2 ? x + 1 : x;
    if (crypto::SecureCompareLess(eps[0], x, eps[1], y, compare, rng) !=
        (x < y)) {
      c.correct = false;
    }
  });

  const crypto::ModpGroup& group = crypto::ModpGroup::Get(compare.group);
  crypto::OtMessage m0{}, m1{};
  m1.fill(0xA5);
  c.ot_s = MedianOf(31, [&](int i) {
    crypto::OtSender sender(group, rng);
    crypto::OtReceiver receiver(group, rng);
    const bool choice = i % 2 == 1;
    const std::vector<uint8_t> b = receiver.Round1(sender.Round1(), choice);
    if (receiver.Decrypt(sender.Round2(b, m0, m1)) != (choice ? m1 : m0)) {
      c.correct = false;
    }
  });

  const crypto::Circuit circuit = crypto::BuildLessThanCircuit(compare.bits);
  c.garble_s = MedianOf(63, [&](int) {
    const crypto::Garbler garbler(circuit, rng);
    if (garbler.tables().and_tables.empty()) c.correct = false;
  });
  return c;
}

// ---- output ------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  const char* unit = "";
};

std::string Num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string Quote(std::string_view s) {
  std::string out = "\"";
  for (char ch : s) {
    if (ch == '"' || ch == '\\') out += '\\';
    if (static_cast<unsigned char>(ch) >= 0x20) out += ch;
  }
  return out + "\"";
}

std::string CpuModel() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string line; std::getline(cpuinfo, line);) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

// FNV-1a over every exact per-window count, so two runs of one seed
// can be compared without keeping their window lists.
struct Digest {
  uint64_t h = 1469598103934665603ULL;
  void Add(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xFF;
      h *= 1099511628211ULL;
    }
  }
};

struct Args {
  const Workload* workload = nullptr;
  uint64_t seed = 0;
  int seconds = 0;
  bool trace = false;
  std::string git_sha = "unknown";
};

std::optional<Args> ParseArgs(int argc, char** argv) {
  Args a;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string_view flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      for (const Workload& wl : kWorkloads) {
        if (wl.name == value) a.workload = &wl;
      }
    } else if (flag == "--seed") {
      a.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != value.c_str() && *end == '\0';
    } else if (flag == "--seconds") {
      a.seconds = static_cast<int>(std::strtol(value.c_str(), &end, 10));
      have_seconds = *end == '\0' && a.seconds >= 1 && a.seconds <= 600;
    } else if (flag == "--trace") {
      have_trace = value == "0" || value == "1";
      a.trace = value == "1";
    } else if (flag == "--git-sha") {
      a.git_sha = value;
    } else {
      return std::nullopt;
    }
  }
  if (argc % 2 != 1 || !a.workload || !have_seed || !have_seconds ||
      !have_trace) {
    return std::nullopt;
  }
  return a;
}

int Run(const Args& args) {
  const Workload& wl = *args.workload;
  const SamplePlan plan = MakePlan(wl, args.seed);
  // The pool the plan drew its community from is the benchmark's memory,
  // not the program's: hand it back and restart the peak-RSS high-water
  // mark after it.
  malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";
  const int passes = std::max(
      kMinPasses, static_cast<int>(std::lround(args.seconds / kPassSeconds)));
  bool correct = true;

  Untraced untraced = RunUntraced(wl, plan, args.seed, passes);

  // Exact counts, over every pass.
  uint64_t market_bytes = 0;
  int market = 0, general = 0;
  Digest digest;
  for (const WindowSample& s : untraced.windows) {
    digest.Add(static_cast<uint64_t>(s.window));
    digest.Add(static_cast<uint64_t>(s.type));
    digest.Add(s.bytes);
    digest.Add(s.rng_cursor);
    if (!IsMarket(s.type)) continue;
    ++market;
    if (s.type == market::MarketType::kGeneral) ++general;
    market_bytes += s.bytes;
  }
  uint64_t first_pass_rng = 0;
  int first_pass_market = 0;
  for (const WindowSample& s : untraced.Pass(0)) {
    if (!IsMarket(s.type)) continue;
    ++first_pass_market;
    first_pass_rng += s.rng_delta;
  }
  const int sampled = static_cast<int>(untraced.windows.size());
  const double pass_market = std::max(first_pass_market, 1);

  // Each window's time is the fastest of its repetitions, one per pass.
  // A shared host only ever adds time to a window (stolen or contended
  // CPU), in bursts of seconds to minutes, so the fastest repetition is
  // the program's own cost, and a burst that misses one pass moves no
  // window.  windows_per_s divides by the sum of these times over every
  // sampled window (a pass's total_runtime_seconds, each window at its
  // fastest); cpu_s_per_window is the cheapest pass's.
  std::vector<double> market_s;
  double best_pass_s = 0.0;
  for (size_t i = 0; i < untraced.pass_size; ++i) {
    double best = untraced.Pass(0)[i].seconds;
    for (int p = 1; p < passes; ++p) {
      best = std::min(best, untraced.Pass(p)[i].seconds);
    }
    best_pass_s += best;
    if (IsMarket(untraced.windows[i].type)) market_s.push_back(best);
  }
  const std::optional<Tail> tail = TailPercentile(market_s);
  if (!tail) {
    std::printf("ERROR: %d market windows per pass cannot give a tail "
                "percentile\n", first_pass_market);
    correct = false;
  }
  std::vector<double> p50, wps, cpu, self_cpu, child_cpu, outside, steal;
  for (int p = 0; p < passes; ++p) {
    std::vector<double> pass_s;
    for (const WindowSample& s : untraced.Pass(p)) {
      if (IsMarket(s.type)) pass_s.push_back(s.seconds);
    }
    const PassCost& c = untraced.passes[static_cast<size_t>(p)];
    p50.push_back(Median(pass_s));
    wps.push_back(pass_market / std::max(c.window_total_s, 1e-9));
    cpu.push_back((c.cpu.self + c.cpu.children) / pass_market);
    self_cpu.push_back(c.cpu.self / pass_market);
    child_cpu.push_back(c.cpu.children / pass_market);
    outside.push_back(c.outside_s);
    steal.push_back(c.steal);
  }
  std::vector<double> setup, trace_gen;
  for (const SetupCost& c : untraced.setups) {
    setup.push_back(c.trace_gen_s + c.outside_s);
    trace_gen.push_back(c.trace_gen_s);
  }
  if (untraced.setup_errors > 0) correct = false;

  std::printf(
      "RECORD {\"workload\": %s, \"seed\": %llu, \"seconds\": %d, "
      "\"nproc\": %ld, \"cpu_model\": %s, \"compiler\": %s, "
      "\"build_type\": %s, \"git_sha\": %s, \"homes\": %d, \"key_bits\": %d, "
      "\"passes\": %d, \"stride\": %d, \"sampled_windows\": %d, "
      "\"market_windows\": %d, \"no_market_windows\": %d, "
      "\"general_windows\": %d}\n",
      Quote(wl.name).c_str(), static_cast<unsigned long long>(args.seed),
      args.seconds, sysconf(_SC_NPROCESSORS_ONLN), Quote(CpuModel()).c_str(),
      Quote(PERFBENCH_COMPILER).c_str(), Quote(PERFBENCH_BUILD_TYPE).c_str(),
      Quote(args.git_sha).c_str(), wl.homes, wl.key_bits, passes, plan.stride,
      sampled, market, sampled - market, general);
  if (tail) {
    std::printf("window_tail_s is p%d of %d market windows, each the fastest "
                "of %d passes\n", tail->percentile, first_pass_market, passes);
  }

  const auto print_passes = [](const char* name, const std::vector<double>& v) {
    std::printf("per pass %s:", name);
    for (double x : v) std::printf(" %.6g", x);
    std::printf("\n");
  };
  print_passes("window_p50_s", p50);
  print_passes("windows_per_s", wps);
  print_passes("cpu_s_per_window", cpu);
  print_passes("outside_window_s", outside);
  print_passes("host_steal_share", steal);
  std::printf("setup_s is the median of %zu set-up days\n", setup.size());

  std::vector<Metric> metrics;
  std::string exact_traced;
  if (!args.trace) {
    metrics = {
        {"window_p50_s", Median(market_s), "s"},
        {"window_tail_s", tail ? tail->value : 0.0, "s"},
        {"windows_per_s", pass_market / std::max(best_pass_s, 1e-9), "1/s"},
        {"cpu_s_per_window", *std::min_element(cpu.begin(), cpu.end()), "s"},
        {"bytes_per_agent_window",
         static_cast<double>(market_bytes) / (std::max(market, 1) * wl.homes),
         "B"},
        {"setup_s", Median(setup), "s"},
        {"peak_rss_mb", PeakRssMb(), "MiB"},
    };
  } else {
    // One pass: every pass repeats the first one's transcripts.
    Traced traced;
    ReplayPass(wl, plan, args.seed, untraced.Pass(0), untraced, traced);
    if (traced.observed_bytes != untraced.total_bus_bytes) {
      std::printf("ERROR: observed framed bytes %llu != total_bus_bytes %llu\n",
                  static_cast<unsigned long long>(traced.observed_bytes),
                  static_cast<unsigned long long>(untraced.total_bus_bytes));
      correct = false;
    }
    if (traced.pricing_s.empty()) {
      std::printf("ERROR: no general-market window to time pricing on\n");
      correct = false;
    }
    const CryptoCosts crypto = MeasureCrypto(wl, args.seed);
    if (!crypto.correct) {
      std::printf("ERROR: a crypto primitive returned a wrong result\n");
      correct = false;
    }
    // The replay times each window once, so it is set against the
    // untraced passes' own p50s, not against window_p50_s.
    std::printf("tracing overhead: %.6f s per market window (traced p50 "
                "%.6f s on the %s engine - untraced p50 %.6f s on the %s "
                "engine, median over passes)\n",
                Median(traced.window_s) - Median(p50),
                Median(traced.window_s),
                net::TransportKindName(ReplayPolicy(wl).transport_kind),
                Median(p50),
                net::TransportKindName(wl.policy.transport_kind));
    const WireCount& wire = traced.market_wire;
    const double agent_windows = pass_market * wl.homes;
    auto per_agent = [&](TagClass c) {
      return static_cast<double>(wire.bytes[c]) / agent_windows;
    };
    metrics = {
        {"grid.trace_gen_s", Median(trace_gen), "s"},
        {"crypto.keygen_s", crypto.keygen_s, "s"},
        {"crypto.encrypt_s", crypto.encrypt_s, "s"},
        {"crypto.encrypt_crt_s", crypto.encrypt_crt_s, "s"},
        {"crypto.decrypt_s", crypto.decrypt_s, "s"},
        {"crypto.compare_s", crypto.compare_s, "s"},
        {"crypto.ot_s", crypto.ot_s, "s"},
        {"crypto.garble_s", crypto.garble_s, "s"},
        {"protocol.market_eval_s", Median(traced.market_eval_s), "s"},
        {"protocol.pricing_s", Median(traced.pricing_s), "s"},
        {"protocol.distribution_s", Median(traced.distribution_s), "s"},
        {"net.frames_per_window",
         static_cast<double>(wire.frames) / pass_market, "count"},
        {"net.bytes.compare", per_agent(kTagCompare), "B"},
        {"net.bytes.ring", per_agent(kTagRing), "B"},
        {"net.bytes.pubkey", per_agent(kTagPubkey), "B"},
        {"net.bytes.other", per_agent(kTagOther), "B"},
        {"core.outside_window_s", Median(outside), "s"},
        {"core.parent_cpu_s_per_window", Median(self_cpu), "s"},
        {"core.child_cpu_s_per_window", Median(child_cpu), "s"},
        {"core.rng_bytes_per_window",
         static_cast<double>(first_pass_rng) / pass_market, "B"},
    };
    exact_traced = ", \"frames\": " + std::to_string(wire.frames);
    for (int c = 0; c < kTagClasses; ++c) {
      exact_traced += ", \"tag" + std::to_string(c) +
                      "_bytes\": " + std::to_string(wire.bytes[c]);
    }
  }

  // Exact counts: run.py compares these across runs of one seed.
  std::printf(
      "EXACT {\"sampled\": %d, \"market\": %d, \"general\": %d, "
      "\"total_bus_bytes\": %llu, \"market_bytes\": %llu, "
      "\"market_rng_bytes\": %llu, \"window_digest\": \"%016llx\"%s}\n",
      sampled, market, general,
      static_cast<unsigned long long>(untraced.total_bus_bytes),
      static_cast<unsigned long long>(market_bytes),
      static_cast<unsigned long long>(first_pass_rng),
      static_cast<unsigned long long>(digest.h), exact_traced.c_str());

  correct = correct && untraced.failed == 0;
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(sampled);
  json += ", \"failed\": " + std::to_string(untraced.failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i) json += ", ";
    json += Quote(metrics[i].name) + ": {\"value\": " + Num(metrics[i].value) +
            ", \"unit\": " + Quote(metrics[i].unit) + "}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::setvbuf(stdout, nullptr, _IOLBF, 0);
#ifndef __OPTIMIZE__
  std::fprintf(stderr, "pem_perfbench: refusing to measure an unoptimized "
                       "build (build type %s)\n", PERFBENCH_BUILD_TYPE);
  return 3;
#endif
  const std::optional<Args> args = ParseArgs(argc, argv);
  if (!args) {
    std::fprintf(stderr,
                 "usage: pem_perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--git-sha SHA]\nworkloads:");
    for (const Workload& wl : kWorkloads) {
      std::fprintf(stderr, " %.*s", static_cast<int>(wl.name.size()),
                   wl.name.data());
    }
    std::fprintf(stderr, "\n");
    return 2;
  }
  try {
    return Run(*args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pem_perfbench: %s\n", e.what());
    return 4;
  }
}
