// lvq_bench — one verified light-node request, measured end to end over
// real loopback TCP and, in a traced run, layer by layer.
//
//   lvq_bench --workload=NAME --seed=N --blocks=4096 --seconds=S --out=FILE
//             [--trace=FILE]
//   lvq_bench                      smoke: every workload for ~1 s each
//
// The system under test is set up in-process exactly as `lvqtool serve`
// sets it up: FullNode -> ServingEngine (default options) -> ReactorServer
// (one I/O thread, engine metrics as its event sink), lvq design with an
// 8 KiB Bloom filter, k = 10, M = 128. Load comes from the same process:
// min(4, nproc) client threads, each owning one default-options
// TcpTransport and one LightNode, calling LightNode::query / query_batch /
// query_range / query_multi with no retry wrapper. Arrivals are open-loop
// Poisson, and each request is timed from its *scheduled* time to its
// verified verdict, so a backlog shows as latency. The chain and the
// arrival times are the same in every run; the seed draws the requests.
//
// A run has four stages: set-up (three times; the median is setup_s), a
// nominal phase at the workload's fixed rate, a rate ladder (x1.6 per step
// from the nominal rate until a step misses the SLO, then bisection while
// the time budget lasts), and teardown. Every verified history is checked
// against a ground truth computed in one pass over the generated blocks,
// and one reply per run has a proof byte flipped and must be rejected; any
// violation exits non-zero.
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "core/chain_builder.hpp"
#include "crypto/sha256.hpp"
#include "layers.hpp"
#include "net/message.hpp"
#include "net/reactor_server.hpp"
#include "net/tcp_transport.hpp"
#include "net/transport_error.hpp"
#include "node/full_node.hpp"
#include "node/light_node.hpp"
#include "server/serving_engine.hpp"
#include "store/disk_chain_store.hpp"
#include "util/flags.hpp"
#include "util/rng.hpp"
#include "workload/workload.hpp"

#ifndef LVQ_BENCH_BUILD_TYPE
#define LVQ_BENCH_BUILD_TYPE "unknown"
#endif
#ifndef LVQ_BENCH_MANIFEST
#define LVQ_BENCH_MANIFEST "BENCHMARK.json"
#endif

using namespace lvq;
using namespace lvq::lvqbench;

namespace {

// The chain is the one `lvqtool serve` serves by default; --seed draws the
// address pools, the arrivals and the appended blocks.
constexpr std::uint64_t kChainSeed = 20200704;
constexpr std::size_t kHotPool = 32;
// Reply size grows ~40 KiB per block of an address's history; a fixed
// history length keeps the seed from moving reply size through which
// addresses it ranks first.
constexpr std::size_t kHotHistoryBlocks = 4;
constexpr std::size_t kColdPool = 4096;
constexpr std::uint32_t kBulkAddresses = 4;
constexpr std::uint64_t kRangeWindow = 256;
constexpr std::uint32_t kAppendBlocks = 4;  // per writer tick, one tick/s
constexpr std::size_t kProbeAppends = 8;    // post-run appends elsewhere
constexpr int kSetups = 3;
constexpr double kLadderRatio = 1.6;
// A ladder step lasts long enough for kStepSamples requests, and at least
// kMinStepSeconds. Every step, the nominal phase included, is judged at one
// percentile, which a step of >= 100 requests supports with >= 10 beyond it.
constexpr std::size_t kStepSamples = 100;
constexpr double kMinStepSeconds = 0.5;
constexpr double kMaxLadderSeconds = 4.5;  // x1.6 up, then two bisections
constexpr double kSloQuantile = 0.9;
constexpr std::size_t kReplayRequests = 256;

ProtocolConfig bench_config() {
  ProtocolConfig c;
  c.design = Design::kLvq;
  c.bloom = BloomGeometry{8 * 1024, 10};
  c.segment_length = 128;
  return c;
}

enum class Traffic : std::uint8_t { kPoint, kBulk };

struct WorkloadSpec {
  const char* name;
  Traffic traffic;
  bool hot;     // Zipf(1.0) over the hot pool; else uniform over the cold pool
  bool append;  // a writer appends and rebinds while the readers run
  double nominal_rate;  // requests/s; also the ladder's first step
  double slo_ms;        // tail-latency limit for the ladder
};

// Why each workload exists is recorded in BENCHMARK.json and README.md.
// append-while-serving's SLO is looser because a request that meets a tip
// move pays a header sync and a retry on top of its own round trip. Each
// SLO sits between two ladder steps' tails at this commit, not on one, so
// a step does not pass or fail by chance: wallet-cold's tails at 63 and
// 71 req/s reach 104 ms, so its SLO is 120 ms rather than wallet-hot's 100.
// Every nominal rate is 50 req/s, so a nominal phase of 20.5 s holds > 1000
// requests, enough for ten beyond p99.
const WorkloadSpec kWorkloads[] = {
    {"wallet-hot", Traffic::kPoint, true, false, 50, 100},
    {"wallet-cold", Traffic::kPoint, false, false, 50, 120},
    {"bulk-history", Traffic::kBulk, true, false, 50, 300},
    {"append-while-serving", Traffic::kPoint, true, true, 50, 200},
};

const WorkloadSpec* find_workload(const std::string& name) {
  for (const WorkloadSpec& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

struct Params {
  const WorkloadSpec* spec = nullptr;
  std::uint64_t seed = 0;
  std::uint32_t blocks = 0;
  double seconds = 0;  // nominal phase + ladder
  std::string out;
  std::string trace_out;  // empty = untraced
  std::size_t clients = 0;

  bool traced() const { return !trace_out.empty(); }
  // The ladder gets a quarter of the run, at most kMaxLadderSeconds, and
  // the nominal phase the rest: 20.5 s of a 25 s run, > 1000 requests at
  // 50 req/s, so >= 10 verified samples lie beyond the reported p99.
  double ladder_seconds() const { return std::min(kMaxLadderSeconds, seconds / 4); }
  double nominal_seconds() const { return seconds - ladder_seconds(); }
};

// ---------------------------------------------------------------------------
// Inputs: generated blocks, the address pool, appended batches, ground truth.

struct AddressHash {
  std::size_t operator()(const Address& a) const {
    std::size_t h = 0;
    std::memcpy(&h, a.id.bytes.data(), sizeof(h));
    return h;
  }
};

using Batch = std::vector<std::vector<Transaction>>;

/// Per-address (height, tx count, balance delta) over base + appended
/// blocks, from one pass; answers any [from, to] window.
class GroundTruth {
 public:
  GroundTruth(const std::vector<Address>& pool, const Workload& base,
              const std::vector<Batch>& appends)
      : entries_(pool.size()) {
    std::unordered_map<Address, std::size_t, AddressHash> index;
    for (std::size_t i = 0; i < pool.size(); ++i) index.emplace(pool[i], i);
    std::uint64_t height = 0;
    auto scan = [&](const std::vector<Transaction>& block) {
      ++height;
      for (const Transaction& tx : block) {
        std::vector<std::pair<std::size_t, Amount>> touched;
        auto touch = [&](const Address& a, Amount delta) {
          auto it = index.find(a);
          if (it == index.end()) return;
          for (auto& t : touched) {
            if (t.first == it->second) {
              t.second += delta;
              return;
            }
          }
          touched.emplace_back(it->second, delta);
        };
        for (const TxOutput& o : tx.outputs) touch(o.address, o.value);
        for (const TxInput& in : tx.inputs) touch(in.address, -in.value);
        for (const auto& [ix, delta] : touched) {
          std::vector<Entry>& e = entries_[ix];
          if (e.empty() || e.back().height != height) e.push_back({height, 0, 0});
          e.back().txs += 1;
          e.back().delta += delta;
        }
      }
    };
    for (const auto& block : base.blocks) scan(block);
    for (const Batch& batch : appends) {
      for (const auto& block : batch) scan(block);
    }
  }

  /// Empty when `h` matches the truth for pool address `ix` over
  /// [from, to]; otherwise what differs.
  std::string mismatch(std::size_t ix, std::uint64_t from, std::uint64_t to,
                       const VerifiedHistory& h) const {
    std::uint64_t txs = 0;
    Amount balance = 0;
    for (const Entry& e : entries_[ix]) {
      if (e.height < from || e.height > to) continue;
      txs += e.txs;
      balance += e.delta;
    }
    if (h.total_txs() == txs && h.balance() == balance) return {};
    std::ostringstream s;
    s << "pool address " << ix << " heights " << from << ".." << to
      << ": verified " << h.total_txs() << " txs / balance " << h.balance()
      << ", truth " << txs << " txs / balance " << balance;
    return s.str();
  }

  /// Blocks that involve address `ix`.
  std::size_t history_blocks(std::size_t ix) const { return entries_[ix].size(); }

 private:
  struct Entry {
    std::uint64_t height;
    std::uint32_t txs;
    Amount delta;
  };
  std::vector<std::vector<Entry>> entries_;
};

struct Inputs {
  std::shared_ptr<const Workload> workload;
  std::vector<Batch> appends;
  std::vector<Address> pool;
  std::vector<double> zipf_cdf;  // hot pools only
  std::unique_ptr<GroundTruth> truth;
};

/// Background addresses drawn from the generated blocks with the seed.
std::vector<Address> draw_pool(const Workload& w, std::size_t n, Rng& rng) {
  std::set<Address> seen;
  std::vector<Address> pool;
  for (std::size_t attempt = 0; pool.size() < n && attempt < 100 * n;
       ++attempt) {
    const auto& block = w.blocks[rng.below(w.blocks.size())];
    const Transaction& tx = block[rng.below(block.size())];
    const Address& a = tx.outputs[rng.below(tx.outputs.size())].address;
    if (seen.insert(a).second) pool.push_back(a);
  }
  return pool;
}

Inputs make_inputs(const Params& p) {
  Inputs in;
  WorkloadConfig wc;
  wc.seed = kChainSeed;
  wc.num_blocks = p.blocks;
  wc.profiles.clear();  // Table III replies (9-12 MB) never fit the cache
  in.workload = std::make_shared<const Workload>(generate_workload(wc));

  // Appended batches continue the chain with fresh seeded traffic: enough
  // for one writer tick per second of the run, or the post-run probe.
  const std::size_t batches =
      p.spec->append ? static_cast<std::size_t>(p.seconds) + 8 : kProbeAppends;
  WorkloadConfig ac = wc;
  ac.seed = p.seed ^ 0x5eed'a99e'4d00'0001ull;
  ac.num_blocks = static_cast<std::uint32_t>(batches * kAppendBlocks);
  Workload extra = generate_workload(ac);
  for (std::size_t b = 0; b < batches; ++b) {
    in.appends.emplace_back(
        std::make_move_iterator(extra.blocks.begin() + b * kAppendBlocks),
        std::make_move_iterator(extra.blocks.begin() + (b + 1) * kAppendBlocks));
  }

  Rng rng(p.seed ^ 0x900d'900d'0000'0000ull);
  in.pool = draw_pool(*in.workload, kColdPool, rng);
  if (p.spec->hot) {
    // The drawn addresses whose history is closest to kHotHistoryBlocks
    // (all of them exactly, on a full-length chain), in draw order.
    const GroundTruth scan(in.pool, *in.workload, {});
    std::vector<std::size_t> order(in.pool.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    auto distance = [&](std::size_t i) {
      const std::size_t n = scan.history_blocks(i);
      return n > kHotHistoryBlocks ? n - kHotHistoryBlocks : kHotHistoryBlocks - n;
    };
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) { return distance(a) < distance(b); });
    std::vector<Address> hot;
    for (std::size_t k = 0; k < kHotPool && k < order.size(); ++k) {
      hot.push_back(in.pool[order[k]]);
    }
    in.pool = std::move(hot);
    double total = 0;
    for (std::size_t k = 0; k < in.pool.size(); ++k) {
      total += 1.0 / static_cast<double>(k + 1);
      in.zipf_cdf.push_back(total);
    }
    for (double& c : in.zipf_cdf) c /= total;
  }
  in.truth = std::make_unique<GroundTruth>(in.pool, *in.workload, in.appends);
  return in;
}

// ---------------------------------------------------------------------------
// Schedules.

struct Request {
  CoreRequest::Kind kind = CoreRequest::Kind::kPoint;
  std::uint32_t n = 1;  // addresses used from `ix`
  std::array<std::uint32_t, kBulkAddresses> ix{};
  std::uint64_t from = 0, to = 0;  // range requests
  double at_ms = 0;                // due time, relative to the phase start
};

std::uint32_t pick(const Inputs& in, Rng& rng) {
  if (in.zipf_cdf.empty()) {
    return static_cast<std::uint32_t>(rng.below(in.pool.size()));
  }
  const double u = rng.uniform();
  auto it = std::lower_bound(in.zipf_cdf.begin(), in.zipf_cdf.end(), u);
  return static_cast<std::uint32_t>(
      std::min<std::size_t>(it - in.zipf_cdf.begin(), in.pool.size() - 1));
}

// bulk-history's mix: 40% batch, 30% range, 30% multi, exact in every ten
// consecutive requests and shuffled by the seed. Drawing each shape on its
// own moved reply_kb_per_query ~10% between seeds, batches being most of
// the bytes.
constexpr std::array<CoreRequest::Kind, 10> kBulkMix = {
    CoreRequest::Kind::kBatch, CoreRequest::Kind::kBatch, CoreRequest::Kind::kBatch,
    CoreRequest::Kind::kBatch, CoreRequest::Kind::kRange, CoreRequest::Kind::kRange,
    CoreRequest::Kind::kRange, CoreRequest::Kind::kMulti, CoreRequest::Kind::kMulti,
    CoreRequest::Kind::kMulti};

Request draw_request(CoreRequest::Kind kind, const Inputs& in, std::uint64_t tip,
                     Rng& rng) {
  Request r;
  r.kind = kind;
  if (kind == CoreRequest::Kind::kPoint) {
    r.ix[0] = pick(in, rng);
    return r;
  }
  if (kind == CoreRequest::Kind::kRange) {
    r.ix[0] = pick(in, rng);
    const std::uint64_t window = std::min(kRangeWindow, tip);
    r.from = 1 + rng.below(tip - window + 1);
    r.to = r.from + window - 1;
    return r;
  }
  r.n = static_cast<std::uint32_t>(std::min<std::size_t>(kBulkAddresses, in.pool.size()));
  for (std::uint32_t k = 0; k < r.n;) {
    const std::uint32_t c = pick(in, rng);
    if (std::find(r.ix.begin(), r.ix.begin() + k, c) == r.ix.begin() + k) {
      r.ix[k++] = c;
    }
  }
  return r;
}

/// Poisson arrivals at `rate` over `seconds`; phase `phase` of a run.
/// Arrival times come from a stream every run shares and the requests from
/// the seed: repeating one seed moves slo_qps by < 1%, while drawing the
/// times from the seed too moved it 11-19% between seeds, so the times
/// would swamp every difference the system makes.
std::vector<Request> poisson_schedule(const WorkloadSpec& spec,
                                      const Inputs& in, std::uint64_t seed,
                                      std::uint64_t phase, double rate,
                                      double seconds) {
  Rng arrivals(kChainSeed * 1000003 + phase);
  Rng content(seed * 1000003 + phase);
  const std::uint64_t tip = in.workload->blocks.size();
  std::array<CoreRequest::Kind, kBulkMix.size()> mix = kBulkMix;
  std::vector<Request> out;
  double t = 0;
  for (;;) {
    t += -std::log(1.0 - arrivals.uniform()) / rate;
    if (t >= seconds) break;
    CoreRequest::Kind kind = CoreRequest::Kind::kPoint;
    if (spec.traffic == Traffic::kBulk) {
      const std::size_t slot = out.size() % mix.size();
      if (slot == 0) {  // Fisher-Yates
        for (std::size_t k = mix.size() - 1; k > 0; --k) {
          std::swap(mix[k], mix[content.below(k + 1)]);
        }
      }
      kind = mix[slot];
    }
    Request r = draw_request(kind, in, tip, content);
    r.at_ms = t * 1000.0;
    out.push_back(r);
  }
  return out;
}

// ---------------------------------------------------------------------------
// The system under test.

struct Client {
  Client(std::uint16_t port, const ProtocolConfig& config,
         const TraceSwitch* trace)
      : tcp(port), wire(tcp, trace), light(config) {}

  TcpTransport tcp;
  BenchTransport wire;
  LightNode light;
};

/// One set-up. Members are declared in dependency order so destruction
/// tears down clients, then the server, then the engine, then the node.
struct System {
  std::unique_ptr<DiskChainStore> store;  // append-while-serving only
  std::unique_ptr<FullNode> full;
  std::unique_ptr<ServerRecorder> recorder;  // traced runs only
  std::unique_ptr<ServingEngine> engine;
  std::unique_ptr<ReactorServer> server;
  std::vector<std::unique_ptr<Client>> clients;
  std::unique_ptr<Client> watcher;  // sees appends become visible
  std::atomic<std::uint64_t> published_tip{0};
};

/// Engine, reactor and light nodes over an already-built `sys.full`.
void start_serving(System& sys, std::size_t clients, TraceSwitch* trace) {
  sys.engine = std::make_unique<ServingEngine>(*sys.full, ServingEngineOptions{});
  ReactorServerOptions sopts;
  sopts.io_threads = 1;
  sopts.events = &sys.engine->metrics();
  ReactorServer::AsyncHandler handler;
  if (trace != nullptr) {
    sys.recorder = std::make_unique<ServerRecorder>(*trace);
    handler = sys.recorder->handler(*sys.engine);
  } else {
    handler = [engine = sys.engine.get()](ConnId conn, ByteSpan req,
                                          ReactorServer::CompletionFn done) {
      engine->submit(conn, req, std::move(done));
    };
  }
  sys.server = std::make_unique<ReactorServer>(std::move(handler), sopts);
  // Connections are made and synced one at a time, so the server sees them
  // in client order (ServerRecorder pairs spans with clients by it).
  const ProtocolConfig config = bench_config();
  for (std::size_t i = 0; i <= clients; ++i) {
    auto c = std::make_unique<Client>(sys.server->port(), config, trace);
    if (!c->light.sync_headers(c->wire)) {
      throw std::runtime_error("light node header sync failed");
    }
    if (i < clients) {
      sys.clients.push_back(std::move(c));
    } else {
      sys.watcher = std::move(c);
    }
  }
  sys.published_tip = sys.full->tip_height();
}

/// The append workload's store, read-write with the default durability
/// (fsync at commit) whatever LVQ_STORE_SYNC says.
std::unique_ptr<DiskChainStore> open_store(const std::string& dir) {
  DiskChainStore::Options opts;
  opts.sync = SyncMode::kCommit;
  return DiskChainStore::open(dir, bench_config(), opts);
}

/// Writes the append workload's store with a write-through ChainBuilder
/// build in a child process, so the build's memory never counts toward this
/// process's rss_mb; returns the build's wall time in ms. The child builds
/// on a pool of its own: a forked copy of ThreadPool::shared() would have no
/// worker threads.
double build_store_in_child(const Inputs& in, const std::string& dir) {
  std::filesystem::remove_all(dir);
  const Clock::time_point t0 = Clock::now();
  const pid_t pid = fork();
  if (pid < 0) throw std::runtime_error("fork failed");
  if (pid == 0) {
    int rc = 0;
    try {
      auto store = open_store(dir);
      ChainBuildOptions opts;
      opts.store = store.get();
      opts.threads = std::max(1u, std::thread::hardware_concurrency());
      ChainBuilder::build(in.workload, bench_config(), opts);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "store build: %s\n", e.what());
      rc = 1;
    }
    _exit(rc);
  }
  int status = 0;
  while (waitpid(pid, &status, 0) < 0) {
    if (errno != EINTR) throw std::runtime_error("waitpid failed");
  }
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    throw std::runtime_error("store build failed");
  }
  return ms_between(t0, Clock::now());
}

struct SetupTiming {
  double setup_s = 0;
  double build_ms = 0;  // ChainBuilder::build (point/bulk workloads)
};

/// Point/bulk: ChainBuilder build + engine/reactor start + header sync.
/// append-while-serving: DiskChainStore::open + load_context.
std::unique_ptr<System> set_up(const Params& p, const Inputs& in,
                               const std::string& store_dir,
                               TraceSwitch* trace, SetupTiming* timing) {
  auto sys = std::make_unique<System>();
  const Clock::time_point t0 = Clock::now();
  if (p.spec->append) {
    sys->store = open_store(store_dir);
    sys->full = std::make_unique<FullNode>(sys->store->load_context());
    timing->setup_s = ms_between(t0, Clock::now()) / 1000.0;
    start_serving(*sys, p.clients, trace);
    return sys;
  }
  auto ctx = ChainBuilder::build(in.workload, bench_config());
  timing->build_ms = ms_between(t0, Clock::now());
  sys->full = std::make_unique<FullNode>(std::move(ctx));
  start_serving(*sys, p.clients, trace);
  timing->setup_s = ms_between(t0, Clock::now()) / 1000.0;
  return sys;
}

// ---------------------------------------------------------------------------
// Running requests.

enum class Outcome : std::uint8_t {
  kOk,
  kTransport,  // TransportError: timeout, disconnect, torn frame
  kBusy,       // kBusy envelope
  kExpired,    // kExpired envelope
  kRejected,   // an honest reply that did not verify (a violation)
  kSkipped,    // due so long ago it was never sent
  kTampered,   // the deliberately corrupted reply; excluded from stats
};

struct Sample {
  double sched_ms = 0, start_ms = 0, end_ms = 0;
  double node_ms = 0;  // wall time inside LightNode::query* calls
  Outcome outcome = Outcome::kSkipped;
  std::uint64_t reply_bytes = 0;
  std::uint32_t client = 0;
  std::uint64_t rt_first = 0, rt_last = 0;  // this request's round trips
  bool traced = false;

  double latency_ms() const { return end_ms - sched_ms; }
  double lag_ms() const { return start_ms - sched_ms; }
};

/// Wrong outputs seen by any thread; the first 32 are kept.
class Violations {
 public:
  void add(std::string what) {
    std::lock_guard<std::mutex> lock(mu_);
    if (list_.size() < 32) list_.push_back(std::move(what));
  }
  std::vector<std::string> list() const {
    std::lock_guard<std::mutex> lock(mu_);
    return list_;
  }

 private:
  mutable std::mutex mu_;  // guards list_
  std::vector<std::string> list_;
};

struct Attempt {
  bool ok = false;
  std::uint64_t reply_bytes = 0;
  std::string mismatch;  // verified but disagrees with the ground truth
  std::string error;     // first failed outcome's error
};

void judge(const VerifyOutcome& o, std::size_t ix, std::uint64_t from,
           std::uint64_t to, const Inputs& in, Attempt* a) {
  if (!o.ok) {
    a->ok = false;
    if (a->error.empty()) a->error = verify_error_name(o.error);
    return;
  }
  if (a->mismatch.empty()) a->mismatch = in.truth->mismatch(ix, from, to, o.history);
}

Attempt attempt(Client& c, const Request& r, const Inputs& in,
                double* node_ms) {
  Attempt a;
  a.ok = true;
  const std::uint64_t tip = c.light.tip_height();
  std::vector<Address> addrs;
  for (std::uint32_t k = 0; k < r.n; ++k) addrs.push_back(in.pool[r.ix[k]]);
  const Clock::time_point t0 = Clock::now();
  switch (r.kind) {
    case CoreRequest::Kind::kPoint: {
      LightNode::QueryResult res = c.light.query(c.wire, addrs[0]);
      *node_ms += ms_between(t0, Clock::now());
      a.reply_bytes = res.response_bytes;
      judge(res.outcome, r.ix[0], 1, tip, in, &a);
      break;
    }
    case CoreRequest::Kind::kBatch: {
      std::vector<LightNode::QueryResult> res = c.light.query_batch(c.wire, addrs);
      *node_ms += ms_between(t0, Clock::now());
      for (std::size_t k = 0; k < res.size(); ++k) {
        a.reply_bytes += res[k].response_bytes;
        judge(res[k].outcome, r.ix[k], 1, tip, in, &a);
      }
      break;
    }
    case CoreRequest::Kind::kRange: {
      LightNode::QueryResult res =
          c.light.query_range(c.wire, addrs[0], r.from, r.to);
      *node_ms += ms_between(t0, Clock::now());
      a.reply_bytes = res.response_bytes;
      judge(res.outcome, r.ix[0], r.from, r.to, in, &a);
      break;
    }
    case CoreRequest::Kind::kMulti: {
      LightNode::MultiQueryResult res = c.light.query_multi(c.wire, addrs);
      *node_ms += ms_between(t0, Clock::now());
      a.reply_bytes = res.response_bytes;
      for (std::size_t k = 0; k < res.outcomes.size(); ++k) {
        judge(res.outcomes[k], r.ix[k], 1, tip, in, &a);
      }
      break;
    }
  }
  return a;
}

/// Runs one request on client `c`, fills the outcome half of `s`.
void execute(System& sys, Client& c, const Request& r, const Inputs& in,
             bool append, Violations& v, Sample& s) {
  try {
    if (append &&
        sys.published_tip.load(std::memory_order_acquire) > c.light.tip_height()) {
      c.light.sync_new_headers(c.wire);
    }
    Attempt a = attempt(c, r, in, &s.node_ms);
    if (c.wire.last_tampered()) {
      s.reply_bytes = a.reply_bytes;
      s.outcome = Outcome::kTampered;
      if (a.ok) v.add("a reply with a flipped proof byte verified");
      return;
    }
    auto reply_type = [&c] { return c.wire.last_reply_type(); };
    const bool shed = reply_type() == static_cast<std::uint8_t>(MsgType::kBusy) ||
                      reply_type() == static_cast<std::uint8_t>(MsgType::kExpired);
    if (!a.ok && !shed && append) {
      // The tip moved under the request: re-sync and retry once, inside
      // the same latency sample.
      const std::uint64_t before = c.light.tip_height();
      if (c.light.sync_new_headers(c.wire) && c.light.tip_height() > before) {
        a = attempt(c, r, in, &s.node_ms);
      }
    }
    const std::uint8_t type = reply_type();
    s.reply_bytes = a.reply_bytes;
    if (a.ok) {
      s.outcome = Outcome::kOk;
      if (!a.mismatch.empty()) v.add("verified history differs from truth: " + a.mismatch);
    } else if (type == static_cast<std::uint8_t>(MsgType::kBusy)) {
      s.outcome = Outcome::kBusy;
    } else if (type == static_cast<std::uint8_t>(MsgType::kExpired)) {
      s.outcome = Outcome::kExpired;
    } else {
      s.outcome = Outcome::kRejected;
      v.add("an honest reply did not verify: " + a.error);
    }
  } catch (const TransportError&) {
    s.outcome = Outcome::kTransport;
  }
}

struct PhaseOptions {
  double skip_late_ms = 1e18;  // requests this late are never sent
  bool tamper = false;         // corrupt one reply past the phase's midpoint
  TraceSwitch* trace = nullptr;  // alternate trace slots during the phase
};

std::vector<Sample> run_phase(System& sys, const Inputs& in, bool append,
                              const std::vector<Request>& sched,
                              const PhaseOptions& opt, Violations& v) {
  std::vector<Sample> samples(sched.size());
  std::atomic<std::size_t> next{0};
  std::atomic<bool> tamper_pending{opt.tamper};
  const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(5);
  if (opt.trace != nullptr) opt.trace->start(t0);
  std::vector<std::thread> threads;
  for (std::size_t ci = 0; ci < sys.clients.size(); ++ci) {
    threads.emplace_back([&, ci] {
      Client& c = *sys.clients[ci];
      for (;;) {
        const std::size_t i = next.fetch_add(1);
        if (i >= sched.size()) return;
        const Request& r = sched[i];
        Sample& s = samples[i];
        s.client = static_cast<std::uint32_t>(ci);
        s.sched_ms = r.at_ms;
        std::this_thread::sleep_until(
            t0 + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double, std::milli>(r.at_ms)));
        const Clock::time_point start = Clock::now();
        s.start_ms = ms_between(t0, start);
        s.end_ms = s.start_ms;
        if (s.lag_ms() > opt.skip_late_ms) continue;  // kSkipped
        s.traced = opt.trace != nullptr && opt.trace->on(start);
        const bool tamper = 2 * i >= sched.size() && tamper_pending.exchange(false);
        if (tamper) c.wire.arm_tamper();
        s.rt_first = c.wire.round_trips();
        execute(sys, c, r, in, append, v, s);
        s.end_ms = ms_between(t0, Clock::now());
        s.rt_last = c.wire.round_trips();
        if (tamper && s.outcome != Outcome::kTampered) {
          c.wire.disarm_tamper();  // reply carried no proof; try the next one
          tamper_pending = true;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  if (opt.trace != nullptr) opt.trace->stop();
  if (opt.tamper && tamper_pending) v.add("no reply could be tampered with");
  return samples;
}

// ---------------------------------------------------------------------------
// Ladder.

struct Step {
  double rate = 0;
  double seconds = 0;
  std::size_t n = 0, failed = 0;
  double tail_ms = 0;  // at kSloQuantile
  bool pass = false;
};

void print_step(const char* what, const Step& st) {
  std::fprintf(stderr, "  %-7s %8.1f req/s  n=%-5zu failed=%-4zu p%.0f=%.2f ms  %s\n",
               what, st.rate, st.n, st.failed, kSloQuantile * 100, st.tail_ms,
               st.pass ? "pass" : "FAIL");
}

/// The kSloQuantile tail over every request of a step. A skipped request
/// counts with the lag it had when skipped (a lower bound on its latency);
/// any failure fails the step.
Step evaluate(const std::vector<Sample>& samples, double rate, double seconds,
              double slo_ms) {
  Step st;
  st.rate = rate;
  st.seconds = seconds;
  std::vector<double> lat;
  for (const Sample& s : samples) {
    if (s.outcome == Outcome::kTampered) continue;
    ++st.n;
    if (s.outcome != Outcome::kOk) ++st.failed;
    // A skipped request's latency_ms() is its lag when it was skipped.
    const bool timed = s.outcome == Outcome::kOk || s.outcome == Outcome::kSkipped;
    lat.push_back(timed ? s.latency_ms() : 1e9);
  }
  st.tail_ms = quantile(lat, kSloQuantile);
  st.pass = st.failed == 0 && st.tail_ms <= slo_ms;
  return st;
}

/// Linear interpolation of the tail between the last passing and first
/// failing step: the rate at which it crosses the SLO.
double interpolate(const Step& lo, const Step& hi, double slo_ms) {
  if (hi.tail_ms <= slo_ms || hi.tail_ms <= lo.tail_ms) return lo.rate;
  const double f = (slo_ms - lo.tail_ms) / (hi.tail_ms - lo.tail_ms);
  return lo.rate + (hi.rate - lo.rate) * std::clamp(f, 0.0, 1.0);
}

struct Ladder {
  std::vector<Step> steps;  // in the order run; steps[0] is the nominal phase
  double slo_qps = 0;
  bool saturated = false;  // the budget ran out before any step failed
};

double step_seconds(double rate) {
  return std::max(kMinStepSeconds, static_cast<double>(kStepSamples) / rate);
}

Ladder run_ladder(System& sys, const Params& p, const Inputs& in,
                  const Step& nominal, Violations& v) {
  Ladder L;
  L.steps.push_back(nominal);
  const double slo = p.spec->slo_ms;
  const double skip = std::max(1000.0, 10 * slo);
  double budget = p.ladder_seconds();
  std::uint64_t phase = 1;  // 0 is the nominal phase
  auto run = [&](double rate) {
    const double secs = std::max(kMinStepSeconds, std::min(step_seconds(rate), budget));
    budget -= secs;
    std::vector<Request> sched =
        poisson_schedule(*p.spec, in, p.seed, phase++, rate, secs);
    PhaseOptions opt;
    opt.skip_late_ms = skip;
    Step st = evaluate(run_phase(sys, in, p.spec->append, sched, opt, v), rate,
                       secs, slo);
    L.steps.push_back(st);
    print_step("ladder", st);
    return st;
  };

  std::optional<Step> lo, hi;
  (nominal.pass ? lo : hi) = nominal;
  // Bracket: up by x1.6 from a passing nominal, down from a failing one.
  while (!(lo && hi)) {
    const double rate = lo ? lo->rate * kLadderRatio : hi->rate / kLadderRatio;
    if (rate < 1 || (budget < step_seconds(rate) && L.steps.size() > 1)) break;
    Step st = run(rate);
    (st.pass ? lo : hi) = st;
  }
  // Bisect the bracket while the budget lasts.
  while (lo && hi) {
    const double rate = std::sqrt(lo->rate * hi->rate);
    if (budget < step_seconds(rate)) break;
    Step st = run(rate);
    (st.pass ? lo : hi) = st;
  }
  L.saturated = lo && !hi;
  L.slo_qps = !lo ? 0 : hi ? interpolate(*lo, *hi, slo) : lo->rate;
  return L;
}

// ---------------------------------------------------------------------------
// Appends: the writer of append-while-serving, and the probe elsewhere.

struct AppendSample {
  double extend_ms = 0, rebind_ms = 0, header_sync_ms = 0, visible_ms = 0;
};

/// Appends one batch, rebinds the engine, and times until the watcher light
/// node has synced the new headers and verified a query at the new tip.
AppendSample append_and_observe(System& sys, const Inputs& in,
                                std::size_t batch, Violations& v) {
  Batch blocks = in.appends[batch];
  AppendSample a;
  const Clock::time_point t0 = Clock::now();
  ChainBuildOptions opts;
  opts.store = sys.store.get();
  sys.full->append_blocks(std::move(blocks), opts);
  const Clock::time_point t1 = Clock::now();
  sys.engine->rebind();
  const Clock::time_point t2 = Clock::now();
  sys.published_tip.store(sys.full->tip_height(), std::memory_order_release);
  Client& w = *sys.watcher;
  if (!w.light.sync_new_headers(w.wire) || w.light.tip_height() != sys.full->tip_height()) {
    v.add("watcher could not sync the appended headers");
  }
  const Clock::time_point t3 = Clock::now();
  Request r;
  r.ix[0] = static_cast<std::uint32_t>(batch % in.pool.size());
  double node_ms = 0;
  Attempt q = attempt(w, r, in, &node_ms);
  const Clock::time_point t4 = Clock::now();
  if (!q.ok) v.add("watcher query at the new tip did not verify: " + q.error);
  if (!q.mismatch.empty()) v.add("watcher history differs from truth: " + q.mismatch);
  a.extend_ms = ms_between(t0, t1);
  a.rebind_ms = ms_between(t1, t2);
  a.header_sync_ms = ms_between(t2, t3);
  a.visible_ms = ms_between(t0, t4);
  return a;
}

/// Appends one batch per second from its own thread until stopped.
class AppendWriter {
 public:
  AppendWriter(System& sys, const Inputs& in, Violations& v)
      : thread_([this, &sys, &in, &v] {
          std::unique_lock<std::mutex> lock(mu_);
          std::size_t batch = 0;
          while (!cv_.wait_for(lock, std::chrono::seconds(1), [this] { return stop_; }) &&
                 batch < in.appends.size()) {
            lock.unlock();
            try {
              AppendSample a = append_and_observe(sys, in, batch++, v);
              lock.lock();
              samples_.push_back(a);
            } catch (const std::exception& e) {
              v.add(std::string("append failed: ") + e.what());
              lock.lock();
            }
          }
        }) {}
  AppendWriter(const AppendWriter&) = delete;
  AppendWriter& operator=(const AppendWriter&) = delete;
  ~AppendWriter() { stop(); }

  std::vector<AppendSample> stop() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    if (thread_.joinable()) thread_.join();
    return samples_;
  }

 private:
  std::mutex mu_;  // guards stop_, samples_
  std::condition_variable cv_;
  bool stop_ = false;
  std::vector<AppendSample> samples_;
  std::thread thread_;  // last: starts after the members it uses
};

// ---------------------------------------------------------------------------
// Process accounting and environment.

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto sec = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) / 1e6;
  };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

/// A "VmRSS"/"VmHWM" line of /proc/self/status, in MiB.
double proc_status_mib(const char* key) {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind(key, 0) == 0) {
      return std::strtod(line.c_str() + std::strlen(key) + 1, nullptr) / 1024.0;
    }
  }
  return 0;
}

bool cpu_has_flag(const std::string& flag) {
  std::ifstream f("/proc/cpuinfo");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("flags", 0) == 0) {
      return (line + " ").find(" " + flag + " ") != std::string::npos;
    }
  }
  return false;
}

// ---------------------------------------------------------------------------
// JSON output.

std::string jnum(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string jstr(const std::string& s) {
  std::string out = "\"";
  for (char ch : s) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      out += ' ';
    } else {
      out += ch;
    }
  }
  return out + "\"";
}

const char* outcome_name(Outcome o) {
  switch (o) {
    case Outcome::kOk: return "ok";
    case Outcome::kTransport: return "transport";
    case Outcome::kBusy: return "busy";
    case Outcome::kExpired: return "expired";
    case Outcome::kRejected: return "rejected";
    case Outcome::kSkipped: return "skipped";
    case Outcome::kTampered: return "tampered";
  }
  return "?";
}

struct RunResult {
  Metrics metrics;
  std::size_t attempted = 0, failed = 0;
  std::vector<std::string> violations;
  std::string json;
  std::string trace_json;  // per-request spans of a traced run
};

// ---------------------------------------------------------------------------
// Per-layer decomposition of a traced nominal phase.

/// Fills the per-layer metrics; returns one JSON row per matched request
/// (the trace file). Per request,
///   verified = lag + reactor + submit + verify + unattributed.
std::string trace_metrics(const System& sys, const std::vector<Sample>& nominal,
                          const std::map<std::pair<ConnId, std::uint64_t>, ServerSpan>& spans,
                          const std::vector<ConnId>& conns, Metrics* m,
                          std::ostringstream* detail) {
  std::vector<double> query, rtt, verify, submit, reactor, unattributed;
  std::vector<double> on_lat, off_lat;
  std::size_t matched = 0, unmatched = 0;
  std::ostringstream rows;
  for (const Sample& s : nominal) {
    if (s.outcome != Outcome::kOk) continue;
    (s.traced ? on_lat : off_lat).push_back(s.latency_ms());
    if (!s.traced) continue;
    const Client& c = *sys.clients[s.client];
    double rt_ms = 0, span_ms = 0;
    std::size_t found = 0;
    for (const RoundTrip& rt : c.wire.log()) {
      if (rt.seq < s.rt_first || rt.seq >= s.rt_last) continue;
      rt_ms += ms_between(rt.start, rt.end);
      auto it = spans.find({s.client < conns.size() ? conns[s.client] : 0, rt.seq});
      if (it == spans.end() || it->second.request_type != rt.request_type ||
          it->second.submit < rt.start || it->second.done > rt.end) {
        continue;
      }
      span_ms += ms_between(it->second.submit, it->second.done);
      ++found;
    }
    if (found == 0 || found != s.rt_last - s.rt_first) {
      ++unmatched;
      continue;
    }
    ++matched;
    query.push_back(s.node_ms);
    rtt.push_back(rt_ms);
    verify.push_back(s.node_ms - rt_ms);
    submit.push_back(span_ms);
    reactor.push_back(rt_ms - span_ms);
    unattributed.push_back(s.latency_ms() - s.lag_ms() - s.node_ms);
    rows << (matched > 1 ? ",\n" : "") << "{\"client\": " << s.client
         << ", \"sched_ms\": " << jnum(s.sched_ms) << ", \"verified_ms\": "
         << jnum(s.latency_ms()) << ", \"lag_ms\": " << jnum(s.lag_ms())
         << ", \"reactor_ms\": " << jnum(reactor.back()) << ", \"submit_ms\": "
         << jnum(span_ms) << ", \"verify_ms\": " << jnum(verify.back())
         << ", \"unattributed_ms\": " << jnum(unattributed.back()) << "}";
  }
  std::size_t inline_done = 0;
  for (const auto& [key, span] : spans) inline_done += span.inline_done ? 1 : 0;

  auto put = [&](const std::string& name, std::vector<double> v) {
    (*m)[name + ".p50"] = {quantile(v, 0.5), "ms"};
    (*m)[name + ".p99"] = {quantile(v, 0.99), "ms"};
  };
  put("node.query_ms", query);
  put("node.verify_ms", verify);
  put("net.round_trip_ms", rtt);
  put("net.reactor_ms", reactor);
  put("server.submit_ms", submit);
  (*m)["server.inline_ratio"] = {
      spans.empty() ? 0.0 : static_cast<double>(inline_done) / static_cast<double>(spans.size()),
      "ratio"};
  (*m)["trace.unattributed_ms.p50"] = {quantile(unattributed, 0.5), "ms"};
  const double on = quantile(on_lat, 0.5), off = quantile(off_lat, 0.5);
  (*m)["trace.overhead_pct"] = {off > 0 ? (on - off) / off * 100.0 : 0.0, "%"};
  *detail << "\"trace\": {\"matched\": " << matched << ", \"unmatched\": " << unmatched
          << ", \"server_spans\": " << spans.size() << ", \"traced_requests\": "
          << on_lat.size() << ", \"untraced_requests\": " << off_lat.size() << "}, ";
  return "[\n" + rows.str() + "\n]\n";
}

std::vector<CoreRequest> distinct_core_requests(const Inputs& in,
                                                const std::vector<Request>& sched) {
  std::set<std::tuple<int, std::vector<std::uint32_t>, std::uint64_t, std::uint64_t>> seen;
  std::vector<CoreRequest> out;
  for (const Request& r : sched) {
    if (out.size() >= kReplayRequests) break;
    std::vector<std::uint32_t> ix(r.ix.begin(), r.ix.begin() + r.n);
    if (!seen.insert({static_cast<int>(r.kind), ix, r.from, r.to}).second) continue;
    CoreRequest c;
    c.kind = r.kind;
    for (std::uint32_t k : ix) c.addresses.push_back(in.pool[k]);
    c.from = r.from;
    c.to = r.to;
    out.push_back(std::move(c));
  }
  return out;
}

double median(std::vector<double> v) { return quantile(v, 0.5); }

// ---------------------------------------------------------------------------
// One workload run.

RunResult run_workload(const Params& p) {
  const WorkloadSpec& spec = *p.spec;
  RunResult res;
  Violations v;
  std::fprintf(stderr, "lvq_bench %s: seed %llu, %u blocks, %.1f s, %zu clients%s\n",
               spec.name, static_cast<unsigned long long>(p.seed), p.blocks,
               p.seconds, p.clients, p.traced() ? ", traced" : "");

  // Generation is untimed; rss_mb is measured from here.
  const Clock::time_point g0 = Clock::now();
  const Inputs in = make_inputs(p);
  const double gen_s = ms_between(g0, Clock::now()) / 1000.0;
  const double rss_base = proc_status_mib("VmRSS:");

  const std::string store_dir = p.out + ".store";
  std::vector<double> build_ms;
  // The store the server reopens is written once, before the timed set-ups.
  if (spec.append) build_ms.push_back(build_store_in_child(in, store_dir));

  TraceSwitch trace_switch;
  TraceSwitch* trace = p.traced() ? &trace_switch : nullptr;
  std::vector<double> setup_s;
  std::unique_ptr<System> sys;
  for (int i = 0; i < kSetups; ++i) {
    sys.reset();
    SetupTiming t;
    sys = set_up(p, in, store_dir, trace, &t);
    setup_s.push_back(t.setup_s);
    if (!spec.append) build_ms.push_back(t.build_ms);
  }

  if (spec.hot) {  // caches filled before timing: one query per hot address
    std::vector<Request> warm(in.pool.size());
    for (std::size_t k = 0; k < warm.size(); ++k) warm[k].ix[0] = static_cast<std::uint32_t>(k);
    run_phase(*sys, in, spec.append, warm, PhaseOptions{}, v);
  }

  const std::vector<Request> nominal_sched =
      poisson_schedule(spec, in, p.seed, 0, spec.nominal_rate, p.nominal_seconds());
  const std::uint64_t store_bytes0 = sys->store ? sys->store->info().total_bytes : 0;
  std::unique_ptr<AppendWriter> writer;
  if (spec.append) writer = std::make_unique<AppendWriter>(*sys, in, v);

  const MetricsSnapshot snap0 = sys->engine->snapshot();
  const double cpu0 = cpu_seconds();
  PhaseOptions nopt;
  nopt.skip_late_ms = std::max(1000.0, 10 * spec.slo_ms);
  nopt.tamper = true;
  nopt.trace = trace;
  const std::vector<Sample> nominal =
      run_phase(*sys, in, spec.append, nominal_sched, nopt, v);
  const double cpu1 = cpu_seconds();
  const MetricsSnapshot snap1 = sys->engine->snapshot();
  std::map<std::pair<ConnId, std::uint64_t>, ServerSpan> spans;
  if (sys->recorder) spans = sys->recorder->take();

  std::vector<double> lat, lag;
  std::uint64_t reply_bytes = 0;
  std::size_t ok = 0, tampered = 0;
  std::map<std::string, std::size_t> outcomes;
  for (const Sample& s : nominal) {
    ++outcomes[outcome_name(s.outcome)];
    lag.push_back(s.lag_ms());
    if (s.outcome == Outcome::kTampered) {
      ++tampered;
      continue;
    }
    ++res.attempted;
    if (s.outcome != Outcome::kOk) {
      ++res.failed;
      continue;
    }
    ++ok;
    lat.push_back(s.latency_ms());
    reply_bytes += s.reply_bytes;
  }
  const Step nominal_step =
      evaluate(nominal, spec.nominal_rate, p.nominal_seconds(), spec.slo_ms);
  print_step("nominal", nominal_step);

  const Ladder ladder = run_ladder(*sys, p, in, nominal_step, v);

  std::vector<AppendSample> appends;
  if (writer) {
    appends = writer->stop();
  } else {
    for (std::size_t b = 0; b < kProbeAppends && b < in.appends.size(); ++b) {
      appends.push_back(append_and_observe(*sys, in, b, v));
    }
  }
  const std::uint64_t appended_blocks = appends.size() * kAppendBlocks;
  const std::uint64_t store_bytes1 = sys->store ? sys->store->info().total_bytes : 0;

  Metrics& m = res.metrics;
  std::ostringstream detail;
  if (p.traced()) {
    res.trace_json = trace_metrics(*sys, nominal, spans, sys->recorder->conns(), &m, &detail);
    std::vector<double> prove =
        replay_core(*sys->full->context(), distinct_core_requests(in, nominal_sched));
    m["core.prove_ms.p50"] = {quantile(prove, 0.5), "ms"};
    m["core.prove_ms.p99"] = {quantile(prove, 0.99), "ms"};
    time_primitives(std::min(1.0, p.seconds / 6), &m);  // 1 s from 6 s on
    m["loadgen.lag_ms.p99"] = {quantile(lag, 0.99), "ms"};
  }
  const double rss = proc_status_mib("VmHWM:") - rss_base;
  sys.reset();  // teardown
  std::filesystem::remove_all(store_dir);

  // End-to-end metrics.
  m["setup_s"] = {median(setup_s), "s"};
  m["verified_p50_ms"] = {quantile(lat, 0.5), "ms"};
  m["verified_p99_ms"] = {quantile(lat, 0.99), "ms"};
  m["slo_qps"] = {ladder.slo_qps, "req/s"};
  m["fail_ratio"] = {res.attempted == 0 ? 1.0 : static_cast<double>(res.failed) / res.attempted,
                     "ratio"};
  m["reply_kb_per_query"] = {ok == 0 ? 0.0 : static_cast<double>(reply_bytes) / ok / 1024.0, "KiB"};
  m["cpu_ms_per_query"] = {ok == 0 ? 0.0 : (cpu1 - cpu0) * 1000.0 / ok, "ms"};
  m["rss_mb"] = {rss, "MiB"};
  std::vector<double> visible, extend, rebind, hsync;
  for (const AppendSample& a : appends) {
    visible.push_back(a.visible_ms);
    extend.push_back(a.extend_ms);
    rebind.push_back(a.rebind_ms);
    hsync.push_back(a.header_sync_ms);
  }
  m["append_visible_p50_ms"] = {median(visible), "ms"};

  // Layer metrics that cost nothing to collect are reported on every run.
  auto ratio = [](std::uint64_t a, std::uint64_t b) {
    return a + b == 0 ? 0.0 : static_cast<double>(a) / static_cast<double>(a + b);
  };
  m["server.cache_hit_ratio"] = {ratio(snap1.cache_hits - snap0.cache_hits,
                                       snap1.cache_misses - snap0.cache_misses), "ratio"};
  m["server.cache_admit_ratio"] = {ratio(snap1.cache_admitted - snap0.cache_admitted,
                                         snap1.cache_bypassed - snap0.cache_bypassed), "ratio"};
  m["server.segment_hit_ratio"] = {ratio(snap1.segment_hits - snap0.segment_hits,
                                         snap1.segment_misses - snap0.segment_misses), "ratio"};
  m["server.cache_evictions"] = {static_cast<double>(snap1.cache_evictions - snap0.cache_evictions),
                                 "count"};
  m["server.shed"] = {static_cast<double>((snap1.rejected_busy - snap0.rejected_busy) +
                                          (snap1.backpressure_shed - snap0.backpressure_shed)),
                      "count"};
  m["core.build_ms"] = {median(build_ms), "ms"};
  m["core.extend_ms.p50"] = {median(extend), "ms"};
  m["server.rebind_ms.p50"] = {median(rebind), "ms"};
  m["node.header_sync_ms.p50"] = {median(hsync), "ms"};
  if (spec.append) {
    m["store.reopen_ms"] = {median(setup_s) * 1000.0, "ms"};
    m["store.bytes_per_block"] = {appended_blocks == 0 ? 0.0
                                      : static_cast<double>(store_bytes1 - store_bytes0) /
                                            static_cast<double>(appended_blocks),
                                  "B"};
  }

  if (tampered != 1) v.add("expected exactly one tampered reply, saw " + std::to_string(tampered));
  // The latency and reply metrics cover verified requests only, so a run
  // that sheds or drops requests at the nominal rate is not a valid run.
  if (res.failed != 0) {
    std::string what;
    for (const auto& [name, n] : outcomes) what += " " + name + "=" + std::to_string(n);
    v.add("nominal phase: " + std::to_string(res.failed) + " of " +
          std::to_string(res.attempted) + " requests failed:" + what);
  }
  if (ok < 10) v.add("nominal phase verified only " + std::to_string(ok) + " requests");
  res.violations = v.list();

  // The run's JSON: every metric, every parameter, the environment.
  std::ostringstream j;
  j << "{\"bench\": \"lvq_bench\", \"workload\": " << jstr(spec.name)
    << ", \"traced\": " << (p.traced() ? "true" : "false")
    << ", \"correct\": " << (res.violations.empty() ? "true" : "false")
    << ", \"attempted\": " << res.attempted << ", \"failed\": " << res.failed << ", ";
  j << "\"params\": {\"seed\": " << p.seed << ", \"blocks\": " << p.blocks
    << ", \"seconds\": " << jnum(p.seconds) << ", \"nominal_seconds\": "
    << jnum(p.nominal_seconds()) << ", \"ladder_seconds\": " << jnum(p.ladder_seconds())
    << ", \"clients\": " << p.clients << ", \"nominal_rate\": " << jnum(spec.nominal_rate)
    << ", \"slo_ms\": " << jnum(spec.slo_ms) << ", \"slo_quantile\": " << jnum(kSloQuantile)
    << ", \"chain_seed\": " << kChainSeed << ", \"hot_history_blocks\": "
    << (spec.hot ? kHotHistoryBlocks : 0) << ", \"ladder_ratio\": " << jnum(kLadderRatio)
    << ", \"step_samples\": " << kStepSamples << ", \"min_step_seconds\": "
    << jnum(kMinStepSeconds) << ", \"pool\": " << in.pool.size()
    << ", \"pool_distribution\": " << jstr(spec.hot ? "zipf(1.0)" : "uniform")
    << ", \"traffic\": " << jstr(spec.traffic == Traffic::kPoint ? "point" : "40% batch(4) / 30% range(256) / 30% multi(4)")
    << ", \"append_blocks_per_second\": " << (spec.append ? kAppendBlocks : 0)
    << ", \"setups\": " << kSetups << ", \"design\": \"lvq\", \"bf_bytes\": 8192, \"bf_hashes\": 10"
    << ", \"segment_length\": 128, \"engine\": \"ServingEngineOptions{}\", \"io_threads\": 1"
    << ", \"background_txs_per_block\": " << in.workload->config.background_txs_per_block << "}, ";
  j << "\"env\": {\"nproc\": " << std::thread::hardware_concurrency()
    << ", \"sha_ni\": " << (cpu_has_flag("sha_ni") ? "true" : "false")
    << ", \"sse4_2\": " << (cpu_has_flag("sse4_2") ? "true" : "false")
    << ", \"sha256_backend\": " << jstr(Sha256::backend())
    << ", \"compiler\": " << jstr(__VERSION__)
    << ", \"build_type\": " << jstr(LVQ_BENCH_BUILD_TYPE) << "}, ";
  j << "\"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : m) {
    j << (first ? "" : ", ") << jstr(name) << ": {\"value\": " << jnum(metric.value)
      << ", \"unit\": " << jstr(metric.unit) << "}";
    first = false;
  }
  j << "}, \"samples\": {\"nominal_requests\": " << nominal.size()
    << ", \"verified\": " << ok << ", \"beyond_p99\": "
    << static_cast<std::size_t>(std::floor(0.01 * static_cast<double>(ok)))
    << ", \"appends\": " << appends.size() << ", \"setup_s\": [";
  for (std::size_t i = 0; i < setup_s.size(); ++i) j << (i ? ", " : "") << jnum(setup_s[i]);
  j << "]}, \"nominal_outcomes\": {";
  first = true;
  for (const auto& [name, n] : outcomes) {
    j << (first ? "" : ", ") << jstr(name) << ": " << n;
    first = false;
  }
  j << "}, " << detail.str() << "\"ladder\": {\"saturated\": "
    << (ladder.saturated ? "true" : "false") << ", \"steps\": [";
  for (std::size_t i = 0; i < ladder.steps.size(); ++i) {
    const Step& st = ladder.steps[i];
    j << (i ? ", " : "") << "{\"rate\": " << jnum(st.rate) << ", \"seconds\": "
      << jnum(st.seconds) << ", \"n\": " << st.n << ", \"failed\": " << st.failed
      << ", \"tail_ms\": " << jnum(st.tail_ms)
      << ", \"pass\": " << (st.pass ? "true" : "false") << "}";
  }
  j << "]}, \"generation_s\": " << jnum(gen_s) << ", \"violations\": [";
  for (std::size_t i = 0; i < res.violations.size(); ++i) {
    j << (i ? ", " : "") << jstr(res.violations[i]);
  }
  j << "]}\n";
  res.json = j.str();
  return res;
}

bool write_file(const std::string& path, const std::string& data) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  f << data;
  return static_cast<bool>(f);
}

/// The run JSON, and the per-request spans of a traced run.
bool write_outputs(const Params& p, const RunResult& r) {
  return write_file(p.out, r.json) && (!p.traced() || write_file(p.trace_out, r.trace_json));
}

std::size_t client_threads() {
  return std::min<std::size_t>(4, std::max(1u, std::thread::hardware_concurrency()));
}

void print_metrics(const RunResult& r) {
  for (const auto& [name, metric] : r.metrics) {
    std::printf("%-28s %14.6g %s\n", name.c_str(), metric.value, metric.unit.c_str());
  }
  std::fflush(stdout);
}

/// Metric names listed under `section` ("end_to_end" / "per_layer") of the
/// benchmark manifest.
std::vector<std::string> manifest_names(const std::string& text,
                                        const std::string& section) {
  std::vector<std::string> names;
  std::size_t at = text.find("\"" + section + "\"");
  if (at == std::string::npos) return names;
  const std::size_t open = text.find('[', at);
  const std::size_t close = text.find(']', open);
  if (open == std::string::npos || close == std::string::npos) return names;
  const std::string key = "\"name\"";
  for (std::size_t i = text.find(key, open); i < close; i = text.find(key, i + 1)) {
    const std::size_t q0 = text.find('"', text.find(':', i) + 1);
    const std::size_t q1 = text.find('"', q0 + 1);
    names.push_back(text.substr(q0 + 1, q1 - q0 - 1));
  }
  return names;
}

/// Bare invocation: every workload briefly, traced, with the correctness
/// checks on; fails if a run is wrong or misses a manifest metric.
int smoke(const Flags& flags) {
  std::ifstream mf(LVQ_BENCH_MANIFEST);
  std::stringstream text;
  text << mf.rdbuf();
  std::vector<std::string> required = manifest_names(text.str(), "end_to_end");
  for (std::string& n : manifest_names(text.str(), "per_layer")) required.push_back(n);
  if (required.empty()) {
    std::fprintf(stderr, "smoke: no metric names in %s\n", LVQ_BENCH_MANIFEST);
    return 1;
  }
  // A private temporary directory: the bench directory beside the binary
  // must hold only executables.
  const std::filesystem::path dir = std::filesystem::temp_directory_path() /
                                    ("lvq_bench_smoke." + std::to_string(getpid()));
  std::filesystem::create_directories(dir);
  int rc = 0;
  for (const WorkloadSpec& spec : kWorkloads) {
    Params p;
    p.spec = &spec;
    p.seed = 20200704;
    p.blocks = static_cast<std::uint32_t>(flags.get_u64("blocks", 256));
    p.seconds = 1.2;
    p.clients = client_threads();
    p.out = (dir / (std::string(spec.name) + ".json")).string();
    p.trace_out = (dir / (std::string(spec.name) + ".trace.json")).string();
    RunResult r = run_workload(p);
    if (!write_outputs(p, r)) {
      std::fprintf(stderr, "smoke: cannot write %s\n", p.out.c_str());
      rc = 1;
    }
    for (const std::string& name : required) {
      if (!r.metrics.count(name)) {
        std::fprintf(stderr, "smoke %s: metric %s missing\n", spec.name, name.c_str());
        rc = 1;
      }
    }
    for (const std::string& why : r.violations) {
      std::fprintf(stderr, "smoke %s: %s\n", spec.name, why.c_str());
      rc = 1;
    }
    std::printf("smoke %-22s %s (%zu requests, %zu failed)\n", spec.name,
                r.violations.empty() ? "ok" : "WRONG", r.attempted, r.failed);
  }
  std::filesystem::remove_all(dir);
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  try {
    if (argc == 1) return smoke(flags);
    Params p;
    p.spec = find_workload(flags.get_str("workload", ""));
    p.seed = flags.get_u64("seed", 0);
    p.blocks = static_cast<std::uint32_t>(flags.get_u64("blocks", 0));
    p.seconds = flags.get_double("seconds", 0);
    p.out = flags.get_str("out", "");
    p.trace_out = flags.get_str("trace", "");
    p.clients = client_threads();
    if (p.spec == nullptr || p.blocks < kRangeWindow || p.seconds < 1 || p.out.empty()) {
      std::fprintf(stderr,
                   "usage: lvq_bench --workload=NAME --seed=N --blocks=N (>= %llu) "
                   "--seconds=S (>= 1) --out=FILE [--trace=FILE]\n"
                   "workloads: wallet-hot wallet-cold bulk-history append-while-serving\n",
                   static_cast<unsigned long long>(kRangeWindow));
      return 2;
    }
    RunResult r = run_workload(p);
    print_metrics(r);
    if (!write_outputs(p, r)) {
      std::fprintf(stderr, "cannot write %s\n", p.out.c_str());
      return 1;
    }
    for (const std::string& why : r.violations) {
      std::fprintf(stderr, "WRONG: %s\n", why.c_str());
    }
    return r.violations.empty() ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "lvq_bench: %s\n", e.what());
    return 1;
  }
}
