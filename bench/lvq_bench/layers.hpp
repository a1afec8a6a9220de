// Measurement plumbing for lvq_bench: clocks and quantiles, the client-side
// Transport decorator, the server-side submit→completion recorder, and the
// per-layer probes (core proof replay, L0 primitive loops).
//
// Every span is recorded from bench code around calls into the layers'
// public APIs; nothing here reaches into src/.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/chain_context.hpp"
#include "net/reactor_server.hpp"
#include "net/transport.hpp"
#include "server/serving_engine.hpp"

namespace lvq::lvqbench {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Nearest-rank q-quantile of `v` (sorted in place); 0 when empty.
double quantile(std::vector<double>& v, double q);

struct Metric {
  double value = 0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

/// True while spans should be recorded: set to a phase's start (ns since
/// the clock's epoch) during a traced nominal phase, -1 otherwise. Tracing
/// alternates one-second slots on and off so the same phase yields both a
/// traced and an untraced latency (trace.overhead_pct).
class TraceSwitch {
 public:
  void start(Clock::time_point t0) {
    t0_ns_.store(ns(t0), std::memory_order_release);
  }
  void stop() { t0_ns_.store(-1, std::memory_order_release); }
  bool on(Clock::time_point t) const {
    const std::int64_t t0 = t0_ns_.load(std::memory_order_acquire);
    if (t0 < 0) return false;
    const std::int64_t slot = (ns(t) - t0) / 1'000'000'000;
    return slot >= 0 && slot % 2 == 0;
  }

 private:
  static std::int64_t ns(Clock::time_point t) {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t.time_since_epoch())
        .count();
  }
  std::atomic<std::int64_t> t0_ns_{-1};
};

/// One traced client round trip as the decorator saw it.
struct RoundTrip {
  std::uint64_t seq = 0;  // index of this round trip on the connection
  Clock::time_point start, end;
  std::uint8_t request_type = 0;
};

/// Decorator around one client's TcpTransport. Always present: it reads the
/// reply's envelope type (to tell kBusy / kExpired apart from a rejected
/// proof), counts reply bytes, and flips one proof byte when armed. With a
/// TraceSwitch it also logs every round trip while tracing is on.
class BenchTransport final : public Transport {
 public:
  BenchTransport(Transport& inner, const TraceSwitch* trace)
      : inner_(inner), trace_(trace) {}

  Bytes round_trip(ByteSpan request) override;

  /// The next point, batch or multi reply gets its middle byte flipped.
  void arm_tamper() { tamper_armed_ = true; }
  void disarm_tamper() { tamper_armed_ = false; }
  /// True iff the most recent round trip's reply was tampered with.
  bool last_tampered() const { return last_tampered_; }
  std::uint8_t last_reply_type() const { return last_reply_type_; }
  std::uint64_t round_trips() const { return seq_; }
  const std::vector<RoundTrip>& log() const { return log_; }

 private:
  Transport& inner_;
  const TraceSwitch* trace_;
  std::uint64_t seq_ = 0;
  bool tamper_armed_ = false;
  bool last_tampered_ = false;
  std::uint8_t last_reply_type_ = 0;
  std::vector<RoundTrip> log_;
};

/// One request as the server-side wrapper saw it: from the reactor handing
/// it to ServingEngine::submit until the engine's completion fired.
struct ServerSpan {
  ConnId conn = 0;
  std::uint64_t seq = 0;  // per-connection request index
  Clock::time_point submit, done;
  bool inline_done = false;  // completed before submit() returned
  std::uint8_t request_type = 0;
};

/// The bench's AsyncHandler for traced runs: exactly cmd_serve's
/// `engine.submit(conn, req, done)`, with the completion wrapped to stamp
/// its time. Requests are numbered per connection; with one request in
/// flight per connection, (conn, seq) pairs a span with the client's
/// seq-th round trip. Must outlive the engine (stop() fires completions).
class ServerRecorder {
 public:
  explicit ServerRecorder(const TraceSwitch& trace) : trace_(trace) {}
  ServerRecorder(const ServerRecorder&) = delete;
  ServerRecorder& operator=(const ServerRecorder&) = delete;

  ReactorServer::AsyncHandler handler(ServingEngine& engine);

  /// Spans recorded so far, keyed by (conn, seq); call between phases.
  std::map<std::pair<ConnId, std::uint64_t>, ServerSpan> take();

  /// Connections in the order their first request arrived.
  std::vector<ConnId> conns();

 private:
  const TraceSwitch& trace_;
  // Touched only on the reactor's single I/O thread.
  std::unordered_map<ConnId, std::uint64_t> next_seq_;
  std::mutex mu_;  // guards spans_, conns_
  std::vector<ServerSpan> spans_;
  std::vector<ConnId> conns_;
};

/// One request shape the core builders can replay.
struct CoreRequest {
  enum class Kind : std::uint8_t { kPoint, kBatch, kRange, kMulti };
  Kind kind = Kind::kPoint;
  std::vector<Address> addresses;
  std::uint64_t from = 0, to = 0;
};

/// Times each request once through the core public builders
/// (serialize_query_response, build_range_response, build_multi_response)
/// against `ctx`; returns per-request milliseconds.
std::vector<double> replay_core(const ChainContext& ctx,
                                const std::vector<CoreRequest>& requests);

/// L0 loops over the public primitives for about `budget_s` in total:
/// crypto.sha256_64B_ns, crypto.sha256_8KiB_us, bloom.contains_ns and
/// store.crc32c_GBps.
void time_primitives(double budget_s, Metrics* out);

}  // namespace lvq::lvqbench
