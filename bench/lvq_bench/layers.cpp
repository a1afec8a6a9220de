#include "layers.hpp"

#include <algorithm>
#include <cmath>

#include "bloom/bloom_filter.hpp"
#include "core/multi_query.hpp"
#include "core/prover.hpp"
#include "core/range_query.hpp"
#include "crypto/sha256.hpp"
#include "net/message.hpp"
#include "store/store_util.hpp"

namespace lvq::lvqbench {

double quantile(std::vector<double>& v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const std::size_t i = rank < 1 ? 0 : static_cast<std::size_t>(rank) - 1;
  return v[std::min(i, v.size() - 1)];
}

namespace {

// Timed loops publish their results here so none is optimized away.
volatile std::uint64_t g_sink = 0;

// Reply shapes in which any flipped byte fails verification. Range replies
// are not among them: an anchor-path step's sibling BF enters verification
// only through its OR with the proven node's BF, so a flipped bit the OR
// masks still verifies (to the same, correct history).
bool flip_detectable(std::uint8_t type) {
  return type == static_cast<std::uint8_t>(MsgType::kQueryResponse) ||
         type == static_cast<std::uint8_t>(MsgType::kBatchQueryResponse) ||
         type == static_cast<std::uint8_t>(MsgType::kMultiQueryResponse);
}

}  // namespace

Bytes BenchTransport::round_trip(ByteSpan request) {
  RoundTrip rt;
  rt.seq = seq_++;
  rt.request_type = request.empty() ? 0 : request[0];
  rt.start = Clock::now();
  const bool traced = trace_ != nullptr && trace_->on(rt.start);
  last_tampered_ = false;
  last_reply_type_ = 0;
  Bytes reply = inner_.round_trip(request);
  rt.end = Clock::now();
  bytes_sent_ += request.size();
  bytes_received_ += reply.size();
  last_reply_type_ = reply.empty() ? 0 : reply[0];
  if (tamper_armed_ && reply.size() >= 64 && flip_detectable(last_reply_type_)) {
    // Mid-reply lands inside the proof body (BFs dominate every shape), past
    // the envelope type byte the classification above already read.
    reply[reply.size() / 2] ^= 0x01;
    tamper_armed_ = false;
    last_tampered_ = true;
  }
  if (traced) log_.push_back(rt);
  return reply;
}

ReactorServer::AsyncHandler ServerRecorder::handler(ServingEngine& engine) {
  return [this, &engine](ConnId conn, ByteSpan req,
                         ReactorServer::CompletionFn done) {
    const std::uint64_t seq = next_seq_[conn]++;
    if (seq == 0) {
      std::lock_guard<std::mutex> lock(mu_);
      conns_.push_back(conn);
    }
    const Clock::time_point submit = Clock::now();
    if (!trace_.on(submit)) {
      engine.submit(conn, req, std::move(done));
      return;
    }
    const std::uint8_t type = req.empty() ? 0 : req[0];
    const std::thread::id io_thread = std::this_thread::get_id();
    engine.submit(conn, req,
                  [this, conn, seq, submit, type, io_thread,
                   done = std::move(done)](Bytes reply) {
                    ServerSpan s;
                    s.conn = conn;
                    s.seq = seq;
                    s.submit = submit;
                    s.done = Clock::now();
                    // Worker completions run on engine threads; only an
                    // inline completion runs on the submitting I/O thread.
                    s.inline_done = std::this_thread::get_id() == io_thread;
                    s.request_type = type;
                    {
                      std::lock_guard<std::mutex> lock(mu_);
                      spans_.push_back(s);
                    }
                    done(std::move(reply));
                  });
  };
}

std::map<std::pair<ConnId, std::uint64_t>, ServerSpan> ServerRecorder::take() {
  std::lock_guard<std::mutex> lock(mu_);
  std::map<std::pair<ConnId, std::uint64_t>, ServerSpan> out;
  for (const ServerSpan& s : spans_) out[{s.conn, s.seq}] = s;
  spans_.clear();
  return out;
}

std::vector<ConnId> ServerRecorder::conns() {
  std::lock_guard<std::mutex> lock(mu_);
  return conns_;
}

std::vector<double> replay_core(const ChainContext& ctx,
                                const std::vector<CoreRequest>& requests) {
  std::vector<double> ms;
  ms.reserve(requests.size());
  std::uint64_t sink = 0;
  for (const CoreRequest& r : requests) {
    const Clock::time_point t0 = Clock::now();
    Writer w;
    switch (r.kind) {
      case CoreRequest::Kind::kPoint:
      case CoreRequest::Kind::kBatch:
        // A batch reply is the point replies back to back.
        for (const Address& a : r.addresses) serialize_query_response(w, ctx, a);
        break;
      case CoreRequest::Kind::kRange:
        build_range_response(ctx, r.addresses.front(), r.from, r.to).serialize(w);
        break;
      case CoreRequest::Kind::kMulti:
        build_multi_response(ctx, r.addresses).serialize(w);
        break;
    }
    ms.push_back(ms_between(t0, Clock::now()));
    sink += w.size();
  }
  g_sink = sink;
  return ms;
}

namespace {

/// Runs `op` in batches of 256 until `budget_s` elapsed; returns seconds
/// per call.
template <typename Op>
double per_call_seconds(double budget_s, Op op) {
  std::uint64_t calls = 0;
  const Clock::time_point t0 = Clock::now();
  double elapsed = 0;
  do {
    for (int i = 0; i < 256; ++i) op(calls + i);
    calls += 256;
    elapsed = std::chrono::duration<double>(Clock::now() - t0).count();
  } while (elapsed < budget_s);
  return elapsed / static_cast<double>(calls);
}

}  // namespace

void time_primitives(double budget_s, Metrics* out) {
  const double slice = budget_s / 4;
  std::uint64_t sink = 0;

  Bytes small(64), page(8192), mib(1u << 20);
  for (std::size_t i = 0; i < mib.size(); ++i) {
    mib[i] = static_cast<std::uint8_t>(i * 131 + 7);
  }
  std::copy(mib.begin(), mib.begin() + 64, small.begin());
  std::copy(mib.begin(), mib.begin() + 8192, page.begin());

  const double sha_small = per_call_seconds(slice, [&](std::uint64_t i) {
    small[0] = static_cast<std::uint8_t>(i);
    sink += Sha256::hash(ByteSpan{small.data(), small.size()})[0];
  });
  const double sha_page = per_call_seconds(slice, [&](std::uint64_t i) {
    page[0] = static_cast<std::uint8_t>(i);
    sink += Sha256::hash(ByteSpan{page.data(), page.size()})[0];
  });

  // One block's worth of addresses in an 8 KiB, k=10 filter (the bench's
  // protocol geometry), probed with keys that are mostly absent.
  BloomFilter bf(BloomGeometry{8 * 1024, 10});
  std::vector<BloomKey> keys(4096);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    Writer w;
    w.u64(i);
    keys[i] = BloomKey::from_bytes(ByteSpan{w.data().data(), w.data().size()});
    if (i < 350) bf.insert(keys[i]);
  }
  const double contains = per_call_seconds(slice, [&](std::uint64_t i) {
    sink += bf.possibly_contains(keys[i % keys.size()]) ? 1 : 0;
  });

  const double crc = per_call_seconds(slice, [&](std::uint64_t i) {
    mib[0] = static_cast<std::uint8_t>(i);
    sink += crc32c(ByteSpan{mib.data(), mib.size()});
  });

  (*out)["crypto.sha256_64B_ns"] = {sha_small * 1e9, "ns"};
  (*out)["crypto.sha256_8KiB_us"] = {sha_page * 1e6, "us"};
  (*out)["bloom.contains_ns"] = {contains * 1e9, "ns"};
  (*out)["store.crc32c_GBps"] = {static_cast<double>(mib.size()) / crc / 1e9,
                                 "GB/s"};
  g_sink = sink;
}

}  // namespace lvq::lvqbench
