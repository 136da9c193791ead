// Bench-local HTTP load generator for the lookup server.
//
// It speaks raw sockets rather than the library's http_post, so a change to
// the library's HTTP client never moves the measuring instrument. Every
// request opens its own loopback connection and sends `Connection: close`,
// the one-exchange contract the server implements.
//
// Open loop: slot i is due at start + i / rate whatever happened before, so
// a stalled server meets a backlog, and a request's latency runs from its
// due time, not from when the generator got round to sending it. How late
// the generator itself ran is reported separately. Closed loop: each thread
// sends its next request as soon as the previous one is answered.
//
// At most `threads` threads run, each holding at most one connection.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "spans.hpp"

namespace bench_e2e {

// One request/response exchange with client-side timestamps (steady clock).
struct Exchange {
  bool ok = false;  // connected, sent, and read a response with a status line
  int status = 0;
  std::string body;
  std::size_t bytes = 0;  // response bytes, headers included
  std::int64_t start_ns = 0;
  std::int64_t connected_ns = 0;
  std::int64_t sent_ns = 0;
  std::int64_t first_byte_ns = 0;
  std::int64_t done_ns = 0;
};

// A complete `POST <path>` request with a JSON body.
[[nodiscard]] std::string render_post(std::string_view path, std::string_view body);

// Sends `request` over a fresh connection to 127.0.0.1:`port` and reads the
// response to EOF. Socket waits are capped at `timeout_ms`.
bool exchange(std::uint16_t port, std::string_view request, int timeout_ms, Exchange& out);

// What one slot sends. Must be a pure function of the slot: the open loop
// calls it from several threads, and the checks regenerate it afterwards.
struct Request {
  std::string bytes;  // from render_post
  bool lookup = true;  // false: a /reload
};
using RequestFn = std::function<Request(std::uint64_t slot)>;

struct OpenLoopOptions {
  std::uint16_t port = 0;
  double rate = 5000;  // due slots per second
  double seconds = 1;
  std::uint64_t first_slot = 0;  // slot numbers continue across consecutive calls
  unsigned threads = 1;
  // One recorder per thread when traced (size == threads); empty otherwise.
  std::vector<SpanRecorder>* recorders = nullptr;
};

struct OpenLoopResult {
  std::vector<double> latency_ms;  // lookups: due time to last byte
  std::vector<std::uint64_t> lookup_slots;  // the slot of each latency_ms entry
  std::vector<double> late_ms;    // every slot: send start minus due time
  std::vector<double> reload_ms;   // reloads: due time to last byte
  std::vector<std::uint64_t> reload_slots;  // the slot of each reload_ms entry
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;  // transport errors and non-200 answers
  std::uint64_t response_bytes = 0;
  std::vector<std::pair<std::uint64_t, std::string>> kept;  // (slot, body) of every 16th lookup
};

[[nodiscard]] OpenLoopResult run_open_loop(const OpenLoopOptions& opts, const RequestFn& make);

struct ClosedLoopResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  double seconds = 0;
};

// `threads` clients back to back for `seconds`; thread t sends slots
// first_slot + t, first_slot + t + threads, ...
[[nodiscard]] ClosedLoopResult run_closed_loop(std::uint16_t port, double seconds,
                                               unsigned threads, const RequestFn& make,
                                               std::uint64_t first_slot);

}  // namespace bench_e2e
