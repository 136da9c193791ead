#include "loadgen.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <time.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <thread>

namespace bench_e2e {

namespace {

constexpr int kTimeoutMs = 5000;
constexpr std::uint64_t kKeepEvery = 16;  // lookup bodies kept for checking

void set_timeouts(int fd, int timeout_ms) {
  timeval tv{};
  tv.tv_sec = timeout_ms / 1000;
  tv.tv_usec = (timeout_ms % 1000) * 1000;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof tv);
}

void sleep_until_ns(std::int64_t due_ns) {
  timespec ts{};
  ts.tv_sec = static_cast<time_t>(due_ns / 1000000000);
  ts.tv_nsec = static_cast<long>(due_ns % 1000000000);
  while (::clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) == EINTR) {
  }
}

// The default 50 us timer slack would show up as generator lateness.
void tighten_timer_slack() { (void)::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL); }

// Splits `raw` into status code and body. False if there is no status line.
bool parse_response(const std::string& raw, int& status, std::string& body) {
  if (raw.size() < 12 || raw.compare(0, 7, "HTTP/1.") != 0) return false;
  status = std::atoi(raw.c_str() + 9);
  std::size_t end = raw.find("\r\n\r\n");
  if (end == std::string::npos) return false;
  body.assign(raw, end + 4, std::string::npos);
  return status > 0;
}

}  // namespace

std::string render_post(std::string_view path, std::string_view body) {
  std::string out = "POST ";
  out += path;
  out += " HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Type: application/json\r\nContent-Length: ";
  out += std::to_string(body.size());
  out += "\r\nConnection: close\r\n\r\n";
  out += body;
  return out;
}

bool exchange(std::uint16_t port, std::string_view request, int timeout_ms, Exchange& out) {
  out = Exchange{};
  out.start_ns = now_ns();
  int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return false;
  set_timeouts(fd, timeout_ms);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    return false;
  }
  out.connected_ns = now_ns();
  std::size_t sent = 0;
  while (sent < request.size()) {
    ssize_t n = ::send(fd, request.data() + sent, request.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) {
      ::close(fd);
      return false;
    }
    sent += static_cast<std::size_t>(n);
  }
  out.sent_ns = now_ns();
  std::string raw;
  char buf[16384];
  for (;;) {
    ssize_t n = ::recv(fd, buf, sizeof buf, 0);
    if (n < 0) {
      ::close(fd);
      return false;
    }
    if (n == 0) break;
    if (raw.empty()) out.first_byte_ns = now_ns();
    raw.append(buf, static_cast<std::size_t>(n));
  }
  out.done_ns = now_ns();
  ::close(fd);
  out.bytes = raw.size();
  out.ok = parse_response(raw, out.status, out.body);
  return out.ok;
}

OpenLoopResult run_open_loop(const OpenLoopOptions& opts, const RequestFn& make) {
  const unsigned threads = opts.threads == 0 ? 1 : opts.threads;
  const std::uint64_t end_slot = opts.first_slot + static_cast<std::uint64_t>(opts.rate * opts.seconds);
  const double period_ns = 1e9 / opts.rate;
  std::vector<OpenLoopResult> parts(threads);
  // The first slot is due a little after every thread has been created.
  const std::int64_t t0 = now_ns() + 2000000;
  std::vector<std::thread> pool;
  pool.reserve(threads);
  for (unsigned t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      tighten_timer_slack();
      OpenLoopResult& part = parts[t];
      SpanRecorder* spans = opts.recorders != nullptr ? &(*opts.recorders)[t] : nullptr;
      Exchange ex;
      for (std::uint64_t slot = opts.first_slot + t; slot < end_slot; slot += threads) {
        Request request = make(slot);
        const std::int64_t due =
            t0 + static_cast<std::int64_t>(static_cast<double>(slot - opts.first_slot) * period_ns);
        if (now_ns() < due) sleep_until_ns(due);
        ++part.attempted;
        bool ok = exchange(opts.port, request.bytes, kTimeoutMs, ex) && ex.status == 200;
        part.late_ms.push_back(static_cast<double>(ex.start_ns - due) / 1e6);
        if (!ok) {
          ++part.failed;
          continue;
        }
        part.response_bytes += ex.bytes;
        const double latency_ms = static_cast<double>(ex.done_ns - due) / 1e6;
        if (!request.lookup) {
          part.reload_ms.push_back(latency_ms);
          part.reload_slots.push_back(slot);
          if (spans != nullptr) spans->add("lookup_server.reload", -1, slot, ex.start_ns, ex.done_ns);
          continue;
        }
        part.latency_ms.push_back(latency_ms);
        part.lookup_slots.push_back(slot);
        if (slot % kKeepEvery == 0) part.kept.emplace_back(slot, ex.body);
        if (spans != nullptr) {
          std::int32_t root = spans->add("loadgen.request", -1, slot, ex.start_ns, ex.done_ns);
          spans->add("lookup_server.connect", root, slot, ex.start_ns, ex.connected_ns);
          spans->add("lookup_server.send", root, slot, ex.connected_ns, ex.sent_ns);
          spans->add("lookup_server.ttfb", root, slot, ex.sent_ns, ex.first_byte_ns);
          spans->add("lookup_server.read", root, slot, ex.first_byte_ns, ex.done_ns);
        }
      }
    });
  }
  for (std::thread& th : pool) th.join();

  OpenLoopResult all;
  for (OpenLoopResult& part : parts) {
    all.latency_ms.insert(all.latency_ms.end(), part.latency_ms.begin(), part.latency_ms.end());
    all.lookup_slots.insert(all.lookup_slots.end(), part.lookup_slots.begin(), part.lookup_slots.end());
    all.late_ms.insert(all.late_ms.end(), part.late_ms.begin(), part.late_ms.end());
    all.reload_ms.insert(all.reload_ms.end(), part.reload_ms.begin(), part.reload_ms.end());
    all.reload_slots.insert(all.reload_slots.end(), part.reload_slots.begin(), part.reload_slots.end());
    all.attempted += part.attempted;
    all.failed += part.failed;
    all.response_bytes += part.response_bytes;
    for (auto& kept : part.kept) all.kept.push_back(std::move(kept));
  }
  return all;
}

ClosedLoopResult run_closed_loop(std::uint16_t port, double seconds, unsigned threads,
                                 const RequestFn& make, std::uint64_t first_slot) {
  threads = threads == 0 ? 1 : threads;
  std::vector<ClosedLoopResult> parts(threads);
  const std::int64_t start = now_ns();
  const std::int64_t end = start + static_cast<std::int64_t>(seconds * 1e9);
  std::vector<std::thread> pool;
  pool.reserve(threads);
  for (unsigned t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      Exchange ex;
      for (std::uint64_t slot = first_slot + t; now_ns() < end; slot += threads) {
        Request request = make(slot);
        ++parts[t].attempted;
        if (!exchange(port, request.bytes, kTimeoutMs, ex) || ex.status != 200) ++parts[t].failed;
      }
    });
  }
  for (std::thread& th : pool) th.join();
  ClosedLoopResult all;
  all.seconds = static_cast<double>(now_ns() - start) / 1e9;
  for (const ClosedLoopResult& part : parts) {
    all.attempted += part.attempted;
    all.failed += part.failed;
  }
  return all;
}

}  // namespace bench_e2e
