// In-memory span recorder for the traced runs of bench_e2e.
//
// A span is one timed call into a layer: its name, start, end, the span that
// enclosed it, and the contract ordinal or request id it belongs to. Spans
// stay in memory while the benchmark runs; they are aggregated into per-layer
// self times (a span's duration minus what its direct children cover) and,
// on request, written out as Chrome trace-event JSON (chrome://tracing,
// ui.perfetto.dev).
//
// One recorder per thread: nothing here is synchronized. Names are string
// literals, so a span costs two steady_clock reads and one vector append.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace bench_e2e {

[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  const char* name = "";   // a string literal: the layer, e.g. "symexec.run"
  std::int32_t parent = -1;  // index of the enclosing span in the same recorder
  std::uint64_t id = 0;      // contract ordinal or request slot
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

class SpanRecorder {
 public:
  // A disabled recorder ignores every call, so the same replay code runs
  // traced and untraced and the difference is the tracing overhead.
  explicit SpanRecorder(bool enabled = true, std::uint32_t tid = 0)
      : enabled_(enabled), tid_(tid) {}

  [[nodiscard]] std::uint32_t tid() const { return tid_; }

  // Opens a span nested in the innermost open one. Returns its index, or -1
  // when disabled.
  std::int32_t open(const char* name, std::uint64_t id);
  void close(std::int32_t index);

  // Records a finished span with explicit timestamps (client-side request
  // phases). `parent` is an index returned by add() or open(), or -1.
  std::int32_t add(const char* name, std::int32_t parent, std::uint64_t id,
                   std::int64_t start_ns, std::int64_t end_ns);

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

 private:
  bool enabled_;
  std::uint32_t tid_;
  std::vector<Span> spans_;
  std::vector<std::int32_t> open_;
};

// Times the enclosing scope as one span.
class Scope {
 public:
  Scope(SpanRecorder& recorder, const char* name, std::uint64_t id)
      : recorder_(recorder), index_(recorder.open(name, id)) {}
  ~Scope() { recorder_.close(index_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  SpanRecorder& recorder_;
  std::int32_t index_;
};

struct LayerTime {
  std::uint64_t count = 0;
  double total_ns = 0;  // sum of span durations
  double self_ns = 0;   // durations minus the time direct children cover
};

// Per-name totals over every span in `recorders`.
[[nodiscard]] std::map<std::string, LayerTime> layer_times(
    const std::vector<const SpanRecorder*>& recorders);

// Writes every span as a Chrome "complete" (ph X) event. False on I/O error.
[[nodiscard]] bool write_chrome_trace(const std::string& path,
                                      const std::vector<const SpanRecorder*>& recorders);

}  // namespace bench_e2e
