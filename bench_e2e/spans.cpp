#include "spans.hpp"

#include <cstdio>

namespace bench_e2e {

std::int32_t SpanRecorder::open(const char* name, std::uint64_t id) {
  if (!enabled_) return -1;
  std::int32_t parent = open_.empty() ? -1 : open_.back();
  auto index = static_cast<std::int32_t>(spans_.size());
  spans_.push_back(Span{name, parent, id, now_ns(), 0});
  open_.push_back(index);
  return index;
}

void SpanRecorder::close(std::int32_t index) {
  if (index < 0) return;
  spans_[static_cast<std::size_t>(index)].end_ns = now_ns();
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

std::int32_t SpanRecorder::add(const char* name, std::int32_t parent, std::uint64_t id,
                               std::int64_t start_ns, std::int64_t end_ns) {
  if (!enabled_) return -1;
  auto index = static_cast<std::int32_t>(spans_.size());
  spans_.push_back(Span{name, parent, id, start_ns, end_ns});
  return index;
}

std::map<std::string, LayerTime> layer_times(const std::vector<const SpanRecorder*>& recorders) {
  std::map<std::string, LayerTime> out;
  for (const SpanRecorder* recorder : recorders) {
    const std::vector<Span>& spans = recorder->spans();
    std::vector<double> child_ns(spans.size(), 0.0);
    for (const Span& s : spans) {
      if (s.parent >= 0) {
        child_ns[static_cast<std::size_t>(s.parent)] += static_cast<double>(s.end_ns - s.start_ns);
      }
    }
    for (std::size_t i = 0; i < spans.size(); ++i) {
      LayerTime& row = out[spans[i].name];
      auto duration = static_cast<double>(spans[i].end_ns - spans[i].start_ns);
      ++row.count;
      row.total_ns += duration;
      row.self_ns += duration - child_ns[i];
    }
  }
  return out;
}

bool write_chrome_trace(const std::string& path,
                        const std::vector<const SpanRecorder*>& recorders) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::int64_t origin = -1;
  for (const SpanRecorder* recorder : recorders) {
    for (const Span& s : recorder->spans()) {
      if (origin < 0 || s.start_ns < origin) origin = s.start_ns;
    }
  }
  std::fputs("{\"traceEvents\":[\n", f);
  bool first = true;
  for (const SpanRecorder* recorder : recorders) {
    for (const Span& s : recorder->spans()) {
      std::fprintf(f,
                   "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,\"ts\":%.3f,"
                   "\"dur\":%.3f,\"args\":{\"id\":%llu,\"parent\":%d}}",
                   first ? "" : ",\n", s.name, recorder->tid(),
                   static_cast<double>(s.start_ns - origin) / 1e3,
                   static_cast<double>(s.end_ns - s.start_ns) / 1e3,
                   static_cast<unsigned long long>(s.id), s.parent);
      first = false;
    }
  }
  std::fputs("\n]}\n", f);
  return std::fclose(f) == 0;
}

}  // namespace bench_e2e
