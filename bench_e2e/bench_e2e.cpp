// bench_e2e: one benchmark for the whole path SigRec serves — runtime
// bytecode as hex in, recovered signatures written to the selector-sharded
// sink, compacted into the mmap index, and answered over HTTP by the lookup
// server. See E2E.md for the workloads, metrics and bounds.
//
//   bench_e2e --workload W [--seed S] [--seconds N] [--trace 0|1]
//             [--out results.jsonl] [--trace-out spans.json] [--work-dir DIR]
//   bench_e2e --smoke
//   bench_e2e --check-repeat a.jsonl b.jsonl
//
// --trace 0 measures the end-to-end metrics; --trace 1 runs the traced pass
// that attributes time to layers. Either way the last line of stdout is one
// JSON object: {"correct", "attempted", "failed", "metrics"}. The exit code
// is non-zero when any correctness check failed.
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <set>
#include <span>
#include <thread>

#include "e2e.hpp"
#include "loadgen.hpp"
#include "sigrec/rpc.hpp"

namespace bench_e2e {
namespace {

namespace core = sigrec::core;

struct MetricDef {
  const char* name;
  const char* unit;
  const char* better;
  double bound;  // share of the baseline median a change may worsen it by
};

// The end-to-end metrics, mirrored in BENCHMARK.json.
const MetricDef kEndToEnd[] = {
    {"scan_contracts_per_s", "contracts/s", "higher", 0.25},
    {"scan_cpu_ms_per_contract", "ms", "lower", 0.25},
    {"recovery_accuracy", "fraction", "higher", 0.01},
    {"setup_s", "s", "lower", 0.25},
    {"lookup_p50_ms", "ms", "lower", 0.25},
    {"lookup_p90_ms", "ms", "lower", 0.25},
    {"lookup_rps", "req/s", "higher", 0.25},
    {"peak_rss_mb", "MiB", "lower", 0.25},
};

// The per-layer metrics a traced run reports, mirrored in BENCHMARK.json.
// Each is non-zero on every workload; counters that are often zero
// (in-flight waits, disassembly reuses, lost records) are printed only.
const MetricDef kPerLayer[] = {
    {"pipeline.hex_decode_us", "us/contract", "lower", 0},
    {"evm.code_hash_us", "us/contract", "lower", 0},
    {"cache.claim_ns", "ns/contract", "lower", 0},
    {"cache.contract_miss_rate", "ratio", "lower", 0},
    {"cache.function_miss_rate", "ratio", "lower", 0},
    {"evm.disasm_us", "us/contract", "lower", 0},
    {"function_extractor.selectors_us", "us/contract", "lower", 0},
    {"function_extractor.dispatch_table_us", "us/contract", "lower", 0},
    {"symexec.run_us", "us/function", "lower", 0},
    {"symexec.steps_per_function", "steps/function", "lower", 0},
    {"symexec.paths_per_function", "paths/function", "lower", 0},
    {"symexec.intern_hit_rate", "ratio", "higher", 0},
    {"symexec.summary_hit_rate", "ratio", "higher", 0},
    {"tase.infer_us", "us/function", "lower", 0},
    {"shard.write_us_per_record", "us/record", "lower", 0},
    {"batch.engine_us_per_contract", "us/contract", "lower", 0},
    {"batch.worker_idle_frac", "ratio", "lower", 0},
    {"batch.ladder_retries", "count", "lower", 0},
    {"lookup.compact_ms", "ms", "lower", 0},
    {"lookup.open_ms", "ms", "lower", 0},
    {"lookup_server.start_ms", "ms", "lower", 0},
    {"lookup.probe_ns", "ns", "lower", 0},
    {"lookup.index_share", "ratio", "lower", 0},
    {"lookup_server.connect_us", "us", "lower", 0},
    {"lookup_server.ttfb_us", "us", "lower", 0},
    {"lookup_server.read_us", "us", "lower", 0},
    {"lookup_server.response_bytes", "bytes", "lower", 0},
    {"lookup_server.reload_ms", "ms", "lower", 0},
    {"lookup_server.hit_ratio", "ratio", "higher", 0},
    {"loadgen.late_p99_ms", "ms", "lower", 0},
    {"trace.unattributed_frac", "ratio", "lower", 0},
};

// Open-loop requests per second; a serving window is this many slots. The
// reference host is a shared VM whose capacity fell as low as ~10,600 req/s
// (four closed-loop clients) in slow spells, where 10,000 req/s queued into
// tens of ms. Half of that leaves headroom. Sparser traffic pays more for
// waking halted vCPUs (p50 ~0.15 ms at 2000 req/s against ~0.11 ms here).
constexpr double kRate = 5000;
// Set-up cycles per round, and the closed-loop slice per round as a share of
// --seconds.
constexpr int kSetupsPerRound = 2;
constexpr double kClosedShare = 0.01;

struct Options {
  const Workload* workload = nullptr;
  std::uint64_t seed = 1;
  double seconds = 30;
  bool trace = false;
  std::size_t scale = 1;  // input sizes are divided by this (16 under --smoke)
  std::string out;
  std::string trace_out;
  std::string work_dir;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct Run {
  Tally tally;
  std::vector<Metric> metrics;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  [[nodiscard]] const Metric* find(std::string_view name) const {
    for (const Metric& m : metrics) {
      if (m.name == name) return &m;
    }
    return nullptr;
  }
};

unsigned parallelism() {
  unsigned hw = std::thread::hardware_concurrency();
  return std::clamp(hw == 0 ? 1u : hw, 1u, 4u);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

// Nearest-rank percentile, p in (0, 1].
double percentile(std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0;
  auto rank = static_cast<std::size_t>(std::ceil(p * static_cast<double>(sorted.size())));
  return sorted[std::clamp<std::size_t>(rank, 1, sorted.size()) - 1];
}

std::string number(double v) {
  char buf[64];
  auto [end, ec] = std::to_chars(buf, buf + sizeof buf, v);
  return ec == std::errc() ? std::string(buf, end) : "0";
}

// Peak RSS from here on: VmHWM restarts from the current RSS.
void reset_peak_rss() {
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
}

double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  }
  return 0;
}

std::string absolute(const std::string& dir) { return std::filesystem::absolute(dir).string(); }

// Whether slot `slot` of workload `w` is a /reload. It sits in the middle of
// its `reload_every` slots, so with one-second windows of `reload_every`
// slots lookups are due for half a second on either side of every reload.
bool is_reload(const Workload& w, std::uint64_t slot) {
  return w.reload_every != 0 && slot % w.reload_every == w.reload_every / 2;
}

// Every slot's request for workload `w`: a /lookup of `w.batch` selectors,
// or a /reload alternating dirs b and a.
RequestFn request_maker(const Workload& w, const Expected& expected, std::uint64_t seed,
                        const std::string& dir_a, const std::string& dir_b) {
  return [&w, &expected, seed, reload_a = render_post("/reload", R"({"dir":")" +
                                                                      core::json_escape(dir_a) + R"("})"),
          reload_b = render_post("/reload", R"({"dir":")" + core::json_escape(dir_b) + R"("})")](
             std::uint64_t slot) {
    if (is_reload(w, slot)) {
      return Request{(slot / w.reload_every) % 2 == 0 ? reload_b : reload_a, false};
    }
    return Request{render_post("/lookup", lookup_body(slot_selectors(expected, seed, slot, w.batch))),
                   true};
  };
}

void check_kept(const OpenLoopResult& open, const Workload& w, const Expected& expected,
                std::uint64_t seed, Tally& tally) {
  for (const auto& [slot, body] : open.kept) {
    if (!answers_match(body, slot_selectors(expected, seed, slot, w.batch), expected)) {
      tally.fail("wrong /lookup answer in slot " + std::to_string(slot));
    }
  }
}

// The shard_bits 0 compaction of the same records, for reloads to switch to.
void build_reload_dir(const core::BatchResult& result, const std::string& dir, Tally& tally) {
  std::filesystem::remove_all(dir);
  {
    core::ShardedSink sink(dir, 0);
    for (const core::ContractReport& report : result.contracts) sink.write(report);
    if (!sink.flush()) tally.fail("cannot write " + dir);
  }
  std::string error;
  if (!core::compact_shards(dir, 0, nullptr, &error)) tally.fail("compact " + dir + ": " + error);
}

void check_server(const core::LookupServerStats& stats, Tally& tally) {
  if (stats.bad_requests != 0) tally.fail("server counted bad requests", stats.bad_requests);
  if (stats.reload_failures != 0) tally.fail("server reloads failed", stats.reload_failures);
}

// Appends the latencies of the lookups that fell due while a reload was in
// flight, from the reload's due time to its last byte.
void lookups_during_reloads(const OpenLoopResult& open, double rate, std::vector<double>& out) {
  for (std::size_t r = 0; r < open.reload_slots.size(); ++r) {
    const std::uint64_t first = open.reload_slots[r];
    const std::uint64_t last =
        first + static_cast<std::uint64_t>(std::ceil(open.reload_ms[r] * rate / 1e3));
    for (std::size_t i = 0; i < open.lookup_slots.size(); ++i) {
      if (open.lookup_slots[i] > first && open.lookup_slots[i] <= last) {
        out.push_back(open.latency_ms[i]);
      }
    }
  }
}

// --- untraced run: the end-to-end metrics -----------------------------------

void run_untraced(const Options& opt, Run& run) {
  const Workload& w = *opt.workload;
  const unsigned jobs = parallelism();
  Tally& tally = run.tally;
  Inputs in = make_inputs(std::max<std::size_t>(1, w.distinct / opt.scale), w.copies, opt.seed);
  std::printf("inputs: %zu contracts (%zu distinct x %u), %zu functions per copy, %.0f B avg\n",
              in.entries.size(), in.distinct, in.copies, in.corpus.function_count(),
              static_cast<double>(in.code_bytes) / static_cast<double>(in.entries.size()));

  // A warm-up scan; its shards become the served index and its reports the
  // accuracy score and the reference every later rep must reproduce.
  const std::string dir_a = absolute(opt.work_dir + "/scan");
  ScanRep warm = run_scan(in, dir_a, jobs, "", tally);
  const std::string reference = std::move(warm.merged);
  const Accuracy acc = score(in, warm.result);
  if (opt.seed == 1 && opt.scale == 1 && w.pinned_total != 0 &&
      (acc.correct != w.pinned_correct || acc.total != w.pinned_total)) {
    tally.fail("recovery changed: " + std::to_string(acc.correct) + "/" + std::to_string(acc.total) +
               " correct, pinned " + std::to_string(w.pinned_correct) + "/" +
               std::to_string(w.pinned_total));
  }

  const std::string dir_b = absolute(opt.work_dir + "/reload");
  if (w.reload_every != 0) build_reload_dir(warm.result, dir_b, tally);
  warm.result = {};
  const Expected expected = expected_answers(reference, std::move(in.calls), opt.seed);
  const RequestFn make = request_maker(w, expected, opt.seed, dir_a, dir_b);

  // Rounds of: a timed scan rep, set-up cycles (compact + load + start; the
  // last one serves), a one-second open-loop window and a short closed-loop
  // slice, until 70% of the run is spent. Every median thus samples the whole
  // run: the shared host's speed drifts over seconds, and a run that scanned
  // in one stretch and served in the next would compare two different hosts.
  SpanRecorder untraced(false);
  Serving serving;
  std::vector<double> setups;
  auto set_up = [&] {
    if (serving.server != nullptr) check_server(serving.server->stats(), tally);
    const double s = set_up_server(dir_a, kShardBits, serving, untraced, tally);
    if (s >= 0) setups.push_back(s);
    return s >= 0;
  };
  const std::string rep_dir = absolute(opt.work_dir + "/rep");
  std::vector<double> rates;
  std::vector<double> cpu_ms;
  std::vector<double> window_p90;  // ~5000 samples a window, ~500 past p90
  std::vector<double> window_p99;  // ~50 past p99
  std::vector<double> rps;
  std::vector<double> rss_mib;
  std::vector<double> latency_ms;
  std::vector<double> late_ms;
  std::vector<double> during_reload_ms;
  std::uint64_t reloads = 0;
  std::uint64_t records_lost = warm.records_lost;
  std::uint64_t closed_slot = 0;
  OpenLoopOptions open_opts;
  open_opts.rate = kRate;
  open_opts.seconds = 1;
  open_opts.threads = parallelism();
  const std::size_t min_rounds = opt.scale == 1 ? 5 : 2;
  const std::int64_t start = now_ns();
  while (rates.size() < 30 &&
         (rates.size() < min_rounds ||
          static_cast<double>(now_ns() - start) / 1e9 < 0.7 * opt.seconds)) {
    // Each round's peak RSS, over the first `min_rounds` rounds only: the
    // per-thread malloc arenas keep growing for a few rounds, so a count that
    // depended on how many rounds the host's speed allowed would drift.
    if (rss_mib.size() < min_rounds) reset_peak_rss();
    ScanRep rep = run_scan(in, rep_dir, jobs, reference, tally);
    const auto inputs = static_cast<double>(in.entries.size());
    rates.push_back(inputs / rep.wall_s);
    cpu_ms.push_back(rep.cpu_s * 1e3 / inputs);
    records_lost += rep.records_lost;
    rep = {};

    for (int c = 0; c < kSetupsPerRound; ++c) {
      if (!set_up()) return;
    }
    open_opts.port = serving.server->port();
    OpenLoopResult open = run_open_loop(open_opts, make);
    open_opts.first_slot += static_cast<std::uint64_t>(kRate);
    tally.attempted += open.attempted;
    if (open.failed != 0) tally.fail("open loop: failed requests", open.failed);
    check_kept(open, w, expected, opt.seed, tally);
    lookups_during_reloads(open, kRate, during_reload_ms);
    std::sort(open.latency_ms.begin(), open.latency_ms.end());
    window_p90.push_back(percentile(open.latency_ms, 0.90));
    window_p99.push_back(percentile(open.latency_ms, 0.99));
    latency_ms.insert(latency_ms.end(), open.latency_ms.begin(), open.latency_ms.end());
    late_ms.insert(late_ms.end(), open.late_ms.begin(), open.late_ms.end());
    reloads += open.reload_ms.size();

    ClosedLoopResult closed = run_closed_loop(open_opts.port, kClosedShare * opt.seconds,
                                              parallelism(), make, closed_slot);
    closed_slot += 1u << 20;  // more than a slice sends: every slice asks anew
    tally.attempted += closed.attempted;
    if (closed.failed != 0) tally.fail("closed loop: failed requests", closed.failed);
    rps.push_back(static_cast<double>(closed.attempted - closed.failed) / closed.seconds);
    if (rss_mib.size() < min_rounds) rss_mib.push_back(peak_rss_mib());
  }
  std::printf("scan reps (contracts/s):");
  for (double r : rates) std::printf(" %.0f", r);
  std::printf("\nwindow p90s (ms):");
  for (double p : window_p90) std::printf(" %.3f", p);
  std::printf("\nwindow p99s (ms):");
  for (double p : window_p99) std::printf(" %.3f", p);
  std::printf("\nclosed-loop slices (req/s):");
  for (double r : rps) std::printf(" %.0f", r);
  std::printf("\nround peak RSS (MiB):");
  for (double r : rss_mib) std::printf(" %.1f", r);
  std::printf("\n");

  sweep_all(serving.server->port(), expected, tally);
  check_server(serving.server->stats(), tally);
  serving.server->stop();

  std::sort(latency_ms.begin(), latency_ms.end());
  std::sort(late_ms.begin(), late_ms.end());
  std::sort(during_reload_ms.begin(), during_reload_ms.end());
  run.add("scan_contracts_per_s", median(rates), "contracts/s");
  run.add("scan_cpu_ms_per_contract", median(cpu_ms), "ms");
  run.add("recovery_accuracy", static_cast<double>(acc.correct) / static_cast<double>(acc.total),
          "fraction");
  run.add("setup_s", median(setups), "s");
  run.add("lookup_p50_ms", percentile(latency_ms, 0.50), "ms");
  run.add("lookup_p90_ms", median(window_p90), "ms");
  run.add("lookup_rps", median(rps), "req/s");
  run.add("peak_rss_mb", median(rss_mib), "MiB");
  // Printed, not gated.
  run.add("recovery_correct", static_cast<double>(acc.correct), "count");
  run.add("recovery_total", static_cast<double>(acc.total), "count");
  run.add("rounds", static_cast<double>(rates.size()), "count");
  run.add("setup_cycles", static_cast<double>(setups.size()), "count");
  run.add("lookup_samples", static_cast<double>(latency_ms.size()), "count");
  // The host's own stalls (a guest vCPU descheduled for tens of ms) set the
  // p99 on a shared VM, so it is printed beside the gated p90, not gated.
  run.add("lookup_p99_ms", median(window_p99), "ms");
  run.add("lookup_pooled_p99_ms", percentile(latency_ms, 0.99), "ms");
  run.add("lookup_p999_ms", percentile(latency_ms, 0.999), "ms");
  run.add("lookup_reloads", static_cast<double>(reloads), "count");
  if (reloads != 0) {
    run.add("lookup_during_reload_samples", static_cast<double>(during_reload_ms.size()), "count");
    run.add("lookup_during_reload_p50_ms", percentile(during_reload_ms, 0.50), "ms");
    run.add("lookup_during_reload_max_ms",
            during_reload_ms.empty() ? 0 : during_reload_ms.back(), "ms");
  }
  run.add("loadgen.late_p99_ms", percentile(late_ms, 0.99), "ms");
  run.add("shard.records_lost", static_cast<double>(records_lost), "count");
}

// --- traced run: the per-layer metrics ---------------------------------------

double per(double total, double count) { return count == 0 ? 0 : total / count; }

void print_layers(const char* title, const std::map<std::string, LayerTime>& layers, double total_ns) {
  std::printf("%s\n  %-38s %9s %12s %8s\n", title, "layer", "spans", "self ms", "share");
  for (const auto& [name, t] : layers) {
    std::printf("  %-38s %9llu %12.3f %7.2f%%\n", name.c_str(),
                static_cast<unsigned long long>(t.count), t.self_ns / 1e6,
                100.0 * per(t.self_ns, total_ns));
  }
}

void run_traced(const Options& opt, Run& run) {
  const Workload& w = *opt.workload;
  const unsigned jobs = parallelism();
  Tally& tally = run.tally;
  Inputs in = make_inputs(std::max<std::size_t>(1, w.distinct / opt.scale), w.copies, opt.seed);

  // One untraced full-size scan at `jobs` for the engine's own counters.
  const std::string dir_a = absolute(opt.work_dir + "/scan");
  ScanRep full = run_scan(in, dir_a, jobs, "", tally);
  const core::BatchResult& fr = full.result;
  const double contract_lookups = static_cast<double>(fr.cache.contract_hits + fr.cache.contract_misses);
  const double function_lookups = static_cast<double>(fr.cache.function_hits + fr.cache.function_misses);
  run.add("cache.contract_miss_rate", per(static_cast<double>(fr.cache.contract_misses), contract_lookups),
          "ratio");
  run.add("cache.function_miss_rate", per(static_cast<double>(fr.cache.function_misses), function_lookups),
          "ratio");
  run.add("batch.worker_idle_frac", 1.0 - fr.cpu_seconds / (fr.wall_seconds * jobs), "ratio");
  run.add("batch.ladder_retries", static_cast<double>(fr.health.retries), "count");
  run.add("cache.inflight_waits", static_cast<double>(fr.cache.contract_inflight_waits), "count");
  run.add("batch.disassembly_reuses", static_cast<double>(fr.disassembly_reuses), "count");
  run.add("shard.records_lost", static_cast<double>(full.records_lost), "count");

  // A 1/8 draw with the same duplication, replayed on this thread.
  const std::size_t draw_distinct = std::max<std::size_t>(1, in.distinct / 8);
  std::vector<core::HexListSource::Entry> draw;
  for (unsigned c = 0; c < in.copies; ++c) {
    draw.insert(draw.end(), in.entries.begin(),
                in.entries.begin() + static_cast<std::ptrdiff_t>(draw_distinct));
  }
  const int passes = opt.scale == 1 ? 3 : 1;
  const int pairs = opt.scale == 1 ? 7 : 1;
  SpanRecorder scan_spans(true, 0);
  SpanRecorder untraced(false);
  ReplayStats replay;
  std::vector<double> traced_s;
  (void)replay_scan(draw, opt.work_dir + "/replay", untraced, tally);  // warm-up
  for (int p = 0; p < passes; ++p) {
    const std::int64_t t0 = now_ns();
    replay = replay_scan(draw, opt.work_dir + "/replay", scan_spans, tally);
    traced_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  }
  // What recover_stream at jobs=1 spends beyond the calls the replay makes
  // is the engine's own (pool, channel, dedup, reports). Both sides are
  // untraced and on one clock, process CPU time: the engine overlaps its
  // reader thread with its worker, which wall time would count as a saving.
  // The host's speed drifts, so the two run back to back, in alternating
  // order, and the remainder is the median of the per-pair differences.
  Inputs engine_in;
  engine_in.entries = draw;
  std::vector<double> replay_s;
  std::vector<double> replay_cpu_s;
  std::vector<double> engine_cpu_s;
  std::vector<double> remainder_s;
  for (int p = 0; p < pairs; ++p) {
    double engine_cpu = 0;
    auto run_replay = [&] {
      const std::int64_t t0 = now_ns();
      const double cpu0 = process_cpu_seconds();
      (void)replay_scan(draw, opt.work_dir + "/replay", untraced, tally);
      replay_cpu_s.push_back(process_cpu_seconds() - cpu0);
      replay_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    };
    auto run_engine = [&] {
      ScanRep engine = run_scan(engine_in, opt.work_dir + "/engine", 1, "", tally);
      engine_cpu = engine.cpu_s;
      engine_cpu_s.push_back(engine.cpu_s);
      if (canonical_functions(engine.result) != replay.canonical) {
        tally.fail("traced replay recovered different functions than recover_stream");
      }
    };
    if (p % 2 == 0) {
      run_replay();
      run_engine();
    } else {
      run_engine();
      run_replay();
    }
    remainder_s.push_back(engine_cpu - replay_cpu_s.back());
  }
  const double contracts = static_cast<double>(draw.size()) * passes;
  std::map<std::string, LayerTime> layers = layer_times({&scan_spans});
  double traced_total_ns = 0;
  for (const auto& [name, t] : layers) traced_total_ns += t.self_ns;
  const double unattributed_ns = layers["contract"].self_ns;
  const double per_contract_us = 1e6 / static_cast<double>(draw.size());
  const double engine_total_us = median(engine_cpu_s) * per_contract_us;
  const double replay_us = median(replay_cpu_s) * per_contract_us;
  const double remainder_us = median(remainder_s) * per_contract_us;
  const double traced_us = traced_total_ns / 1e3 / contracts;
  auto layer_per_contract = [&](const char* name, double scale) {
    return layers[name].self_ns / scale / contracts;
  };
  const double runs = static_cast<double>(replay.runs);  // per pass
  run.add("pipeline.hex_decode_us", layer_per_contract("pipeline.hex_decode", 1e3), "us/contract");
  run.add("evm.code_hash_us", layer_per_contract("evm.code_hash", 1e3), "us/contract");
  run.add("cache.claim_ns", layer_per_contract("cache.claim", 1), "ns/contract");
  run.add("evm.disasm_us", layer_per_contract("evm.disasm", 1e3), "us/contract");
  run.add("function_extractor.selectors_us", layer_per_contract("function_extractor.selectors", 1e3),
          "us/contract");
  run.add("function_extractor.dispatch_table_us",
          layer_per_contract("function_extractor.dispatch_table", 1e3), "us/contract");
  run.add("symexec.run_us", per(layers["symexec.run"].self_ns / 1e3 / passes, runs), "us/function");
  run.add("symexec.steps_per_function", per(static_cast<double>(replay.steps), runs), "steps/function");
  run.add("symexec.paths_per_function", per(static_cast<double>(replay.paths), runs), "paths/function");
  run.add("symexec.intern_hit_rate",
          per(static_cast<double>(replay.intern_hits),
              static_cast<double>(replay.intern_hits + replay.intern_misses)),
          "ratio");
  run.add("symexec.summary_hit_rate",
          per(static_cast<double>(replay.summary_hits),
              static_cast<double>(replay.summary_hits + replay.summary_misses)),
          "ratio");
  run.add("tase.infer_us", per(layers["tase.infer"].self_ns / 1e3 / passes, runs), "us/function");
  run.add("shard.write_us_per_record",
          per(layers["shard.write"].self_ns / 1e3 / passes, static_cast<double>(replay.records)),
          "us/record");
  run.add("batch.engine_us_per_contract", remainder_us, "us/contract");
  run.add("trace.unattributed_frac", per(unattributed_ns, traced_total_ns), "ratio");
  // Printed, not listed: layers that only some workloads reach.
  run.add("symexec.ladder_us", layer_per_contract("symexec.ladder", 1e3), "us/contract");
  run.add("cache.function_probe_us",
          (layers["cache.find_function"].self_ns + layers["cache.store_function"].self_ns) / 1e3 /
              contracts,
          "us/contract");
  run.add("cache.publish_us", layer_per_contract("cache.publish", 1e3), "us/contract");
  run.add("trace.overhead_frac", median(traced_s) / median(replay_s) - 1.0, "ratio");

  print_layers("traced scan replay (self time over all passes):", layers, traced_total_ns);
  std::printf("  CPU per contract, medians of %d pairs: recover_stream jobs=1 %.2f us, untraced "
              "replay %.2f us, engine remainder %.2f us; traced replay: layers %.2f us incl. "
              "unattributed %.2f us\n",
              pairs, engine_total_us, replay_us, remainder_us, traced_us,
              unattributed_ns / 1e3 / contracts);
  if (per(unattributed_ns, traced_total_ns) > 0.10) tally.fail("scan trace: unattributed above 10%");

  // Set-up and serving, traced.
  SpanRecorder setup_spans(true, 0);
  Serving serving;
  for (int c = 0; c < 3; ++c) {
    if (set_up_server(dir_a, kShardBits, serving, setup_spans, tally) < 0) return;
  }
  std::map<std::string, LayerTime> setup = layer_times({&setup_spans});
  run.add("lookup.compact_ms", per(setup["lookup.compact"].self_ns / 1e6, setup["lookup.compact"].count), "ms");
  run.add("lookup.open_ms", per(setup["lookup.open"].self_ns / 1e6, setup["lookup.open"].count), "ms");
  run.add("lookup_server.start_ms",
          per(setup["lookup_server.start"].self_ns / 1e6, setup["lookup_server.start"].count), "ms");

  const std::string dir_b = absolute(opt.work_dir + "/reload");
  if (w.reload_every != 0) build_reload_dir(fr, dir_b, tally);
  const Expected expected = expected_answers(full.merged, std::move(in.calls), opt.seed);
  const RequestFn make = request_maker(w, expected, opt.seed, dir_a, dir_b);
  std::vector<SpanRecorder> client_spans;
  for (unsigned t = 0; t < parallelism(); ++t) client_spans.emplace_back(true, t + 1);
  const core::LookupServerStats before = serving.server->stats();
  OpenLoopOptions open_opts;
  open_opts.port = serving.server->port();
  open_opts.rate = kRate;
  open_opts.seconds = std::min(3.0, 0.15 * opt.seconds);
  open_opts.threads = parallelism();
  open_opts.recorders = &client_spans;
  OpenLoopResult open = run_open_loop(open_opts, make);
  const core::LookupServerStats after = serving.server->stats();
  tally.attempted += open.attempted;
  if (open.failed != 0) tally.fail("traced open loop: failed requests", open.failed);
  check_kept(open, w, expected, opt.seed, tally);
  const double hit_ratio = per(static_cast<double>(after.hits - before.hits),
                               static_cast<double>(after.selectors - before.selectors));
  if (opt.scale == 1 && std::abs(hit_ratio - 0.9) > 0.05) {
    tally.fail("hit ratio " + number(hit_ratio) + " is not about 0.9");
  }

  // Direct index probes on the same selectors.
  std::vector<std::uint32_t> probes;
  const auto slots = static_cast<std::uint64_t>(open_opts.rate * open_opts.seconds);
  for (std::uint64_t slot = 0; slot < slots; ++slot) {
    if (is_reload(w, slot)) continue;
    std::vector<std::uint32_t> s = slot_selectors(expected, opt.seed, slot, w.batch);
    probes.insert(probes.end(), s.begin(), s.end());
  }
  std::shared_ptr<const core::LookupGeneration> live = serving.service->snapshot();
  std::vector<double> probe_ns;
  std::size_t found = 0;
  for (int r = 0; r < 3; ++r) {
    found = 0;
    const std::int64_t t0 = now_ns();
    for (std::uint32_t selector : probes) found += live->index->lookup(selector).size();
    probe_ns.push_back(per(static_cast<double>(now_ns() - t0), static_cast<double>(probes.size())));
  }
  live.reset();

  // Reloads of the serving directory, timed at the client.
  std::vector<double> reload_ms;
  Exchange ex;
  for (int r = 0; r < 5; ++r) {
    ++tally.attempted;
    if (!exchange(serving.server->port(), render_post("/reload", "{}"), 5000, ex) || ex.status != 200) {
      tally.fail("reload failed");
      continue;
    }
    reload_ms.push_back(static_cast<double>(ex.done_ns - ex.start_ns) / 1e6);
  }
  check_server(serving.server->stats(), tally);
  serving.server->stop();

  std::vector<const SpanRecorder*> clients;
  for (const SpanRecorder& r : client_spans) clients.push_back(&r);
  std::map<std::string, LayerTime> serve = layer_times(clients);
  const double requests = static_cast<double>(serve["loadgen.request"].count);
  double serve_total_ns = 0;
  for (const auto& [name, t] : serve) serve_total_ns += t.self_ns;
  const double ttfb_us = per(serve["lookup_server.ttfb"].self_ns / 1e3, requests);
  std::sort(open.late_ms.begin(), open.late_ms.end());
  run.add("lookup.probe_ns", median(probe_ns), "ns");
  run.add("lookup.index_share", per(static_cast<double>(w.batch) * median(probe_ns) / 1e3, ttfb_us),
          "ratio");
  run.add("lookup_server.connect_us", per(serve["lookup_server.connect"].self_ns / 1e3, requests), "us");
  run.add("lookup_server.ttfb_us", ttfb_us, "us");
  run.add("lookup_server.read_us", per(serve["lookup_server.read"].self_ns / 1e3, requests), "us");
  run.add("lookup_server.response_bytes",
          per(static_cast<double>(open.response_bytes), static_cast<double>(open.attempted - open.failed)),
          "bytes");
  run.add("lookup_server.reload_ms", median(reload_ms), "ms");
  run.add("lookup_server.hit_ratio", hit_ratio, "ratio");
  run.add("loadgen.late_p99_ms", percentile(open.late_ms, 0.99), "ms");
  run.add("lookup_server.send_us", per(serve["lookup_server.send"].self_ns / 1e3, requests), "us");
  run.add("lookup.probe_candidates", static_cast<double>(found), "count");
  print_layers("traced serving (client side):", serve, serve_total_ns);

  if (!opt.trace_out.empty()) {
    std::vector<const SpanRecorder*> all = {&scan_spans, &setup_spans};
    all.insert(all.end(), clients.begin(), clients.end());
    if (!write_chrome_trace(opt.trace_out, all)) tally.fail("cannot write " + opt.trace_out);
  }
}

// --- output --------------------------------------------------------------------

// The metrics the result line carries: end-to-end untraced, per-layer traced.
std::span<const MetricDef> listed(bool trace) {
  return trace ? std::span<const MetricDef>(kPerLayer) : std::span<const MetricDef>(kEndToEnd);
}

std::string metrics_json(const Run& run, bool trace, bool with_bounds) {
  std::string out = "{";
  bool first = true;
  auto emit = [&](const MetricDef& def) {
    const Metric* m = run.find(def.name);
    if (m == nullptr) return;
    out += first ? "" : ", ";
    first = false;
    out += '"' + std::string(def.name) + R"(": {"value": )" + number(m->value) + R"(, "unit": ")" +
           def.unit + '"';
    if (with_bounds) {
      out += R"(, "better": ")" + std::string(def.better) + R"(", "bound": )" + number(def.bound);
    }
    out += '}';
  };
  for (const MetricDef& def : listed(trace)) emit(def);
  return out + "}";
}

bool finish(const Options& opt, Run& run) {
  for (const MetricDef& def : listed(opt.trace)) {
    const Metric* m = run.find(def.name);
    if (m == nullptr || !std::isfinite(m->value)) {
      run.tally.fail(std::string("metric not measured: ") + def.name);
    }
  }
  std::printf("metrics:\n");
  for (const Metric& m : run.metrics) {
    std::printf("  %-38s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  const double failed_frac = per(static_cast<double>(run.tally.failed),
                                 static_cast<double>(run.tally.attempted));
  std::printf("  %-38s %16.6f fraction (%llu of %llu operations)\n", "failed_frac", failed_frac,
              static_cast<unsigned long long>(run.tally.failed),
              static_cast<unsigned long long>(run.tally.attempted));
  for (const std::string& p : run.tally.problems) std::printf("CHECK FAILED: %s\n", p.c_str());
  const bool correct = run.tally.failed == 0 && run.tally.attempted > 0;

  if (!opt.out.empty()) {
    std::ofstream out(opt.out, std::ios::app);
    out << R"({"workload": ")" << opt.workload->name << R"(", "seed": )" << opt.seed
        << R"(, "seconds": )" << number(opt.seconds) << R"(, "trace": )" << (opt.trace ? 1 : 0)
        << R"(, "correct": )" << (correct ? "true" : "false") << R"(, "attempted": )"
        << run.tally.attempted << R"(, "failed": )" << run.tally.failed
        << R"(, "metrics": )" << metrics_json(run, opt.trace, true) << "}\n";
  }
  std::printf(R"({"correct": %s, "attempted": %llu, "failed": %llu, "metrics": %s})"
              "\n",
              correct ? "true" : "false", static_cast<unsigned long long>(run.tally.attempted),
              static_cast<unsigned long long>(run.tally.failed),
              metrics_json(run, opt.trace, false).c_str());
  return correct;
}

bool run_one(Options opt) {
  if (opt.work_dir.empty()) opt.work_dir = ".bench_build/e2e-work-" + std::to_string(::getpid());
  std::filesystem::remove_all(opt.work_dir);
  std::filesystem::create_directories(opt.work_dir);
  std::printf("== bench_e2e workload=%s seed=%llu seconds=%s trace=%d jobs=%u clients=%u\n",
              opt.workload->name, static_cast<unsigned long long>(opt.seed),
              number(opt.seconds).c_str(), opt.trace ? 1 : 0, parallelism(), parallelism());
  std::fflush(stdout);
  Run run;
  if (opt.trace) {
    run_traced(opt, run);
  } else {
    run_untraced(opt, run);
  }
  std::filesystem::remove_all(opt.work_dir);
  return finish(opt, run);
}

// --- --check-repeat --------------------------------------------------------------

struct Sample {
  std::uint64_t seed = 0;
  double value = 0;
};

bool check_repeat(const std::string& path_a, const std::string& path_b) {
  // (workload, metric) -> samples; failed fraction per workload.
  using Table = std::map<std::pair<std::string, std::string>, std::vector<Sample>>;
  auto load = [](const std::string& path, Table& table, std::map<std::string, std::vector<double>>& failed) {
    std::ifstream in(path);
    if (!in) return false;
    std::string line;
    while (std::getline(in, line)) {
      std::optional<core::JsonValue> doc = core::parse_json(line);
      if (!doc.has_value()) continue;
      const core::JsonValue* workload = doc->find("workload");
      const core::JsonValue* trace = doc->find("trace");
      const core::JsonValue* metrics = doc->find("metrics");
      const core::JsonValue* seed = doc->find("seed");
      if (workload == nullptr || trace == nullptr || metrics == nullptr || seed == nullptr ||
          trace->number != 0) {
        continue;
      }
      const core::JsonValue* attempted = doc->find("attempted");
      const core::JsonValue* f = doc->find("failed");
      if (attempted != nullptr && f != nullptr && attempted->number > 0) {
        failed[workload->string].push_back(f->number / attempted->number);
      }
      for (const auto& [name, value] : metrics->object) {
        if (const core::JsonValue* v = value.find("value")) {
          table[{workload->string, name}].push_back({static_cast<std::uint64_t>(seed->number), v->number});
        }
      }
    }
    return true;
  };
  Table a;
  Table b;
  std::map<std::string, std::vector<double>> failed_a;
  std::map<std::string, std::vector<double>> failed_b;
  if (!load(path_a, a, failed_a) || !load(path_b, b, failed_b)) {
    std::fprintf(stderr, "cannot read %s or %s\n", path_a.c_str(), path_b.c_str());
    return false;
  }
  // The sets must cover the same (workload, metric) pairs: a pair one set
  // lacks means runs that crashed or were never made, and fails.
  std::set<std::pair<std::string, std::string>> keys;
  for (const Table* t : {&a, &b}) {
    for (const auto& [key, samples] : *t) {
      for (const MetricDef& d : kEndToEnd) {
        if (key.second == d.name) keys.insert(key);
      }
    }
  }
  auto values = [](const std::vector<Sample>& samples) {
    std::vector<double> v;
    for (const Sample& s : samples) v.push_back(s.value);
    return v;
  };
  // (max - min) / median: with a handful of runs per set, the plain range.
  auto spread = [](std::vector<double> v) {
    if (v.size() < 2) return 0.0;
    std::sort(v.begin(), v.end());
    return per(v.back() - v.front(), std::abs(median(v)));
  };
  bool ok = true;
  std::printf("%-22s %-26s %14s %14s %9s %7s %8s %8s\n", "workload", "metric", "median a",
              "median b", "change", "bound", "range a", "range b");
  for (const auto& key : keys) {
    const MetricDef* def = nullptr;
    for (const MetricDef& d : kEndToEnd) {
      if (key.second == d.name) def = &d;
    }
    auto ia = a.find(key);
    auto ib = b.find(key);
    if (ia == a.end() || ib == b.end()) {
      ok = false;
      std::printf("%-22s %-26s missing from %s\n", key.first.c_str(), key.second.c_str(),
                  ia == a.end() ? path_a.c_str() : path_b.c_str());
      continue;
    }
    const double ma = median(values(ia->second));
    const double mb = median(values(ib->second));
    const double change = per(mb - ma, std::abs(ma));
    const double range_a = spread(values(ia->second));
    const double range_b = spread(values(ib->second));
    // Two runs of the same code must agree either way round, so the bound
    // applies to the size of the change, not only to a worsening.
    bool pass = std::abs(change) <= def->bound;
    // Recovery is deterministic: the same seed must score the same.
    if (key.second == "recovery_accuracy") {
      for (const Sample& sa : ia->second) {
        for (const Sample& sb : ib->second) {
          if (sa.seed == sb.seed && sa.value != sb.value) pass = false;
        }
      }
    }
    ok = ok && pass;
    // Runs spread wider than the bound cannot tell a change of that size
    // from noise: such a pair is unresolved even when its medians agree.
    const bool unresolved = std::max(range_a, range_b) > def->bound;
    std::printf("%-22s %-26s %14.6f %14.6f %+8.2f%% %6.1f%% %7.1f%% %7.1f%% %s\n",
                key.first.c_str(), key.second.c_str(), ma, mb, 100 * change, 100 * def->bound,
                100 * range_a, 100 * range_b,
                !pass ? "DIFFERS" : (unresolved ? "ok (unresolved: range above bound)" : "ok"));
  }
  std::set<std::string> workloads_seen;
  for (const auto& [workload, f] : failed_a) workloads_seen.insert(workload);
  for (const auto& [workload, f] : failed_b) workloads_seen.insert(workload);
  for (const std::string& workload : workloads_seen) {
    auto fa = failed_a.find(workload);
    auto fb = failed_b.find(workload);
    if (fa == failed_a.end() || fb == failed_b.end()) {
      ok = false;
      std::printf("%-22s %-26s missing from %s\n", workload.c_str(), "failed_frac",
                  fa == failed_a.end() ? path_a.c_str() : path_b.c_str());
      continue;
    }
    // A run that crashed wrote no line: the sets must hold as many runs.
    const double ma = median(fa->second);
    const double mb = median(fb->second);
    const bool same_runs = fa->second.size() == fb->second.size();
    const bool pass = ma == mb && same_runs;
    ok = ok && pass;
    std::printf("%-22s %-26s %14.6f %14.6f %9s %6.1f%% %zu vs %zu runs %s\n", workload.c_str(),
                "failed_frac", ma, mb, "", 0.0, fa->second.size(), fb->second.size(),
                pass ? "ok" : (same_runs ? "DIFFERS" : "RUNS DIFFER"));
  }
  return ok;
}

int usage() {
  std::fprintf(stderr,
               "usage: bench_e2e --workload W [--seed S] [--seconds N] [--trace 0|1] [--out FILE]\n"
               "                 [--trace-out FILE] [--work-dir DIR]\n"
               "       bench_e2e --smoke\n"
               "       bench_e2e --check-repeat A.jsonl B.jsonl\n"
               "workloads:");
  for (const Workload& w : workloads()) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace
}  // namespace bench_e2e

int main(int argc, char** argv) {
  using namespace bench_e2e;
  Options opt;
  bool smoke = false;
  std::vector<std::string> args(argv + 1, argv + argc);
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& a = args[i];
    auto value = [&]() -> const std::string* { return i + 1 < args.size() ? &args[++i] : nullptr; };
    const std::string* v = nullptr;
    if (a == "--smoke") {
      smoke = true;
    } else if (a == "--check-repeat") {
      if (i + 2 >= args.size()) return usage();
      return check_repeat(args[i + 1], args[i + 2]) ? 0 : 1;
    } else if ((a == "--workload") && (v = value()) != nullptr) {
      opt.workload = find_workload(*v);
      if (opt.workload == nullptr) return usage();
    } else if (a == "--seed" && (v = value()) != nullptr) {
      opt.seed = std::strtoull(v->c_str(), nullptr, 10);
    } else if (a == "--seconds" && (v = value()) != nullptr) {
      opt.seconds = std::strtod(v->c_str(), nullptr);
      if (!(opt.seconds > 0)) return usage();
    } else if (a == "--trace" && (v = value()) != nullptr && (*v == "0" || *v == "1")) {
      opt.trace = *v == "1";
    } else if (a == "--out" && (v = value()) != nullptr) {
      opt.out = *v;
    } else if (a == "--trace-out" && (v = value()) != nullptr) {
      opt.trace_out = *v;
    } else if (a == "--work-dir" && (v = value()) != nullptr) {
      opt.work_dir = *v;
    } else {
      return usage();
    }
  }
  if (smoke) {
    // Every workload at 1/16 size, untraced then traced: correctness only.
    bool ok = true;
    for (const Workload& w : workloads()) {
      for (bool trace : {false, true}) {
        Options o = opt;
        o.workload = &w;
        o.trace = trace;
        o.scale = 16;
        o.seconds = 2;
        ok = run_one(o) && ok;
      }
    }
    std::printf("smoke: %s\n", ok ? "ok" : "FAILED");
    return ok ? 0 : 1;
  }
  if (opt.workload == nullptr) return usage();
  return run_one(opt) ? 0 : 1;
}
