// Workload inputs, the timed scan, accuracy scoring, and the traced replay of
// the batch engine's per-contract call sequence.
#include <sys/resource.h>

#include <filesystem>
#include <map>
#include <optional>

#include "apps/txstream.hpp"
#include "corpus/scoring.hpp"
#include "e2e.hpp"
#include "evm/bytecode.hpp"
#include "sigrec/cache.hpp"
#include "sigrec/function_extractor.hpp"
#include "sigrec/tase.hpp"

namespace bench_e2e {

namespace core = sigrec::core;

const std::vector<Workload>& workloads() {
  // Sizes keep one timed scan rep near a second on 4 cores, so a run holds
  // several reps; the ratio of distinct inputs between the two corpora
  // follows the 16000 : 6000 x 8 split the benchmark was designed around.
  static const std::vector<Workload> kAll = {
      {"unique-batch16", 8000, 1, 16, 0, 23599, 23955},
      {"dup8-batch16", 3000, 8, 16, 0, 70216, 71208},
      {"unique-single-reload", 8000, 1, 1, 5000, 23599, 23955},
  };
  return kAll;
}

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : workloads()) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

Inputs make_inputs(std::size_t distinct, unsigned copies, std::uint64_t seed) {
  Inputs in;
  in.distinct = distinct;
  in.copies = copies;
  in.corpus = sigrec::corpus::make_open_source_corpus(distinct, seed);
  std::vector<std::string> hex;
  hex.reserve(distinct);
  for (const auto& spec : in.corpus.specs) hex.push_back(sigrec::compiler::compile_contract(spec).to_hex());
  in.entries.reserve(distinct * copies);
  for (unsigned c = 0; c < copies; ++c) {
    for (const std::string& h : hex) {
      in.entries.push_back({"", h});
      in.code_bytes += (h.size() - 2) / 2;
    }
  }
  sigrec::apps::TxStreamOptions stream;
  stream.count = 8 * distinct;
  stream.seed = seed;
  for (const sigrec::apps::Transaction& tx : sigrec::apps::make_transaction_stream(in.corpus, stream)) {
    in.calls.push_back(static_cast<std::uint32_t>(tx.calldata[0]) << 24 |
                       static_cast<std::uint32_t>(tx.calldata[1]) << 16 |
                       static_cast<std::uint32_t>(tx.calldata[2]) << 8 | tx.calldata[3]);
  }
  return in;
}

double process_cpu_seconds() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) / 1e6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

namespace {

std::size_t count_lines(const std::string& text) {
  std::size_t n = 0;
  for (char c : text) n += c == '\n' ? 1 : 0;
  return n;
}

}  // namespace

ScanRep run_scan(const Inputs& in, const std::string& dir, unsigned jobs,
                 const std::string& reference, Tally& tally) {
  std::filesystem::remove_all(dir);
  ScanRep rep;
  {
    core::ShardedSink sink(dir, kShardBits);
    if (!sink.ok()) tally.fail("cannot create shard directory " + dir);
    core::HexListSource source(in.entries);
    core::BatchOptions opts;
    opts.jobs = jobs;
    opts.sink = &sink;
    const double cpu0 = process_cpu_seconds();
    const std::int64_t wall0 = now_ns();
    rep.result = core::recover_stream(source, opts);
    rep.wall_s = static_cast<double>(now_ns() - wall0) / 1e9;
    rep.cpu_s = process_cpu_seconds() - cpu0;
  }
  const core::BatchHealth& health = rep.result.health;
  tally.attempted += health.contracts;
  auto status_count = [&health](core::RecoveryStatus s) {
    return health.contract_status[static_cast<std::size_t>(s)];
  };
  if (health.contracts != in.entries.size()) {
    tally.fail("scan reported " + std::to_string(health.contracts) + " of " +
               std::to_string(in.entries.size()) + " contracts");
  }
  if (std::uint64_t bad = status_count(core::RecoveryStatus::MalformedBytecode) +
                          status_count(core::RecoveryStatus::InternalError);
      bad != 0) {
    tally.fail(std::to_string(bad) + " contracts failed to ingest or hit an internal error", bad);
  }

  core::MergeStats merge;
  rep.merged = core::merge_shards(core::list_shard_files(dir), &merge);
  const std::uint64_t rows = count_lines(rep.merged);
  rep.records_lost = merge.load.skipped() + (health.functions > rows ? health.functions - rows : 0);
  if (rep.records_lost != 0) {
    tally.fail("shard records lost: " + std::to_string(rep.records_lost) + " (" +
                   merge.load.to_string() + ")",
               rep.records_lost);
  } else if (rows != health.functions) {
    tally.fail("merged rows " + std::to_string(rows) + " != functions " +
               std::to_string(health.functions));
  }
  if (!reference.empty() && rep.merged != reference) tally.fail("merged TSV differs between reps");
  return rep;
}

Accuracy score(const Inputs& in, const core::BatchResult& result) {
  Accuracy acc;
  for (const core::ContractReport& report : result.contracts) {
    sigrec::corpus::RecoveredMap recovered;
    for (const core::RecoveredFunction& fn : report.functions) recovered.emplace(fn.selector, fn.parameters);
    sigrec::corpus::Score s =
        sigrec::corpus::score_contract(in.corpus.specs[report.ordinal % in.distinct], recovered);
    acc.correct += s.correct;
    acc.total += s.total;
  }
  return acc;
}

namespace {

void render_contract(std::string& out, std::size_t ordinal,
                     const std::vector<core::RecoveredFunction>& functions) {
  out += std::to_string(ordinal);
  for (const core::RecoveredFunction& fn : functions) {
    out += ' ';
    out += fn.to_string();
    out += '/';
    out += sigrec::symexec::status_name(fn.status);
    if (fn.partial) out += "/partial";
  }
  out += '\n';
}

// The ExprPool intern counters are lifetime totals of one pool; the executor
// keeps reusing its pool, so a run's share is the difference to the last one.
struct PoolCounter {
  const sigrec::symexec::ExprPool* pool = nullptr;
  sigrec::symexec::ExprPool::Stats last;

  void add(const sigrec::symexec::ExprPool* current, ReplayStats& stats) {
    if (current == nullptr) return;
    sigrec::symexec::ExprPool::Stats now = current->stats();
    if (current != pool) last = {};
    stats.intern_hits += now.intern_hits - last.intern_hits;
    stats.intern_misses += now.intern_misses - last.intern_misses;
    pool = current;
    last = now;
  }
};

}  // namespace

std::string canonical_functions(const core::BatchResult& result) {
  std::string out;
  for (const core::ContractReport& report : result.contracts) {
    render_contract(out, report.ordinal, report.functions);
  }
  return out;
}

ReplayStats replay_scan(const std::vector<core::HexListSource::Entry>& entries,
                        const std::string& sink_dir, SpanRecorder& spans, Tally& tally) {
  std::filesystem::remove_all(sink_dir);
  const core::BatchOptions opts;  // the engine's defaults: limits and retry ladder
  core::RecoveryCache cache;
  core::ShardedSink sink(sink_dir, kShardBits);
  ReplayStats stats;
  PoolCounter pool_counter;
  for (std::size_t ordinal = 0; ordinal < entries.size(); ++ordinal) {
    Scope contract_span(spans, "contract", ordinal);
    std::optional<sigrec::evm::Bytecode> code;
    {
      Scope s(spans, "pipeline.hex_decode", ordinal);
      std::string error;
      if (auto raw = sigrec::evm::bytes_from_hex_tolerant(entries[ordinal].hex, &error)) {
        code.emplace(std::move(*raw));
      }
    }
    if (!code.has_value() || code->empty()) {
      tally.fail("replay: contract " + std::to_string(ordinal) + " did not decode");
      continue;
    }
    core::ContractReport report;
    report.ordinal = ordinal;
    sigrec::evm::Hash256 hash{};
    {
      Scope s(spans, "evm.code_hash", ordinal);
      hash = code->code_hash();
    }
    core::ContractClaim claim;
    {
      Scope s(spans, "cache.claim", ordinal);
      claim = cache.claim_contract(hash, ordinal);
      if (claim.kind == core::ClaimKind::Hit) {
        for (const core::FunctionOutcome& outcome : claim.hit->functions) {
          report.functions.push_back(outcome.fn);
        }
      }
    }
    if (claim.kind != core::ClaimKind::Hit) {
      {
        Scope s(spans, "evm.disasm", ordinal);
        (void)code->disassembly();
      }
      std::vector<std::uint32_t> selectors;
      {
        Scope s(spans, "function_extractor.selectors", ordinal);
        selectors = core::extract_function_ids(*code);
      }
      std::vector<std::optional<sigrec::evm::Hash256>> keys(selectors.size());
      {
        Scope s(spans, "function_extractor.dispatch_table", ordinal);
        std::uint8_t convention = core::dispatcher_convention(*code);
        std::map<std::uint32_t, const core::DispatchedFunction*> by_selector;
        std::vector<core::DispatchedFunction> table = core::extract_dispatch_table(*code);
        for (const core::DispatchedFunction& fn : table) by_selector[fn.selector] = &fn;
        for (std::size_t j = 0; j < selectors.size(); ++j) {
          auto it = by_selector.find(selectors[j]);
          if (it == by_selector.end() || it->second->block_byte_ranges.empty()) continue;
          keys[j] = core::function_body_key(*code, selectors[j], convention,
                                            it->second->block_byte_ranges);
        }
      }
      std::optional<sigrec::symexec::SymExecutor> executor;
      core::CachedContract entry;
      for (std::size_t j = 0; j < selectors.size(); ++j) {
        if (keys[j].has_value()) {
          std::optional<core::FunctionOutcome> hit;
          {
            Scope s(spans, "cache.find_function", ordinal);
            hit = cache.find_function(*keys[j]);
          }
          if (hit.has_value()) {
            entry.functions.push_back(std::move(*hit));
            continue;
          }
        }
        core::FunctionOutcome out;
        core::RecoveredFunction& fn = out.fn;
        fn.selector = selectors[j];
        {
          sigrec::symexec::Trace trace;
          {
            Scope s(spans, "symexec.run", ordinal);
            if (!executor.has_value()) executor.emplace(*code, opts.limits);
            trace = executor->run(selectors[j]);
          }
          ++stats.runs;
          stats.steps += trace.total_steps;
          stats.paths += trace.paths_explored;
          stats.summary_hits += trace.summary_hits;
          stats.summary_misses += trace.summary_misses;
          pool_counter.add(trace.pool.get(), stats);
          {
            Scope s(spans, "tase.infer", ordinal);
            core::RuleStats rules;
            core::TaseResult tase = core::run_tase(trace, rules);
            fn.parameters = std::move(tase.parameters);
            fn.dialect = tase.dialect;
          }
          fn.symbolic_steps = trace.total_steps;
          fn.paths_explored = trace.paths_explored;
          fn.status = trace.status;
          fn.error = std::move(trace.error);
          fn.partial = sigrec::symexec::is_failure(fn.status);
        }
        // The engine's degradation ladder for budget-blown functions.
        if (opts.retry_budget_exhausted && opts.max_retries > 0 &&
            sigrec::symexec::is_budget_exhaustion(fn.status)) {
          Scope s(spans, "symexec.ladder", ordinal);
          for (int rung = 1; rung <= opts.max_retries; ++rung) {
            ++out.retries;
            core::RecoveredFunction retry =
                core::SigRec(core::ladder_limits(opts, rung)).recover_function(*code, fn.selector);
            if (retry.status == core::RecoveryStatus::Complete &&
                retry.parameters.size() > fn.parameters.size()) {
              ++out.salvaged;
              fn.parameters = std::move(retry.parameters);
              fn.dialect = retry.dialect;
              break;
            }
          }
          fn.partial = true;
        }
        if (keys[j].has_value()) {
          Scope s(spans, "cache.store_function", ordinal);
          cache.store_function(*keys[j], out);
        }
        entry.functions.push_back(std::move(out));
      }
      {
        Scope s(spans, "cache.publish", ordinal);
        for (const core::FunctionOutcome& outcome : entry.functions) {
          entry.status = sigrec::symexec::worst_status(entry.status, outcome.fn.status);
          report.functions.push_back(outcome.fn);
        }
        (void)cache.publish_contract(hash, entry);
      }
    }
    {
      Scope s(spans, "shard.write", ordinal);
      sink.write(report);
    }
    render_contract(stats.canonical, ordinal, report.functions);
  }
  {
    Scope s(spans, "shard.write", entries.size());
    if (!sink.flush()) tally.fail("replay: shard flush failed");
  }
  stats.records = sink.records_written();
  return stats;
}

}  // namespace bench_e2e
