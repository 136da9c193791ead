// Shared pieces of bench_e2e: workloads, inputs, correctness tally, and the
// scan and serve phases that main() in bench_e2e.cpp strings together.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "corpus/datasets.hpp"
#include "sigrec/batch.hpp"
#include "sigrec/lookup.hpp"
#include "sigrec/shard.hpp"
#include "spans.hpp"

namespace bench_e2e {

inline constexpr int kShardBits = 4;

// One benchmark workload. Every workload runs the whole path (scan, compact,
// serve, query); they differ in how much work the inputs share and in the
// traffic mix, which decides which layers dominate.
struct Workload {
  const char* name;
  std::size_t distinct;       // contracts generated with make_open_source_corpus
  unsigned copies;            // each appears this often, interleaved round-robin
  std::size_t batch;          // selectors per POST /lookup
  std::uint64_t reload_every;  // every n-th due slot is a POST /reload; 0 = none
  // Exact recovery counts for seed 1 at full size: a change in recovery shows
  // up as a failed check that has to be explained, not as a drift.
  std::size_t pinned_correct;
  std::size_t pinned_total;
};

[[nodiscard]] const std::vector<Workload>& workloads();
[[nodiscard]] const Workload* find_workload(const std::string& name);

// Operations attempted and failed, plus a line for every failure.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> problems;

  void fail(std::string why, std::uint64_t count = 1) {
    failed += count;
    if (problems.size() < 20) problems.push_back(std::move(why));
  }
};

// The generated inputs: ground-truth specs, the hex the scan ingests, and the
// selectors of a transaction stream over the same contracts.
struct Inputs {
  sigrec::corpus::Corpus corpus;  // `distinct` specs
  std::vector<sigrec::core::HexListSource::Entry> entries;
  std::size_t distinct = 0;
  unsigned copies = 1;
  std::size_t code_bytes = 0;  // sum over entries
  // The called selector of each of 8 * `distinct` transactions from
  // apps::make_transaction_stream: each picks a contract uniformly, then one
  // of its functions uniformly, so a selector is asked in proportion to the
  // calls its contracts receive, not uniformly over selectors.
  std::vector<std::uint32_t> calls;
};

// `distinct` contracts from `seed`, each repeated `copies` times round-robin.
[[nodiscard]] Inputs make_inputs(std::size_t distinct, unsigned copies, std::uint64_t seed);

// --- scan --------------------------------------------------------------------

// CPU time (user + sys) of every thread of this process so far.
[[nodiscard]] double process_cpu_seconds();

struct ScanRep {
  double wall_s = 0;
  double cpu_s = 0;  // process CPU (user + sys) over the rep
  sigrec::core::BatchResult result;
  std::string merged;  // merge_shards over the rep's shard directory
  std::uint64_t records_lost = 0;
};

// One recover_stream over every input into a fresh ShardedSink under `dir`,
// then merges the shards back. Records failures in `tally`; `reference` is
// an earlier rep's merged TSV to compare against (empty: none yet).
[[nodiscard]] ScanRep run_scan(const Inputs& in, const std::string& dir, unsigned jobs,
                               const std::string& reference, Tally& tally);

// Functions whose selector and parameter list match the spec.
struct Accuracy {
  std::size_t correct = 0;
  std::size_t total = 0;
};
[[nodiscard]] Accuracy score(const Inputs& in, const sigrec::core::BatchResult& result);

// Counters of the traced replay (see replay_scan).
struct ReplayStats {
  std::uint64_t runs = 0;  // symbolic runs at rung 0
  std::uint64_t steps = 0;
  std::uint64_t paths = 0;
  std::uint64_t intern_hits = 0;
  std::uint64_t intern_misses = 0;
  std::uint64_t summary_hits = 0;
  std::uint64_t summary_misses = 0;
  std::uint64_t records = 0;  // records the sink wrote
  std::string canonical;      // per-contract functions, to compare with the engine
};

// Makes, on this thread, the sequence of public calls the batch engine makes
// for each contract, with a span around each (when `spans` is enabled).
[[nodiscard]] ReplayStats replay_scan(const std::vector<sigrec::core::HexListSource::Entry>& entries,
                                      const std::string& sink_dir, SpanRecorder& spans,
                                      Tally& tally);

// The same rendering replay_scan produces, from an engine result.
[[nodiscard]] std::string canonical_functions(const sigrec::core::BatchResult& result);

// --- serve -------------------------------------------------------------------

// What every selector must answer, from merge_shards rows, and what the
// traffic asks for.
struct Expected {
  std::unordered_map<std::uint32_t, std::vector<std::string>> rows;  // sorted, unique
  std::vector<std::uint32_t> present;
  std::vector<std::uint32_t> absent;  // selectors no contract has
  std::vector<std::uint32_t> calls;   // Inputs::calls
};
[[nodiscard]] Expected expected_answers(const std::string& merged, std::vector<std::uint32_t> calls,
                                        std::uint64_t seed);

// A compacted, loaded, listening lookup server.
struct Serving {
  std::unique_ptr<sigrec::core::LookupService> service;
  std::unique_ptr<sigrec::core::LookupServer> server;
};

// compact_shards + LookupService::load + LookupServer::start on `dir`, each
// under a span. Returns the elapsed seconds, or a negative value on failure.
double set_up_server(const std::string& dir, int shard_bits, Serving& out, SpanRecorder& spans,
                     Tally& tally);

// The selectors slot `slot` asks for: 90% drawn from the transaction
// stream's calls, 10% from the absent selectors.
[[nodiscard]] std::vector<std::uint32_t> slot_selectors(const Expected& expected,
                                                        std::uint64_t seed, std::uint64_t slot,
                                                        std::size_t batch);
[[nodiscard]] std::string lookup_body(const std::vector<std::uint32_t>& selectors);

// True when a /lookup response body answers `asked` exactly as `expected`.
[[nodiscard]] bool answers_match(const std::string& body, const std::vector<std::uint32_t>& asked,
                                 const Expected& expected);

// Queries every present selector and every absent one, 16 per request, and
// checks each answer.
void sweep_all(std::uint16_t port, const Expected& expected, Tally& tally);

}  // namespace bench_e2e
