// Server set-up, the request mix, and the answer checks of bench_e2e.
#include <algorithm>
#include <cstdio>
#include <set>

#include "e2e.hpp"
#include "loadgen.hpp"
#include "sigrec/rpc.hpp"

namespace bench_e2e {

namespace core = sigrec::core;

namespace {

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

std::string selector_hex(std::uint32_t selector) {
  char hex[16];
  std::snprintf(hex, sizeof hex, "0x%08x", selector);
  return hex;
}

}  // namespace

Expected expected_answers(const std::string& merged, std::vector<std::uint32_t> calls,
                          std::uint64_t seed) {
  // merge_shards line: <ordinal>\t0x<selector>\t<signature>\t<dialect>\t<status>[\tpartial];
  // the server answers with everything after the ordinal.
  std::map<std::uint32_t, std::set<std::string>> rows;
  std::size_t pos = 0;
  while (pos < merged.size()) {
    std::size_t end = merged.find('\n', pos);
    if (end == std::string::npos) end = merged.size();
    std::size_t tab = merged.find('\t', pos);
    if (tab != std::string::npos && tab < end) {
      std::string row = merged.substr(tab + 1, end - tab - 1);
      if (std::optional<std::uint32_t> sel = core::parse_selector(std::string_view(row).substr(0, 10))) {
        rows[*sel].insert(std::move(row));
      }
    }
    pos = end + 1;
  }
  Expected e;
  e.calls = std::move(calls);
  for (auto& [selector, set] : rows) {
    e.present.push_back(selector);
    e.rows[selector].assign(set.begin(), set.end());
  }
  std::uint64_t state = seed ^ 0xab5e47ull;
  while (e.absent.size() < 4096) {
    auto selector = static_cast<std::uint32_t>(splitmix64(state));
    if (!rows.contains(selector)) e.absent.push_back(selector);
  }
  return e;
}

double set_up_server(const std::string& dir, int shard_bits, Serving& out, SpanRecorder& spans,
                     Tally& tally) {
  // The old server's threads read its service: stop the server first.
  out.server.reset();
  out.service.reset();
  const std::int64_t start = now_ns();
  std::string error;
  {
    Scope s(spans, "lookup.compact", 0);
    if (!core::compact_shards(dir, shard_bits, nullptr, &error)) {
      tally.fail("compact_shards: " + error);
      return -1;
    }
  }
  out.service = std::make_unique<core::LookupService>();
  {
    Scope s(spans, "lookup.open", 0);
    if (!out.service->load(dir, &error)) {
      tally.fail("LookupService::load: " + error);
      return -1;
    }
  }
  out.server = std::make_unique<core::LookupServer>(*out.service);
  {
    Scope s(spans, "lookup_server.start", 0);
    if (!out.server->start(&error)) {
      tally.fail("LookupServer::start: " + error);
      return -1;
    }
  }
  return static_cast<double>(now_ns() - start) / 1e9;
}

std::vector<std::uint32_t> slot_selectors(const Expected& expected, std::uint64_t seed,
                                          std::uint64_t slot, std::size_t batch) {
  std::uint64_t state = seed * 0x2545f4914f6cdd1dull + slot;
  std::vector<std::uint32_t> out;
  out.reserve(batch);
  for (std::size_t b = 0; b < batch; ++b) {
    std::uint64_t r = splitmix64(state);
    const std::vector<std::uint32_t>& pool = r % 10 == 0 ? expected.absent : expected.calls;
    out.push_back(pool[(r >> 8) % pool.size()]);
  }
  return out;
}

std::string lookup_body(const std::vector<std::uint32_t>& selectors) {
  std::string body = R"({"selectors":[)";
  for (std::size_t i = 0; i < selectors.size(); ++i) {
    if (i != 0) body += ',';
    body += '"' + selector_hex(selectors[i]) + '"';
  }
  body += "]}";
  return body;
}

bool answers_match(const std::string& body, const std::vector<std::uint32_t>& asked,
                   const Expected& expected) {
  std::optional<core::JsonValue> doc = core::parse_json(body);
  if (!doc.has_value()) return false;
  const core::JsonValue* results = doc->find("results");
  if (results == nullptr || results->array.size() != asked.size()) return false;
  static const std::vector<std::string> kNone;
  for (std::size_t i = 0; i < asked.size(); ++i) {
    const core::JsonValue& result = results->array[i];
    const core::JsonValue* selector = result.find("selector");
    const core::JsonValue* candidates = result.find("candidates");
    if (selector == nullptr || candidates == nullptr ||
        core::parse_selector(selector->string) != asked[i]) {
      return false;
    }
    auto it = expected.rows.find(asked[i]);
    const std::vector<std::string>& rows = it == expected.rows.end() ? kNone : it->second;
    if (candidates->array.size() != rows.size()) return false;
    for (std::size_t c = 0; c < rows.size(); ++c) {
      const core::JsonValue& cand = candidates->array[c];
      const core::JsonValue* signature = cand.find("signature");
      const core::JsonValue* dialect = cand.find("dialect");
      const core::JsonValue* status = cand.find("status");
      const core::JsonValue* partial = cand.find("partial");
      if (signature == nullptr || dialect == nullptr || status == nullptr || partial == nullptr) {
        return false;
      }
      std::string row = selector_hex(asked[i]) + '\t' + signature->string + '\t' +
                        dialect->string + '\t' + status->string;
      if (partial->boolean) row += "\tpartial";
      if (row != rows[c]) return false;
    }
  }
  return true;
}

void sweep_all(std::uint16_t port, const Expected& expected, Tally& tally) {
  std::vector<std::uint32_t> all = expected.present;
  all.insert(all.end(), expected.absent.begin(), expected.absent.end());
  Exchange ex;
  for (std::size_t i = 0; i < all.size(); i += 16) {
    std::vector<std::uint32_t> batch(all.begin() + static_cast<std::ptrdiff_t>(i),
                                     all.begin() + static_cast<std::ptrdiff_t>(std::min(all.size(), i + 16)));
    ++tally.attempted;
    if (!exchange(port, render_post("/lookup", lookup_body(batch)), 5000, ex) || ex.status != 200) {
      tally.fail("sweep: request failed (status " + std::to_string(ex.status) + ")");
    } else if (!answers_match(ex.body, batch, expected)) {
      tally.fail("sweep: wrong answer for selectors from " + selector_hex(batch.front()));
    }
  }
}

}  // namespace bench_e2e
