#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>

#include "util/parallel.h"
#include "workload.h"

namespace perfbench {

namespace {

// Word-at-a-time mixing: the digests only have to tell equal outputs from
// different ones, and one multiply per 64-bit word keeps the check of a
// multi-million-entry RIB well under the op it checks.
constexpr uint64_t kSeed = 0x9e3779b97f4a7c15ull;

uint64_t mix(uint64_t h, uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
  return h * 0xff51afd7ed558ccdull;
}

uint64_t mix_prefix(uint64_t h, const manrs::net::Prefix& prefix) {
  h = mix(h, prefix.address().hi());
  h = mix(h, prefix.address().lo());
  return mix(h, (static_cast<uint64_t>(prefix.length()) << 1) |
                    (prefix.is_v4() ? 1u : 0u));
}

}  // namespace

uint64_t digest(const std::vector<manrs::ihr::PrefixOriginRecord>& records) {
  uint64_t h = kSeed;
  for (const auto& r : records) {
    h = mix_prefix(h, r.prefix);
    h = mix(h, (static_cast<uint64_t>(r.origin.value()) << 32) | r.visibility);
    h = mix(h, (static_cast<uint64_t>(r.rpki) << 8) |
                   static_cast<uint64_t>(r.irr));
  }
  return h;
}

uint64_t digest(const std::vector<manrs::ihr::TransitRecord>& records) {
  uint64_t h = kSeed;
  for (const auto& r : records) {
    h = mix_prefix(h, r.prefix);
    h = mix(h, (static_cast<uint64_t>(r.origin.value()) << 32) |
                   r.transit.value());
    h = mix(h, std::bit_cast<uint64_t>(r.hegemony));
    h = mix(h, (static_cast<uint64_t>(r.via_customer) << 16) |
                   (static_cast<uint64_t>(r.rpki) << 8) |
                   static_cast<uint64_t>(r.irr));
  }
  return h;
}

uint64_t digest(const manrs::bgp::Rib& rib) {
  // Rows hash in fixed chunks over the pool; the chunk hashes fold in row
  // order, so the digest does not depend on the pool width. Within a row the
  // entry hashes are summed: a row is a set of (peer, path) entries, and a
  // fold into an existing row appends its new entries after the old ones
  // rather than in peer order.
  std::vector<const std::vector<manrs::bgp::RibEntry>*> rows;
  std::vector<const manrs::net::Prefix*> prefixes;
  rows.reserve(rib.prefix_count());
  prefixes.reserve(rib.prefix_count());
  rib.for_each([&](const manrs::net::Prefix& prefix,
                   const std::vector<manrs::bgp::RibEntry>& entries) {
    prefixes.push_back(&prefix);
    rows.push_back(&entries);
  });
  constexpr size_t kChunk = 4096;
  const std::vector<uint64_t> chunks = manrs::util::parallel_map<uint64_t>(
      (rows.size() + kChunk - 1) / kChunk, [&](size_t c) {
        uint64_t h = kSeed;
        const size_t end = std::min(rows.size(), (c + 1) * kChunk);
        for (size_t r = c * kChunk; r < end; ++r) {
          h = mix_prefix(h, *prefixes[r]);
          h = mix(h, rows[r]->size());
          uint64_t row = 0;
          for (const manrs::bgp::RibEntry& e : *rows[r]) {
            uint64_t eh = mix(kSeed, (static_cast<uint64_t>(e.peer_index) << 32) |
                                         e.path.length());
            for (manrs::net::Asn hop : e.path.hops()) eh = mix(eh, hop.value());
            row += eh;
          }
          h = mix(h, row);
        }
        return h;
      });
  uint64_t h = kSeed;
  for (uint32_t p = 0; p < rib.peer_count(); ++p) {
    h = mix(h, rib.peer_asn(p).value());
  }
  for (uint64_t chunk : chunks) h = mix(h, chunk);
  return h;
}

}  // namespace perfbench
