// Stable LSD radix sort by a 64-bit key.
//
// The reactor's recovery path sorts a few thousand keys at a time: the
// tracer's (address, GUID) index, the checkpoint log's address view and the
// candidate seqs. On a 2 GHz host a comparison sort of about 6k random keys
// takes 0.4-0.6 ms. This sort makes one counting pass over the keys and then
// one scatter pass per key byte that not every key shares, so addresses in
// an 8 MB pool cost three passes.

#ifndef ARTHAS_COMMON_RADIX_SORT_H_
#define ARTHAS_COMMON_RADIX_SORT_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace arthas {

// Sorts `items` ascending by `key(item)`, a uint64_t, and keeps items with
// equal keys in their input order. To sort by a composite key, sort by each
// part in turn, least significant part first; for descending order, sort by
// ~key.
template <typename T, typename KeyFn>
void RadixSort(std::vector<T>& items, KeyFn key) {
  constexpr size_t kKeyBytes = 8;
  const size_t n = items.size();
  if (n < 2) {
    return;
  }
  std::array<std::array<size_t, 256>, kKeyBytes> counts{};
  for (const T& item : items) {
    const uint64_t k = key(item);
    for (size_t b = 0; b < kKeyBytes; b++) {
      counts[b][(k >> (8 * b)) & 0xff]++;
    }
  }
  std::vector<T> scratch;
  for (size_t b = 0; b < kKeyBytes; b++) {
    std::array<size_t, 256>& count = counts[b];
    const size_t shift = 8 * b;
    if (count[(key(items.front()) >> shift) & 0xff] == n) {
      continue;  // every key shares this byte: the pass would move nothing
    }
    size_t next = 0;
    for (size_t& c : count) {
      next += std::exchange(c, next);
    }
    scratch.resize(n);
    for (T& item : items) {
      scratch[count[(key(item) >> shift) & 0xff]++] = std::move(item);
    }
    items.swap(scratch);
  }
}

}  // namespace arthas

#endif  // ARTHAS_COMMON_RADIX_SORT_H_
