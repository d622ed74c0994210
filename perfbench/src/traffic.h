// Request generation and the client-side model of what the server holds.
//
// Keys are partitioned by connection (key = slot * connections + conn), and
// a connection's replies come back in order, so the value each key must hold
// is known exactly: it is the value of the last write sent for it. Every
// request's bytes derive from the seed, its request number and its
// connection alone.

#ifndef PERFBENCH_TRAFFIC_H_
#define PERFBENCH_TRAFFIC_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "workload/zipfian.h"

namespace perfbench {

struct Mix {
  double get_share = 0;     // GET
  double append_share = 0;  // APPEND; the rest is SET
  size_t set_bytes = 16;
  size_t append_bytes = 16;
  uint64_t keys = 1024;  // rounded down to a multiple of the connections
};

// What the client expects of one reply.
struct Pending {
  enum Kind : uint8_t { kWrite, kRead };
  int64_t scheduled_ns = 0;
  uint64_t expect = 0;  // kRead: hash of the value the reply must carry
  Kind kind = kWrite;
};

uint64_t Mix64(uint64_t x);
uint64_t HashBytes(std::string_view bytes);

class Traffic {
 public:
  // The largest value memcached_mini stores; an APPEND that would pass it
  // is sent as a SET instead, so no request is refused. memcached_mini
  // appends in place without growing the item's block, so a mix's SET size
  // must leave room in its power-of-two block for the appends that follow.
  static constexpr size_t kMaxValueBytes = 255;
  // Keys are 'k' and seven digits, so every item has the same header size.
  static constexpr size_t kKeyBytes = 8;

  Traffic(const Mix& mix, uint64_t seed, int connections);

  uint64_t keys() const { return values_.size(); }

  // Appends request number `seq`, for a key owned by `conn`, to `out`, and
  // applies it to the model. Returns what the reply must match.
  Pending Emit(uint64_t seq, int conn, std::string* out);

  // Writes the initial value of `key` (SET), or reads it back (GET) against
  // the model.
  Pending EmitPreload(uint64_t key, std::string* out);
  Pending EmitCheck(uint64_t key, std::string* out) const;

  // Key + value bytes carried by the writes emitted so far.
  uint64_t user_write_bytes() const { return user_write_bytes_; }

 private:
  static void AppendKey(uint64_t key, std::string* out);
  void AppendSet(uint64_t key, uint64_t tag, size_t bytes, std::string* out);

  Mix mix_;
  uint64_t seed_;
  int connections_;
  arthas::ZipfianGenerator zipf_;  // over one connection's key slots
  std::vector<std::string> values_;
  uint64_t user_write_bytes_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRAFFIC_H_
