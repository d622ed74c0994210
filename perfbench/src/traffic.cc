#include "traffic.h"

#include <algorithm>

namespace perfbench {

namespace {

double Unit(uint64_t h) {
  return static_cast<double>(h >> 11) * (1.0 / 9007199254740992.0);
}

// `bytes` printable characters: the 16 hex digits of `tag`, repeated.
void AppendValue(uint64_t tag, size_t bytes, std::string* out) {
  static constexpr char kHex[] = "0123456789abcdef";
  char unit[16];
  for (int i = 0; i < 16; i++) {
    unit[i] = kHex[(tag >> (4 * i)) & 0xf];
  }
  for (size_t done = 0; done < bytes;) {
    const size_t n = std::min<size_t>(16, bytes - done);
    out->append(unit, n);
    done += n;
  }
}

}  // namespace

uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

uint64_t HashBytes(std::string_view bytes) {
  uint64_t h = 1469598103934665603ull;
  for (const char c : bytes) {
    h = (h ^ static_cast<uint8_t>(c)) * 1099511628211ull;
  }
  return h;
}

Traffic::Traffic(const Mix& mix, uint64_t seed, int connections)
    : mix_(mix),
      seed_(seed),
      connections_(connections),
      zipf_(std::max<uint64_t>(1, mix.keys / connections)),
      values_(zipf_.n() * static_cast<uint64_t>(connections)) {}

void Traffic::AppendKey(uint64_t key, std::string* out) {
  char name[kKeyBytes];
  name[0] = 'k';
  for (size_t i = kKeyBytes - 1; i > 0; i--) {
    name[i] = static_cast<char>('0' + key % 10);
    key /= 10;
  }
  out->append(name, kKeyBytes);
}

void Traffic::AppendSet(uint64_t key, uint64_t tag, size_t bytes,
                        std::string* out) {
  std::string& value = values_[key];
  value.clear();
  AppendValue(tag, bytes, &value);
  out->append("SET ");
  AppendKey(key, out);
  out->push_back(' ');
  out->append(value);
  out->push_back('\n');
  user_write_bytes_ += kKeyBytes + bytes;
}

Pending Traffic::Emit(uint64_t seq, int conn, std::string* out) {
  const uint64_t h = Mix64(seq ^ Mix64(seed_));
  const uint64_t key =
      zipf_.NextForUniform(Unit(h)) * static_cast<uint64_t>(connections_) +
      static_cast<uint64_t>(conn);
  const double op = Unit(Mix64(h));
  Pending pending;
  if (op < mix_.get_share) {
    out->append("GET ");
    AppendKey(key, out);
    out->push_back('\n');
    pending.kind = Pending::kRead;
    pending.expect = HashBytes(values_[key]);
    return pending;
  }
  std::string& value = values_[key];
  if (op < mix_.get_share + mix_.append_share &&
      value.size() + mix_.append_bytes <= kMaxValueBytes) {
    const size_t old_size = value.size();
    AppendValue(Mix64(h + 1), mix_.append_bytes, &value);
    out->append("APPEND ");
    AppendKey(key, out);
    out->push_back(' ');
    out->append(value, old_size, std::string::npos);
    out->push_back('\n');
    user_write_bytes_ += kKeyBytes + mix_.append_bytes;
    return pending;
  }
  AppendSet(key, Mix64(h + 2), mix_.set_bytes, out);
  return pending;
}

Pending Traffic::EmitPreload(uint64_t key, std::string* out) {
  AppendSet(key, Mix64(seed_ ^ Mix64(~key)), mix_.set_bytes, out);
  return Pending{};
}

Pending Traffic::EmitCheck(uint64_t key, std::string* out) const {
  out->append("GET ");
  AppendKey(key, out);
  out->push_back('\n');
  Pending pending;
  pending.kind = Pending::kRead;
  pending.expect = HashBytes(values_[key]);
  return pending;
}

}  // namespace perfbench
