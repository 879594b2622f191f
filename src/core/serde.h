// Canonical little-endian byte serialization for persistent artifacts.
//
// The artifact store keeps every stage output on disk in the same
// canonical form the cache keys are built from (field order fixed by the
// codec, numbers as raw little-endian bit patterns): deserializing a
// record therefore reproduces the exact bytes a fresh build would have
// produced, which is what makes a store-warm run bit-identical to a cold
// one. Doubles round-trip by bit pattern — no text formatting, no
// -0.0/NaN normalization (unlike KeyHasher, which normalizes -0.0 because
// keys must treat equal values as equal; payloads must preserve bits).
//
// Reader is fail-safe, never throwing and never reading past the end: any
// short or malformed read latches ok() to false and yields zeros, so a
// truncated or corrupted record decodes to "reject and rebuild", not UB.
//
// Writer and Reader share one set of field calls (f64, boolean, str, i64
// for an int, u64 for a scalar value, u8 for an enum, vec, bits, str_map),
// so one function template per struct serves both directions
// (artifact_serde.cpp). Element counts are bounded by the bytes left;
// scalar values are not.
#pragma once

#include <cstdint>
#include <cstring>
#include <map>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

namespace vcoadc::core::serde {

class Writer {
 public:
  void u8(std::uint8_t v) { buf_.push_back(v); }

  void u32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i) {
      buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  }

  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  }

  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }

  /// Raw bit pattern — exact round trip, including NaN payloads and -0.0.
  void f64(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    u64(bits);
  }

  void boolean(bool v) { u8(v ? 1 : 0); }

  /// Length-prefixed bytes.
  void str(std::string_view s) {
    u64(s.size());
    buf_.insert(buf_.end(), s.begin(), s.end());
  }

  void size(std::size_t n) { u64(n); }

  template <typename E>
    requires std::is_enum_v<E>
  void u8(E e) {
    u8(static_cast<std::uint8_t>(e));
  }

  /// Element count, then each element through `each`.
  template <typename C, typename F>
  void vec(const C& c, F&& each) {
    size(c.size());
    for (const auto& x : c) each(x);
  }

  /// Bit count, then the bits packed LSB-first, eight to a byte.
  void bits(const std::vector<bool>& v) {
    size(v.size());
    for (std::size_t j = 0; j < v.size(); j += 8) {
      std::uint8_t acc = 0;
      for (std::size_t k = j; k < v.size() && k < j + 8; ++k) {
        acc = static_cast<std::uint8_t>(acc | ((v[k] ? 1 : 0) << (k - j)));
      }
      u8(acc);
    }
  }

  void str_map(const std::map<std::string, std::string>& m) {
    size(m.size());
    for (const auto& [k, v] : m) {
      str(k);
      str(v);
    }
  }

  const std::vector<std::uint8_t>& bytes() const { return buf_; }
  std::vector<std::uint8_t> take() { return std::move(buf_); }

 private:
  std::vector<std::uint8_t> buf_;
};

class Reader {
 public:
  Reader(const std::uint8_t* data, std::size_t n) : p_(data), n_(n) {}
  explicit Reader(const std::vector<std::uint8_t>& buf)
      : Reader(buf.data(), buf.size()) {}

  /// False once any read ran past the end (or a bounded read overflowed);
  /// every subsequent read yields zero. Check once after decoding.
  bool ok() const { return ok_; }
  std::size_t remaining() const { return n_ - pos_; }
  bool at_end() const { return pos_ == n_; }

  std::uint8_t u8() {
    if (!take(1)) return 0;
    return p_[pos_ - 1];
  }

  std::uint32_t u32() {
    if (!take(4)) return 0;
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<std::uint32_t>(p_[pos_ - 4 + i]) << (8 * i);
    }
    return v;
  }

  std::uint64_t u64() {
    if (!take(8)) return 0;
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<std::uint64_t>(p_[pos_ - 8 + i]) << (8 * i);
    }
    return v;
  }

  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }

  double f64() {
    const std::uint64_t bits = u64();
    double v = 0;
    std::memcpy(&v, &bits, sizeof v);
    return v;
  }

  bool boolean() { return u8() != 0; }

  std::string str() {
    const std::uint64_t len = u64();
    if (!ok_ || len > remaining()) {
      ok_ = false;
      return {};
    }
    std::string s(reinterpret_cast<const char*>(p_ + pos_),
                  static_cast<std::size_t>(len));
    pos_ += static_cast<std::size_t>(len);
    return s;
  }

  /// Element-count read, bounded by the remaining payload so a corrupted
  /// count can never drive a multi-gigabyte reserve: every element costs
  /// at least one byte, so a valid count is <= remaining().
  std::size_t size() {
    const std::uint64_t n = u64();
    if (!ok_ || n > remaining()) {
      ok_ = false;
      return 0;
    }
    return static_cast<std::size_t>(n);
  }

  /// Latches ok() to false: the bytes parsed but failed a structural check.
  void fail() { ok_ = false; }

  // --- the Writer's field calls, filling their argument -------------------

  void f64(double& v) { v = f64(); }
  void boolean(bool& v) { v = boolean(); }
  void str(std::string& s) { s = str(); }
  void i64(int& v) { v = static_cast<int>(i64()); }
  void u64(std::uint64_t& v) { v = u64(); }

  template <typename E>
    requires std::is_enum_v<E>
  void u8(E& e) {
    e = static_cast<E>(u8());
  }

  template <typename T, typename F>
  void vec(std::vector<T>& v, F&& each) {
    const std::size_t n = size();
    v.clear();
    v.reserve(n);
    for (std::size_t i = 0; i < n && ok_; ++i) each(v.emplace_back());
  }

  /// A bit count is bounded by the packed bytes it needs, not by one byte
  /// per bit as size() would have it.
  void bits(std::vector<bool>& v) {
    const std::uint64_t n = u64();
    if (!ok_ || n / 8 + (n % 8 != 0 ? 1 : 0) > remaining()) {
      ok_ = false;
      return;
    }
    v.assign(static_cast<std::size_t>(n), false);
    std::uint8_t acc = 0;
    for (std::size_t j = 0; j < v.size(); ++j) {
      if (j % 8 == 0) acc = u8();
      v[j] = ((acc >> (j % 8)) & 1) != 0;
    }
  }

  void str_map(std::map<std::string, std::string>& m) {
    const std::size_t n = size();
    m.clear();
    for (std::size_t i = 0; i < n && ok_; ++i) {
      std::string k = str();
      m[std::move(k)] = str();
    }
  }

 private:
  bool take(std::size_t n) {
    if (!ok_ || n > remaining()) {
      ok_ = false;
      return false;
    }
    pos_ += n;
    return true;
  }

  const std::uint8_t* p_;
  std::size_t n_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

}  // namespace vcoadc::core::serde
