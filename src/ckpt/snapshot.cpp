#include "ckpt/snapshot.hpp"

#include <cstring>

namespace remapd {
namespace ckpt {

namespace {

template <typename T>
void append_le(std::string& buf, T v) {
  char tmp[sizeof(T)];
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(tmp, &v, sizeof(T));
  } else {
    for (std::size_t i = 0; i < sizeof(T); ++i)
      tmp[i] = static_cast<char>((v >> (8 * i)) & 0xff);
  }
  buf.append(tmp, sizeof(T));
}

template <typename T>
T read_le(const char* p) {
  T v{};
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(&v, p, sizeof(T));
  } else {
    for (std::size_t i = 0; i < sizeof(T); ++i)
      v |= static_cast<T>(static_cast<unsigned char>(p[i])) << (8 * i);
  }
  return v;
}

}  // namespace

void ByteWriter::u32(std::uint32_t v) { append_le(buf_, v); }
void ByteWriter::u64(std::uint64_t v) { append_le(buf_, v); }

void ByteWriter::str(const std::string& s) {
  u64(s.size());
  buf_.append(s);
}

void ByteWriter::vec_u8(const std::vector<std::uint8_t>& v) {
  u64(v.size());
  buf_.append(reinterpret_cast<const char*>(v.data()), v.size());
}

void ByteWriter::vec_u64(const std::vector<std::uint64_t>& v) {
  u64(v.size());
  for (std::uint64_t x : v) u64(x);
}

void ByteWriter::vec_f32(const std::vector<float>& v) {
  u64(v.size());
  f32_array(v.data(), v.size());
}

void ByteWriter::vec_f64(const std::vector<double>& v) {
  u64(v.size());
  for (double x : v) f64(x);
}

void ByteWriter::f32_array(const float* p, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) f32(p[i]);
}

const char* ByteReader::take(std::size_t n) {
  if (n > size_ - pos_)
    throw CheckpointError("read of " + std::to_string(n) +
                          " bytes past end of section (" +
                          std::to_string(size_ - pos_) + " left)");
  const char* p = data_ + pos_;
  pos_ += n;
  return p;
}

std::uint8_t ByteReader::u8() {
  return static_cast<std::uint8_t>(*take(1));
}

std::uint32_t ByteReader::u32() { return read_le<std::uint32_t>(take(4)); }
std::uint64_t ByteReader::u64() { return read_le<std::uint64_t>(take(8)); }

bool ByteReader::boolean() {
  const std::uint8_t v = u8();
  if (v > 1) throw CheckpointError("boolean field holds " + std::to_string(v));
  return v != 0;
}

std::size_t ByteReader::bound(std::uint64_t n,
                              std::size_t min_elem_bytes) const {
  // Divide rather than multiply: n * min_elem_bytes may wrap.
  if (min_elem_bytes > 0 && n > (size_ - pos_) / min_elem_bytes)
    throw CheckpointError("count of " + std::to_string(n) + " elements of " +
                          std::to_string(min_elem_bytes) +
                          "+ bytes overruns section (" +
                          std::to_string(size_ - pos_) + " bytes left)");
  return static_cast<std::size_t>(n);
}

std::size_t ByteReader::count(std::size_t min_elem_bytes) {
  return bound(u64(), min_elem_bytes);
}

std::string ByteReader::str() {
  const std::size_t n = count(1);
  return std::string(take(n), n);
}

std::vector<std::uint8_t> ByteReader::vec_u8() {
  const std::size_t n = count(1);
  const char* p = take(n);
  return {reinterpret_cast<const std::uint8_t*>(p),
          reinterpret_cast<const std::uint8_t*>(p) + n};
}

std::vector<std::uint64_t> ByteReader::vec_u64() {
  std::vector<std::uint64_t> v(count(8));
  for (auto& x : v) x = u64();
  return v;
}

std::vector<float> ByteReader::vec_f32() {
  std::vector<float> v(count(4));
  f32_array(v.data(), v.size());
  return v;
}

std::vector<double> ByteReader::vec_f64() {
  std::vector<double> v(count(8));
  for (auto& x : v) x = f64();
  return v;
}

void ByteReader::f32_array(float* out, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) out[i] = f32();
}

void ByteReader::expect_end() const {
  if (pos_ != size_)
    throw CheckpointError(std::to_string(size_ - pos_) +
                          " unread bytes at end of section");
}

}  // namespace ckpt
}  // namespace remapd
