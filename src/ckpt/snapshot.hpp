// Serialization primitives of the checkpoint subsystem.
//
// ByteWriter / ByteReader move primitive values in and out of a flat byte
// buffer in a fixed little-endian layout, so a checkpoint written on any
// supported host reads back bit-identically. Floating-point values travel
// as their IEEE-754 bit patterns (std::bit_cast), never through text — the
// whole point of the subsystem is that a resumed training run continues
// *bitwise* where the interrupted one stopped.
//
// Snapshotable is the serialization hook every stateful component of the
// trainer implements (RNG streams, crossbar fault state, optimizer
// momentum, BatchNorm statistics, the task map, ...). Components write
// their own layout and validate it on load; structural mismatches raise
// CheckpointError rather than silently absorbing a truncated or foreign
// blob.
//
// This header sits below every other subsystem library (it includes only
// the standard library), so nn/, xbar/, core/ and util/ headers may
// implement Snapshotable without dependency cycles.
#pragma once

#include <bit>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

namespace remapd {
namespace ckpt {

/// Any failure of the checkpoint layer: unreadable file, bad magic or
/// version, checksum mismatch, truncated section, or a component rejecting
/// a structurally incompatible blob. Never thrown for a *clean* load.
class CheckpointError : public std::runtime_error {
 public:
  explicit CheckpointError(const std::string& what)
      : std::runtime_error("checkpoint: " + what) {}
};

/// Append-only little-endian byte sink.
class ByteWriter {
 public:
  void u8(std::uint8_t v) { buf_.push_back(static_cast<char>(v)); }
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void f32(float v) { u32(std::bit_cast<std::uint32_t>(v)); }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
  void boolean(bool v) { u8(v ? 1 : 0); }
  /// Length-prefixed string (u64 length + raw bytes).
  void str(const std::string& s);

  void vec_u8(const std::vector<std::uint8_t>& v);
  void vec_u64(const std::vector<std::uint64_t>& v);
  void vec_f32(const std::vector<float>& v);
  void vec_f64(const std::vector<double>& v);
  /// Raw float payload with an external length (tensor data).
  void f32_array(const float* p, std::size_t n);

  [[nodiscard]] const std::string& bytes() const { return buf_; }
  [[nodiscard]] std::size_t size() const { return buf_.size(); }

 private:
  std::string buf_;
};

/// Bounds-checked little-endian byte source over a borrowed buffer.
/// Every read past the end throws CheckpointError — a truncated section
/// can never yield a silent partial load.
class ByteReader {
 public:
  ByteReader(const char* data, std::size_t size) : data_(data), size_(size) {}

  std::uint8_t u8();
  std::uint32_t u32();
  std::uint64_t u64();
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  float f32() { return std::bit_cast<float>(u32()); }
  double f64() { return std::bit_cast<double>(u64()); }
  bool boolean();
  std::string str();

  /// Read a u64 element count and check that that many elements of at
  /// least `min_elem_bytes` each fit in the rest of the section, so a
  /// corrupt length throws CheckpointError before anything is allocated
  /// for it.
  std::size_t count(std::size_t min_elem_bytes);
  /// The same check for a count decoded elsewhere (a header field whose
  /// elements this reader holds).
  [[nodiscard]] std::size_t bound(std::uint64_t n,
                                  std::size_t min_elem_bytes) const;

  std::vector<std::uint8_t> vec_u8();
  std::vector<std::uint64_t> vec_u64();
  std::vector<float> vec_f32();
  std::vector<double> vec_f64();
  /// Read `n` floats into `out` (caller supplies the expected length).
  void f32_array(float* out, std::size_t n);

  [[nodiscard]] std::size_t remaining() const { return size_ - pos_; }
  /// Throws unless the section was consumed exactly — catching layout
  /// drift between writer and reader versions.
  void expect_end() const;

 private:
  const char* take(std::size_t n);

  const char* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

/// Serialization hook of every stateful training component. save_state
/// writes the component's full mutable state; load_state restores it into
/// an already-constructed component of identical structure (same shapes /
/// dimensions / configuration) and throws CheckpointError when the blob
/// does not match that structure.
class Snapshotable {
 public:
  virtual ~Snapshotable() = default;
  virtual void save_state(ByteWriter& w) const = 0;
  virtual void load_state(ByteReader& r) = 0;
};

}  // namespace ckpt
}  // namespace remapd
