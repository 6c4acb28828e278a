#ifndef NMINE_CORE_ALIGNED_BUFFER_H_
#define NMINE_CORE_ALIGNED_BUFFER_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <type_traits>

namespace nmine {

/// A fixed-size array of trivial values starting on a 64-byte (cache-line)
/// boundary, left uninitialized: the window trie's lane buffers, whose
/// vector loads and stores must be aligned. It over-allocates one line
/// from the ordinary heap instead of calling an aligned allocator, whose
/// split-off padding fragments the heap of a long-running server. Move-only.
template <class T>
class AlignedBuffer {
  static_assert(std::is_trivial_v<T>, "AlignedBuffer holds trivial values");

 public:
  static constexpr size_t kAlignment = 64;

  AlignedBuffer() = default;
  explicit AlignedBuffer(size_t size)
      : storage_(new T[size + kAlignment / sizeof(T)]), size_(size) {
    const uintptr_t raw = reinterpret_cast<uintptr_t>(storage_.get());
    data_ = reinterpret_cast<T*>((raw + kAlignment - 1) / kAlignment *
                                 kAlignment);
  }

  T* data() { return data_; }
  const T* data() const { return data_; }
  size_t size() const { return size_; }
  T& operator[](size_t i) { return data_[i]; }
  const T& operator[](size_t i) const { return data_[i]; }

 private:
  std::unique_ptr<T[]> storage_;
  T* data_ = nullptr;
  size_t size_ = 0;
};

}  // namespace nmine

#endif  // NMINE_CORE_ALIGNED_BUFFER_H_
