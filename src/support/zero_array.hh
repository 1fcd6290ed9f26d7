/**
 * @file
 * A fixed-size, zero-initialised array whose construction costs O(1)
 * in its size.
 *
 * The storage is an anonymous private mapping. The kernel zero-fills
 * each page the first time it is touched, so building one writes no
 * memory and the resident set grows only with the pages actually
 * used. A std::vector writes every byte up front; calloc skips that
 * only when the allocator happens to hand back fresh pages, so its
 * cost would depend on allocator state; and a vector grown on demand
 * cannot serve callers that address the array from the top down (the
 * VM carves thread stacks from the top of its arena).
 */

#ifndef HIPPO_SUPPORT_ZERO_ARRAY_HH
#define HIPPO_SUPPORT_ZERO_ARRAY_HH

#include <cstddef>
#include <type_traits>

namespace hippo::support
{

/** Map @p count * @p elem_size bytes of zero pages. Returns null for
 *  an empty mapping; throws std::bad_alloc when the mapping fails. */
void *mapZeroPages(size_t count, size_t elem_size);

/** Release a mapping returned by mapZeroPages (null is a no-op). */
void unmapPages(void *p, size_t bytes);

/** @p n zero-valued Ts, held by one mapping for the object's life. */
template <typename T>
class ZeroArray
{
    static_assert(std::is_integral_v<T>,
                  "an all-zero-bytes element must read as T{}");

  public:
    explicit ZeroArray(size_t n)
        : data_(static_cast<T *>(mapZeroPages(n, sizeof(T)))), size_(n)
    {}
    ~ZeroArray() { unmapPages(data_, size_ * sizeof(T)); }

    ZeroArray(const ZeroArray &) = delete;
    ZeroArray &operator=(const ZeroArray &) = delete;

    T &operator[](size_t i) { return data_[i]; }
    const T &operator[](size_t i) const { return data_[i]; }
    size_t size() const { return size_; }

  private:
    T *data_;
    size_t size_;
};

} // namespace hippo::support

#endif // HIPPO_SUPPORT_ZERO_ARRAY_HH
