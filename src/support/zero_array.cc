#include "support/zero_array.hh"

#include <sys/mman.h>

#include <cstdint>
#include <new>

namespace hippo::support
{

void *
mapZeroPages(size_t count, size_t elem_size)
{
    if (count == 0)
        return nullptr;
    if (count > SIZE_MAX / elem_size)
        throw std::bad_alloc();
    void *p = mmap(nullptr, count * elem_size, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (p == MAP_FAILED)
        throw std::bad_alloc();
    return p;
}

void
unmapPages(void *p, size_t bytes)
{
    if (p)
        munmap(p, bytes);
}

} // namespace hippo::support
