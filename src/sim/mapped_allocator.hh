/**
 * @file
 * Allocator for large, short-lived arrays such as compiled instruction
 * streams. An array of at least mapped_allocator_min_bytes gets its own
 * anonymous mapping, which goes back to the OS when the array is
 * freed; smaller arrays come from operator new.
 *
 * Keeping multi-megabyte arrays out of the malloc heap keeps the
 * process's peak resident set independent of the order in which such
 * arrays come and go. glibc maps a block of at least its mmap
 * threshold (128 KiB at start) itself, and when it frees such a block
 * it raises the threshold to that block's size. From then on blocks
 * up to that size are carved from the heap, whose freed pages stay
 * resident, so whether the largest program of a sweep is mapped or
 * carved depends on which program came first: the same 32 paper
 * points peaked at 43 or 55 MB depending on where the cycle started,
 * and at 38.5 MB in every order with this allocator.
 *
 * The cut sits at 4 MiB because a fresh mapping faults in every page
 * it touches while a reused heap block faults none: the serving path
 * compiles a 1-2 MB program per secure tenant per window, and mapping
 * those cost a sixth of its throughput. A mapping asks for transparent
 * huge pages, so filling it takes one fault per 2 MiB where the kernel
 * grants them.
 */

#ifndef SNPU_SIM_MAPPED_ALLOCATOR_HH
#define SNPU_SIM_MAPPED_ALLOCATOR_HH

#include <sys/mman.h>

#include <cstddef>
#include <new>

namespace snpu
{

/** Arrays of this many bytes or more get their own mapping. */
constexpr std::size_t mapped_allocator_min_bytes = std::size_t(4) << 20;

template <typename T>
struct MappedAllocator
{
    static_assert(alignof(T) <= __STDCPP_DEFAULT_NEW_ALIGNMENT__,
                  "mappings and operator new give default alignment");

    using value_type = T;

    MappedAllocator() = default;
    template <typename U>
    MappedAllocator(const MappedAllocator<U> &) noexcept
    {
    }

    T *
    allocate(std::size_t n)
    {
        if (n > std::size_t(-1) / sizeof(T))
            throw std::bad_array_new_length();
        const std::size_t bytes = n * sizeof(T);
        if (bytes < mapped_allocator_min_bytes)
            return static_cast<T *>(::operator new(bytes));
        void *p = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                         MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
        if (p == MAP_FAILED)
            throw std::bad_alloc();
#ifdef MADV_HUGEPAGE
        ::madvise(p, bytes, MADV_HUGEPAGE); // a hint; failure is fine
#endif
        return static_cast<T *>(p);
    }

    void
    deallocate(T *p, std::size_t n) noexcept
    {
        const std::size_t bytes = n * sizeof(T);
        if (bytes < mapped_allocator_min_bytes)
            ::operator delete(p);
        else
            ::munmap(p, bytes);
    }

    friend bool
    operator==(const MappedAllocator &, const MappedAllocator &)
    {
        return true;
    }
};

} // namespace snpu

#endif // SNPU_SIM_MAPPED_ALLOCATOR_HH
