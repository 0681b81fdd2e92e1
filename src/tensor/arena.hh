/**
 * @file
 * Bump (arena) allocator for the inference hot path.
 *
 * A forward pass allocates a chain of activation temporaries whose
 * total size is identical for every request of the same shape.
 * Paying a heap round trip per temporary is pure overhead, so the
 * serving path runs each request inside an ArenaScope: every tensor
 * storage allocation inside the scope is a pointer bump into a
 * thread-local arena, and the whole request's scratch is recycled
 * with one reset() — after a warmup request has sized the arena, the
 * steady-state per-request path performs zero heap allocations
 * (asserted by tests/kernels_test.cc via the counting hooks below).
 */

#ifndef TOLTIERS_TENSOR_ARENA_HH
#define TOLTIERS_TENSOR_ARENA_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <vector>

namespace toltiers::tensor {

/** Monotonic counters of one Arena's activity. */
struct ArenaStats
{
    std::uint64_t allocations = 0; //!< allocate() calls served.
    std::uint64_t heapBlocks = 0;  //!< Heap refills (new blocks).
    std::uint64_t heapBytes = 0;   //!< Bytes fetched from the heap.
    std::uint64_t resets = 0;      //!< reset() calls.
    std::size_t peakBytes = 0;     //!< High-water mark of one cycle.
};

/**
 * A growable bump allocator. Memory is carved from fixed-size heap
 * blocks (plus oversized one-off blocks for requests larger than the
 * block size); individual allocations are never freed — reset()
 * rewinds the whole arena and reuses every block already fetched.
 * Not thread-safe: use one Arena per thread (see inferenceArena()).
 */
class Arena
{
  public:
    /** Default alignment of every allocation (cache line). */
    static constexpr std::size_t kAlignment = 64;

    /** @param block_bytes capacity of each heap block. */
    explicit Arena(std::size_t block_bytes = 1u << 20);

    Arena(const Arena &) = delete;
    Arena &operator=(const Arena &) = delete;

    /**
     * A kAlignment-aligned span of at least `bytes` bytes, valid
     * until the next reset(). Zero bytes yields a valid non-null
     * pointer.
     */
    void *allocate(std::size_t bytes);

    /** Rewind: recycle every block; previous pointers die. */
    void reset();

    /** Bytes handed out since the last reset(). */
    std::size_t bytesInUse() const { return inUse_; }

    /** Total heap capacity owned by the arena. */
    std::size_t capacityBytes() const;

    /** Activity counters (monotonic across resets). */
    const ArenaStats &stats() const { return stats_; }

  private:
    struct Block
    {
        std::unique_ptr<std::byte[]> data;
        std::size_t capacity = 0;
        std::size_t used = 0;
    };

    Block &grow(std::size_t min_bytes);

    std::size_t blockBytes_;
    std::vector<Block> blocks_;
    std::size_t active_ = 0; //!< First block with free space.
    std::size_t inUse_ = 0;
    ArenaStats stats_;
};

/**
 * RAII redirection of Tensor storage into an arena: while a scope is
 * alive on a thread, every Tensor constructed on that thread draws
 * its element storage from the arena instead of the heap (and its
 * destructor is a no-op for that storage). Scopes nest; the previous
 * target is restored on destruction.
 *
 * The caller owns the reset() cadence: a serving request typically
 * opens a scope, resets the arena, and runs the forward pass inside.
 * Tensors allocated inside a scope must not outlive the next
 * reset().
 */
class ArenaScope
{
  public:
    explicit ArenaScope(Arena &arena);
    ~ArenaScope();

    ArenaScope(const ArenaScope &) = delete;
    ArenaScope &operator=(const ArenaScope &) = delete;

    /** The arena Tensor storage currently targets, or nullptr. */
    static Arena *current();

  private:
    Arena *prev_;
};

/**
 * The calling thread's inference arena (created on first use). The
 * serving adapters run each request's forward pass inside a scope
 * over this arena so concurrent requests never share scratch.
 */
Arena &inferenceArena();

/**
 * Uninitialized scratch for n elements of a trivially copyable T,
 * owned by one call: drawn from the calling thread's active
 * ArenaScope when one is live (so a warm inference pass stays off
 * the heap), otherwise from the heap and freed with the buffer.
 * Layers use it instead of member buffers, which is what keeps their
 * inference path reentrant.
 */
template <typename T>
class ScratchBuffer
{
    static_assert(std::is_trivially_copyable_v<T> &&
                      alignof(T) <= Arena::kAlignment,
                  "scratch holds plain values");

  public:
    explicit ScratchBuffer(std::size_t n)
    {
        if (Arena *arena = ArenaScope::current()) {
            ptr_ = static_cast<T *>(arena->allocate(n * sizeof(T)));
        } else {
            heap_ = std::make_unique_for_overwrite<T[]>(n);
            ptr_ = heap_.get();
        }
    }

    ScratchBuffer(const ScratchBuffer &) = delete;
    ScratchBuffer &operator=(const ScratchBuffer &) = delete;

    T *data() { return ptr_; }

  private:
    T *ptr_ = nullptr;
    std::unique_ptr<T[]> heap_; //!< Null when arena-backed.
};

/** Process-wide tensor heap-storage counters (all threads). */
struct MemoryStats
{
    std::uint64_t heapAllocations = 0; //!< Tensor storage from heap.
    std::uint64_t arenaAllocations = 0; //!< Tensor storage from arenas.
};

/** Snapshot of the tensor storage counters. */
MemoryStats memoryStats();

namespace detail {

/** Storage-accounting hooks used by Tensor's element storage. */
void noteTensorHeapAllocation();
void noteTensorArenaAllocation();

} // namespace detail

} // namespace toltiers::tensor

#endif // TOLTIERS_TENSOR_ARENA_HH
