#ifndef MGJOIN_SIM_EVENT_FN_H_
#define MGJOIN_SIM_EVENT_FN_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

namespace mgjoin::sim {

/// \brief Size-bucketed block cache for event callables that do not fit
/// EventFn's inline buffer.
///
/// The simulator schedules the same handful of closure types millions of
/// times per run. Blocks released when an oversized event fires are kept
/// on per-size free lists and handed to the next event of that size, so
/// steady-state scheduling performs no heap allocation even for large
/// captures. Cached blocks are returned to the system only when the
/// arena (i.e. the owning simulator) is destroyed, which is why the
/// arena must outlive every EventFn built against it.
class EventArena {
 public:
  EventArena() = default;
  EventArena(const EventArena&) = delete;
  EventArena& operator=(const EventArena&) = delete;
  ~EventArena() {
    for (void* b : blocks_) ::operator delete(b);
  }

  void* Allocate(std::size_t bytes) {
    const int bucket = BucketFor(bytes);
    if (bucket >= 0 && free_[bucket] != nullptr) {
      FreeNode* n = free_[bucket];
      free_[bucket] = n->next;
      return n;
    }
    void* b = ::operator new(bucket >= 0 ? BucketBytes(bucket) : bytes);
    blocks_.push_back(b);
    return b;
  }

  /// Returns a block obtained from Allocate(bytes) to its free list.
  void Release(void* p, std::size_t bytes) {
    const int bucket = BucketFor(bytes);
    if (bucket < 0) return;  // oversized blocks wait for the destructor
    FreeNode* n = static_cast<FreeNode*>(p);
    n->next = free_[bucket];
    free_[bucket] = n;
  }

  /// Blocks ever obtained from the system (for tests: steady-state
  /// scheduling must keep this flat).
  std::size_t blocks_allocated() const { return blocks_.size(); }

 private:
  struct FreeNode {
    FreeNode* next;
  };
  static constexpr int kNumBuckets = 5;  // 64, 128, 256, 512, 1024 bytes
  static int BucketFor(std::size_t bytes) {
    std::size_t cap = 64;
    for (int b = 0; b < kNumBuckets; ++b, cap *= 2) {
      if (bytes <= cap) return b;
    }
    return -1;
  }
  static std::size_t BucketBytes(int bucket) { return 64ull << bucket; }

  FreeNode* free_[kNumBuckets] = {};
  std::vector<void*> blocks_;
};

/// \brief Small-buffer, move-only callable for simulator events.
///
/// Replaces the per-event std::function of the original event loop:
/// callables up to kInlineBytes — sized so every closure the transfer
/// engine schedules on its hot paths fits — live inline in the event
/// slot, larger ones go through the simulator's EventArena (the arena
/// pointer is stashed next to the block pointer inside the buffer, so
/// the whole EventFn is 48 bytes and an Event fills one cache line).
/// Trivially copyable captures relocate with memcpy, which keeps
/// calendar-bucket sorting cheap.
class EventFn {
 public:
  static constexpr std::size_t kInlineBytes = 40;
  static constexpr std::size_t kInlineAlign = 8;

  EventFn() = default;

  template <typename F, typename = std::enable_if_t<
                            !std::is_same_v<std::decay_t<F>, EventFn>>>
  EventFn(EventArena* arena, F&& fn) {
    using D = std::decay_t<F>;
    static_assert(std::is_invocable_r_v<void, D&>,
                  "event callables take no arguments and return void");
    if constexpr (sizeof(D) <= kInlineBytes && alignof(D) <= kInlineAlign) {
      ::new (static_cast<void*>(buf_)) D(std::forward<F>(fn));
      vt_ = &kInlineVt<D>;
    } else {
      HeapRef ref{arena->Allocate(sizeof(D)), arena};
      ::new (ref.block) D(std::forward<F>(fn));
      std::memcpy(buf_, &ref, sizeof(ref));
      vt_ = &kHeapVt<D>;
    }
  }

  EventFn(EventFn&& other) noexcept { MoveFrom(other); }
  EventFn& operator=(EventFn&& other) noexcept {
    if (this != &other) {
      Reset();
      MoveFrom(other);
    }
    return *this;
  }
  EventFn(const EventFn&) = delete;
  EventFn& operator=(const EventFn&) = delete;
  ~EventFn() { Reset(); }

  explicit operator bool() const { return vt_ != nullptr; }

  /// Invokes the callable (must be non-null and not moved-from).
  void operator()() { vt_->invoke(buf_); }

 private:
  struct HeapRef {
    void* block;
    EventArena* arena;
  };
  struct VTable {
    void (*invoke)(void* storage);
    /// Move-constructs into `to` and destroys `from`. Null means the
    /// storage bytes can simply be memcpy'd (trivially relocatable —
    /// always true for heap-stored callables, whose storage is just the
    /// HeapRef).
    void (*relocate)(void* from, void* to);
    /// Destroys the callable; null for trivially destructible inline
    /// callables. Heap-stored ones release their block to the arena.
    void (*destroy)(void* storage);
  };

  template <typename D>
  static void InvokeInline(void* s) {
    (*static_cast<D*>(s))();
  }
  template <typename D>
  static void RelocateInline(void* from, void* to) {
    D* f = static_cast<D*>(from);
    ::new (to) D(std::move(*f));
    f->~D();
  }
  template <typename D>
  static void DestroyInline(void* s) {
    static_cast<D*>(s)->~D();
  }
  static HeapRef ReadHeapRef(void* s) {
    HeapRef ref;
    std::memcpy(&ref, s, sizeof(ref));
    return ref;
  }
  template <typename D>
  static void InvokeHeap(void* s) {
    (*static_cast<D*>(ReadHeapRef(s).block))();
  }
  template <typename D>
  static void DestroyHeap(void* s) {
    const HeapRef ref = ReadHeapRef(s);
    static_cast<D*>(ref.block)->~D();
    ref.arena->Release(ref.block, sizeof(D));
  }

  template <typename D>
  static constexpr VTable kInlineVt = {
      &InvokeInline<D>,
      std::is_trivially_copyable_v<D> ? nullptr : &RelocateInline<D>,
      std::is_trivially_destructible_v<D> ? nullptr : &DestroyInline<D>};
  template <typename D>
  static constexpr VTable kHeapVt = {&InvokeHeap<D>, nullptr,
                                     &DestroyHeap<D>};

  void MoveFrom(EventFn& other) noexcept {
    vt_ = other.vt_;
    if (vt_ != nullptr) {
      if (vt_->relocate != nullptr) {
        vt_->relocate(other.buf_, buf_);
      } else {
        std::memcpy(buf_, other.buf_, kInlineBytes);
      }
      other.vt_ = nullptr;
    }
  }
  void Reset() {
    if (vt_ != nullptr && vt_->destroy != nullptr) vt_->destroy(buf_);
    vt_ = nullptr;
  }

  const VTable* vt_ = nullptr;
  alignas(kInlineAlign) unsigned char buf_[kInlineBytes];
};

static_assert(sizeof(EventFn) == 48, "EventFn should stay cache-friendly");

}  // namespace mgjoin::sim

#endif  // MGJOIN_SIM_EVENT_FN_H_
