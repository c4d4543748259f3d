// TraceStore — one run's trace storage, sized to the spans it records.
//
// Contexts live in fixed-size chunks with stable addresses, so a request
// holds its context by raw pointer and the store hands them back in
// sampling order. An open trace encodes its spans into a scratch byte
// buffer; finalize() copies that byte stream into a chunked arena of 48 KiB
// byte chunks (one memcpy) and hands the buffer back, so a warm run records
// spans without allocating. Each chunk keeps the span codec's 8-byte read
// slack behind the last stream it seals.
//
// Trace memory outlives the store. When a store dies, its context chunks,
// span chunks and the scratch buffers its open traces still hold go to the
// destroying thread's recycler, and the next store on that thread draws
// from it before allocating; finalize() hands buffers straight to the
// recycler too, so there is one recycling path. The recycler keeps at most
// what the largest store that thread has destroyed used (chunks per kind,
// and the store's peak of buffers held at once), so its bound is derived,
// never configured. It frees everything when its thread exits. A cold
// thread allocates exactly once per chunk opened (context_chunks() +
// span_chunks()) and pays the first touch of each.
//
// A trace whose stream is longer than a whole span chunk keeps its scratch
// buffer as its sealed storage instead, until the store dies.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <memory>

#include "sim/time.h"
#include "trace/trace.h"

namespace dcm::trace {

class TraceStore {
 public:
  static constexpr size_t kContextsPerChunk = 512;        // 44 KiB
  static constexpr size_t kSpanChunkBytes = 48 * 1024;   // 48 KiB of encoded spans
  /// The most bytes of sealed streams a span chunk takes: the rest is the
  /// codec's read slack behind the last stream.
  static constexpr size_t kSealedBytesPerChunk = kSpanChunkBytes - codec::kSlackBytes;

  /// What the calling thread's recycler holds right now.
  struct ThreadCache {
    uint64_t context_chunks = 0;
    uint64_t span_chunks = 0;
    uint64_t scratch_buffers = 0;
  };
  static ThreadCache thread_cache();

 private:
  struct ContextChunk {
    std::array<TraceContext, kContextsPerChunk> items;
    std::unique_ptr<ContextChunk> next;
  };
  struct SpanChunk {
    size_t used = 0;
    std::unique_ptr<SpanChunk> next;
    // Uninitialized: streams are copied in as traces seal, never zeroed
    // first. Last, so a read past the slack leaves the allocation (ASan).
    uint8_t bytes[kSpanChunkBytes];
  };
  struct Recycler;  // the per-thread cache (store.cpp)

 public:
  /// Forward range over every opened context, in sampling order. Elements
  /// are `TraceContext*` (open and finalized alike).
  class Contexts {
   public:
    class iterator {
     public:
      using iterator_category = std::forward_iterator_tag;
      using value_type = TraceContext*;
      using difference_type = std::ptrdiff_t;
      using pointer = void;
      using reference = TraceContext*;

      iterator() = default;
      TraceContext* operator*() const { return &chunk_->items[slot_]; }
      iterator& operator++() {
        if (++slot_ == kContextsPerChunk) {
          chunk_ = chunk_->next.get();
          slot_ = 0;
        }
        ++index_;
        return *this;
      }
      iterator operator++(int) {
        iterator old = *this;
        ++*this;
        return old;
      }
      bool operator==(const iterator& other) const { return index_ == other.index_; }

     private:
      friend class Contexts;
      iterator(ContextChunk* chunk, size_t index) : chunk_(chunk), index_(index) {}
      ContextChunk* chunk_ = nullptr;
      size_t slot_ = 0;
      size_t index_ = 0;
    };

    iterator begin() const { return iterator(head_, 0); }
    iterator end() const { return iterator(nullptr, size_); }
    size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }

   private:
    friend class TraceStore;
    Contexts(ContextChunk* head, size_t size) : head_(head), size_(size) {}
    ContextChunk* head_;
    size_t size_;
  };

  TraceStore() = default;
  ~TraceStore();
  TraceStore(const TraceStore&) = delete;
  TraceStore& operator=(const TraceStore&) = delete;

  /// Opens the next context in sampling order, fully reset even when its
  /// chunk is recycled; it stays valid for the store's lifetime.
  TraceContext* open(uint64_t request_id, int servlet, sim::SimTime started);

  uint64_t size() const { return count_; }
  Contexts contexts() const { return Contexts(contexts_head_.get(), count_); }

  uint64_t context_chunks() const { return context_chunks_; }
  uint64_t span_chunks() const { return span_chunks_; }
  static constexpr size_t context_chunk_bytes() { return sizeof(ContextChunk); }
  static constexpr size_t span_chunk_bytes() { return sizeof(SpanChunk); }
  /// Bytes the store's chunks occupy, each opened chunk whole. Traces
  /// whose stream outgrows a span chunk keep their own buffers and are not
  /// counted.
  uint64_t bytes_reserved() const {
    return context_chunks_ * context_chunk_bytes() + span_chunks_ * span_chunk_bytes();
  }

 private:
  friend struct TraceContext;

  /// Copies a finalized context's span bytes into the arena and recycles
  /// its scratch buffer.
  void seal(TraceContext& context);

  uint64_t count_ = 0;
  std::unique_ptr<ContextChunk> contexts_head_;
  ContextChunk* contexts_tail_ = nullptr;
  std::unique_ptr<SpanChunk> spans_head_;
  SpanChunk* spans_tail_ = nullptr;
  uint64_t context_chunks_ = 0;
  uint64_t span_chunks_ = 0;
  uint64_t scratch_held_ = 0;  // buffers the store's contexts hold now
  uint64_t scratch_peak_ = 0;  // ... and at most at once
};

}  // namespace dcm::trace
