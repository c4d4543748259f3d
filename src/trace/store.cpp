#include "trace/store.h"

#include <algorithm>
#include <cstring>
#include <memory>
#include <utility>
#include <vector>

namespace dcm::trace {
namespace {

// Links `chunk` after `tail` (or as the list head) and returns it.
template <typename Chunk>
Chunk* append_chunk(std::unique_ptr<Chunk>& head, Chunk* tail, std::unique_ptr<Chunk> chunk) {
  Chunk* raw = chunk.get();
  (tail == nullptr ? head : tail->next) = std::move(chunk);
  return raw;
}

// Frees a chunk list iteratively: a long run's list would otherwise recurse
// once per chunk through the unique_ptr chain.
template <typename Chunk>
void free_chunks(std::unique_ptr<Chunk>& head) {
  while (head != nullptr) head = std::move(head->next);
}

// A free list of one chunk kind, at most `bound` long.
template <typename Chunk>
struct ChunkCache {
  std::unique_ptr<Chunk> head;
  uint64_t size = 0;
  uint64_t bound = 0;  // the most chunks one destroyed store held

  ChunkCache() = default;
  ChunkCache(const ChunkCache&) = delete;
  ChunkCache& operator=(const ChunkCache&) = delete;
  ~ChunkCache() { free_chunks(head); }

  std::unique_ptr<Chunk> take() {
    if (head == nullptr) return nullptr;
    std::unique_ptr<Chunk> chunk = std::move(head);
    head = std::move(chunk->next);
    --size;
    return chunk;
  }

  // Takes a dead store's `count` chunks, keeping what fits the bound.
  void give(std::unique_ptr<Chunk> list, uint64_t count) {
    bound = std::max(bound, count);
    while (list != nullptr) {
      std::unique_ptr<Chunk> next = std::move(list->next);
      if (size < bound) {
        list->next = std::move(head);
        head = std::move(list);
        ++size;
      }
      list = std::move(next);  // frees a chunk the cache did not keep
    }
  }
};

// A chunk from `cache` (null: no recycler) when it has one, else a fresh one.
template <typename Chunk>
std::unique_ptr<Chunk> take_chunk(ChunkCache<Chunk>* cache) {
  std::unique_ptr<Chunk> chunk = cache == nullptr ? nullptr : cache->take();
  return chunk != nullptr ? std::move(chunk) : std::make_unique_for_overwrite<Chunk>();
}

// Trivially destructible, so a store dying after its thread's recycler
// (in a later thread-exit or static destructor) can still read it.
thread_local bool t_recycler_gone = false;

}  // namespace

struct TraceStore::Recycler {
  struct Buffer {
    std::unique_ptr<uint8_t[]> bytes;
    uint32_t capacity;
  };

  ChunkCache<ContextChunk> contexts;
  ChunkCache<SpanChunk> spans;
  std::vector<Buffer> scratch;  // byte buffers, contents dead
  uint64_t scratch_bound = 0;  // the most buffers one destroyed store held

  ~Recycler() { t_recycler_gone = true; }

  /// The calling thread's recycler; null once that thread has destroyed it.
  static Recycler* local() {
    if (t_recycler_gone) return nullptr;
    thread_local Recycler recycler;
    return &recycler;
  }
};

TraceStore::ThreadCache TraceStore::thread_cache() {
  const Recycler* recycler = Recycler::local();
  if (recycler == nullptr) return {};
  return {recycler->contexts.size, recycler->spans.size, recycler->scratch.size()};
}

TraceStore::~TraceStore() {
  Recycler* recycler = Recycler::local();
  if (recycler == nullptr) {
    free_chunks(contexts_head_);
    free_chunks(spans_head_);
    return;
  }
  // Open traces (and traces longer than a chunk) still hold buffers.
  for (TraceContext* context : contexts()) {
    if (context->scratch_ == nullptr) continue;
    recycler->scratch.push_back(
        {std::move(context->scratch_), std::exchange(context->scratch_capacity_, 0)});
  }
  recycler->scratch_bound = std::max(recycler->scratch_bound, scratch_peak_);
  if (recycler->scratch.size() > recycler->scratch_bound) {
    recycler->scratch.resize(recycler->scratch_bound);
  }
  recycler->contexts.give(std::move(contexts_head_), context_chunks_);
  recycler->spans.give(std::move(spans_head_), span_chunks_);
}

TraceContext* TraceStore::open(uint64_t request_id, int servlet, sim::SimTime started) {
  Recycler* recycler = Recycler::local();
  const size_t slot = count_ % kContextsPerChunk;
  if (slot == 0) {
    contexts_tail_ = append_chunk(contexts_head_, contexts_tail_,
                                  take_chunk(recycler == nullptr ? nullptr : &recycler->contexts));
    ++context_chunks_;
  }
  ++count_;
  TraceContext& context = contexts_tail_->items[slot];
  context.request_id = request_id;
  context.servlet = servlet;
  context.started = started;
  context.finished = 0;
  context.ok = false;
  context.finalized = false;
  context.attempts = 1;
  context.spans = {};
  context.spans.base_ = started;
  context.last_start_ = started;
  context.store_ = this;
  if (recycler != nullptr && !recycler->scratch.empty()) {
    Recycler::Buffer& buffer = recycler->scratch.back();
    context.scratch_ = std::move(buffer.bytes);
    context.scratch_capacity_ = buffer.capacity;
    recycler->scratch.pop_back();
  }
  scratch_peak_ = std::max(scratch_peak_, ++scratch_held_);
  return &context;
}

void TraceStore::seal(TraceContext& context) {
  Recycler* recycler = Recycler::local();
  context.store_ = nullptr;
  SpanList& spans = context.spans;
  const size_t size = spans.size_bytes_;
  if (size > kSealedBytesPerChunk) return;  // the buffer itself becomes the storage
  if (size > 0) {
    if (spans_tail_ == nullptr || kSealedBytesPerChunk - spans_tail_->used < size) {
      spans_tail_ = append_chunk(spans_head_, spans_tail_,
                                 take_chunk(recycler == nullptr ? nullptr : &recycler->spans));
      spans_tail_->used = 0;  // a recycled chunk still counts its last store's bytes
      ++span_chunks_;
    }
    uint8_t* sealed = spans_tail_->bytes + spans_tail_->used;
    std::memcpy(sealed, context.scratch_.get(), size);
    spans_tail_->used += size;
    spans.bytes_ = sealed;
  }
  --scratch_held_;
  if (recycler == nullptr) {
    context.scratch_.reset();
  } else if (context.scratch_ != nullptr) {
    recycler->scratch.push_back({std::move(context.scratch_), context.scratch_capacity_});
  }
  context.scratch_capacity_ = 0;
}

void TraceContext::grow_scratch() {
  const size_t used = spans.size_bytes_;
  const size_t capacity = std::max<size_t>(256, 2 * size_t{scratch_capacity_});
  DCM_CHECK(capacity <= UINT32_MAX);
  auto grown = std::make_unique_for_overwrite<uint8_t[]>(capacity);
  if (used > 0) std::memcpy(grown.get(), scratch_.get(), used);
  scratch_ = std::move(grown);
  scratch_capacity_ = static_cast<uint32_t>(capacity);
}

void TraceContext::finalize(sim::SimTime at, bool success) {
  if (finalized) return;
  finished = at;
  ok = success;
  finalized = true;
  if (store_ != nullptr) store_->seal(*this);
}

}  // namespace dcm::trace
