#include "trace/store.h"

#include <memory>
#include <utility>

namespace dcm::trace {
namespace {

// Links `chunk` after `tail` (or as the list head) and returns it.
template <typename Chunk>
Chunk* append_chunk(std::unique_ptr<Chunk>& head, Chunk* tail, std::unique_ptr<Chunk> chunk) {
  Chunk* raw = chunk.get();
  (tail == nullptr ? head : tail->next) = std::move(chunk);
  return raw;
}

}  // namespace

TraceStore::~TraceStore() {
  // Unlink iteratively: a long run's chunk lists would otherwise recurse
  // once per chunk through the unique_ptr chain.
  while (contexts_head_ != nullptr) contexts_head_ = std::move(contexts_head_->next);
  while (spans_head_ != nullptr) spans_head_ = std::move(spans_head_->next);
}

TraceContext* TraceStore::open(uint64_t request_id, int servlet, sim::SimTime started) {
  const size_t slot = count_ % kContextsPerChunk;
  if (slot == 0) {
    contexts_tail_ =
        append_chunk(contexts_head_, contexts_tail_, std::make_unique<ContextChunk>());
    ++context_chunks_;
  }
  ++count_;
  TraceContext& context = contexts_tail_->items[slot];
  context.request_id = request_id;
  context.servlet = servlet;
  context.started = started;
  context.store_ = this;
  if (free_scratch_.empty()) {
    context.scratch_ = &scratch_.emplace_back();
  } else {
    context.scratch_ = free_scratch_.back();
    free_scratch_.pop_back();
  }
  return &context;
}

void TraceStore::seal(TraceContext& context) {
  std::vector<Span>* scratch = std::exchange(context.scratch_, nullptr);
  const size_t count = scratch->size();
  if (count > kSpansPerChunk) return;  // the buffer itself becomes the storage
  if (count > 0) {
    if (spans_tail_ == nullptr || kSpansPerChunk - spans_tail_->used < count) {
      spans_tail_ = append_chunk(spans_head_, spans_tail_,
                                 std::make_unique_for_overwrite<SpanChunk>());
      ++span_chunks_;
    }
    Span* sealed = spans_tail_->storage.items + spans_tail_->used;
    std::uninitialized_copy(scratch->begin(), scratch->end(), sealed);
    spans_tail_->used += count;
    context.spans = {sealed, count};
  }
  scratch->clear();
  free_scratch_.push_back(scratch);
}

void TraceContext::finalize(sim::SimTime at, bool success) {
  if (finalized) return;
  finished = at;
  ok = success;
  finalized = true;
  if (store_ != nullptr) store_->seal(*this);
}

}  // namespace dcm::trace
