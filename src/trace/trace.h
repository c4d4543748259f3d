// Request-level tracing: typed spans on sampled requests.
//
// A sampled request carries one TraceContext for its whole journey —
// client issue through every tier visit, retries included — and each
// instrumentation hook appends a typed Span. The contract that keeps the
// simulation digest bit-identical whether tracing is on or off:
//
//   * recording only appends to this side structure — it never schedules
//     events, draws from an Rng stream, or touches simulation state;
//   * the untraced fast path is a single null-pointer check (requests that
//     were not sampled carry a null TraceContext*);
//   * sampling is a pure hash of (trace seed, request id), so enabling
//     tracing at any rate consumes nothing from any random stream.
//
// Spans are not stored as records: add_edge_span encodes each one once,
// as it is recorded, onto its trace's byte stream (codec below: kind, tier
// and two length codes in three bytes, then an edge only when there is one,
// zigzagged time deltas in 0-6 or 8 bytes each, and nothing for a +0.0
// value), and TraceContext::spans decodes the stream back into plain Span
// values. Span times are SimTime (ns) in [-2^47, 2^47) (see Span). `tier`
// is the tier depth the span occurred at; kClientTier marks client-side
// spans (think, client backoff, client deadline waits).
#pragma once

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <memory>

#include "common/check.h"
#include "sim/time.h"

namespace dcm::trace {

/// Client-side spans carry this instead of a tier depth.
inline constexpr int kClientTier = -1;

enum class SpanKind : uint8_t {
  kThink = 0,     // client think time preceding the issue (informational)
  kLbPick,        // load-balancer pick (zero-width marker; value = members)
  kPoolWait,      // worker-pool queue wait at a tier
  kConnWait,      // downstream-connection-pool wait at a tier
  kService,       // nominal CPU demand (value = work seconds)
  kCpuWait,       // CPU run-queue wait: elapsed minus nominal demand
  kDownstream,    // whole downstream sub-request (nested; not a leaf cause)
  kBackoff,       // retry backoff sleep (client or inter-tier)
  kTimeoutWait,   // time sunk into an attempt that hit its deadline
};

/// Stable lower_snake name ("pool_wait", ...) used in CSV/JSON output.
const char* span_kind_name(SpanKind kind);

/// True for the kinds that own wall-clock exclusively and therefore enter
/// the latency-attribution sum (kThink precedes the request, kLbPick is a
/// marker, kDownstream aggregates the next tier's own leaf spans).
bool is_leaf_cause(SpanKind kind);

/// Spans not tied to a service-graph call edge carry this.
inline constexpr int kNoEdge = -1;

/// One span as its consumers read it: plain fields, decoded from the
/// trace's byte stream (see SpanList), never stored as a record. Times hold
/// [-2^47, 2^47) ns (about ±39 simulated hours), tier depths int8 and edge
/// ids int16; add_edge_span range-checks each field against these widths,
/// so nothing truncates.
struct Span {
  static constexpr int kTimeBits = 48;
  static constexpr int kTierBits = 8;
  static constexpr int kEdgeBits = 16;

  sim::SimTime start = 0;
  sim::SimTime end = 0;
  double value = 0.0;      // kind-specific payload (see SpanKind)
  int tier = kClientTier;  // tier depth, or kClientTier
  int edge = kNoEdge;      // service-graph edge id (kConnWait/kDownstream/
                           // kTimeoutWait at a tier), or kNoEdge
  SpanKind kind = SpanKind::kThink;
};

/// The span byte codec. A span is encoded as
///
///   header  kind (bits 0-3), edge present (bit 4), value class (bits 5-6)
///   tier    int8
///   lengths byte counts of the two times: start (bits 0-2), duration
///           (bits 3-5); code c means c bytes for c <= 6 and 8 bytes for 7
///   edge    int16, only when present
///   start   zigzagged delta from the previous span's start (the first
///           span's from the trace's `started`), little-endian, 0-6 or 8 B
///   length  zigzagged end - start, the same way
///   value   class 0: +0.0, no bytes; class 1: an integer in [1, 2^32) as
///           4 bytes; class 2: the raw 8 bytes (so -0.0, NaN payloads and
///           denormals round-trip bit for bit)
///
/// Times are moved 8 bytes at a time: the encoder may write, and the
/// decoder read, up to kSlackBytes past the end of a trace's stream, so
/// every buffer keeps that much room inside its allocation.
namespace codec {

inline constexpr size_t kMaxSpanBytes = 3 + 2 + 8 + 8 + 8;  // 29
inline constexpr size_t kSlackBytes = 8;

static_assert(std::endian::native == std::endian::little,
              "the span codec moves little-endian words");

/// The bits a length code's bytes hold, and a value class's (which takes
/// 4 x class bytes; class 3 is never written).
inline constexpr std::array<uint64_t, 8> kLengthMask = {
    0, 0xff, 0xffff, 0xffffff, 0xffffffff, 0xffffffffff, 0xffffffffffff, ~uint64_t{0}};
inline constexpr std::array<uint64_t, 4> kValueMask = {0, 0xffffffff, ~uint64_t{0}, 0};

inline uint64_t zigzag(uint64_t delta) {
  return (delta << 1) ^ static_cast<uint64_t>(static_cast<int64_t>(delta) >> 63);
}
inline uint64_t unzigzag(uint64_t z) { return (z >> 1) ^ (~(z & 1) + 1); }

/// The bytes a length code stands for.
inline unsigned code_bytes(unsigned code) { return code + (code == 7 ? 1 : 0); }

/// A zigzagged time's length code: its byte count, 8 written as 7. The top
/// set bit of (z << 1) | 1 sits at bit_width(z), with no zero case to branch
/// on; a z of 64 significant bits reads as 63, which still takes 8 bytes.
inline unsigned time_code(uint64_t z) {
  const auto bytes = static_cast<unsigned>(std::bit_width((z << 1) | 1) + 6) / 8;  // 0-8
  return bytes - bytes / 8;
}

inline void store_word(uint8_t* p, uint64_t word) { std::memcpy(p, &word, sizeof word); }
inline uint64_t load_word(const uint8_t* p) {
  uint64_t word;
  std::memcpy(&word, p, sizeof word);
  return word;
}

/// Encodes one span at `p` (kMaxSpanBytes of room) and returns its end.
/// Times go in as wrapping differences, so any SimTime `previous` works.
inline uint8_t* encode(uint8_t* p, SpanKind kind, int tier, int edge, sim::SimTime previous,
                       sim::SimTime start, sim::SimTime end, double value) {
  const uint64_t start_z = zigzag(static_cast<uint64_t>(start) - static_cast<uint64_t>(previous));
  const uint64_t length_z = zigzag(static_cast<uint64_t>(end) - static_cast<uint64_t>(start));
  const unsigned start_code = time_code(start_z);
  const unsigned length_code = time_code(length_z);
  // The value's class, without branches. Adding 2^52 to a value in [1, 2^32)
  // rounds it to an integer that the low mantissa bits hold, so the value is
  // whole when subtracting 2^52 again gives back its bits. NaN fails both
  // range compares.
  const uint64_t bits = std::bit_cast<uint64_t>(value);
  const double rounded = value + 0x1p52;
  const uint64_t whole = (value >= 1.0) & (value < 0x1p32) &
                                 (std::bit_cast<uint64_t>(rounded - 0x1p52) == bits)
                             ? 1
                             : 0;
  const uint64_t whole_part = std::bit_cast<uint64_t>(rounded) & 0xffffffff;
  const uint64_t value_class = 2 * (bits != 0 ? 1 : 0) - whole;  // whole: never +0.0
  const uint64_t has_edge = edge != kNoEdge ? 1 : 0;
  store_word(p, static_cast<uint64_t>(kind) | has_edge << 4 | value_class << 5 |
                    uint64_t{static_cast<uint8_t>(tier)} << 8 |
                    uint64_t{start_code | length_code << 3} << 16 |
                    uint64_t{static_cast<uint16_t>(edge)} << 24);
  p += 3 + 2 * has_edge;
  store_word(p, start_z);
  p += code_bytes(start_code);
  store_word(p, length_z);
  p += code_bytes(length_code);
  store_word(p, bits ^ ((bits ^ whole_part) & (0 - whole)));  // whole_part if whole
  return p + 4 * value_class;
}

/// Decodes the span at `p` into `span`, whose `start` holds the previous
/// span's start on entry, and returns the next span's bytes. Every offset
/// comes from the header word alone (no table), so finding the next span
/// never waits on this span's other loads; and whether a span has an edge
/// is as good as random, so nothing branches on it.
[[gnu::always_inline]] inline const uint8_t* decode(const uint8_t* p, Span& span) {
  const uint64_t head = load_word(p);
  const uint64_t has_edge = (head >> 4) & 1;
  const unsigned value_class = (head >> 5) & 3;
  const unsigned start_code = (head >> 16) & 7;
  const unsigned length_code = (head >> 19) & 7;
  span.kind = static_cast<SpanKind>(head & 0xf);
  span.tier = static_cast<int8_t>(head >> 8);
  span.edge = static_cast<int16_t>(head >> 24) | static_cast<int>(has_edge - 1);
  const uint8_t* times = p + 3 + 2 * has_edge;
  const unsigned start_bytes = code_bytes(start_code);
  const uint8_t* value_at = times + start_bytes + code_bytes(length_code);
  const uint64_t start_z = load_word(times) & kLengthMask[start_code];
  const uint64_t length_z = load_word(times + start_bytes) & kLengthMask[length_code];
  const uint64_t start = static_cast<uint64_t>(span.start) + unzigzag(start_z);
  span.start = static_cast<sim::SimTime>(start);
  span.end = static_cast<sim::SimTime>(start + unzigzag(length_z));
  const uint64_t value = load_word(value_at) & kValueMask[value_class];
  span.value = value_class == 1 ? static_cast<double>(value) : std::bit_cast<double>(value);
  return value_at + 4 * value_class;
}

}  // namespace codec

/// A trace's spans: a range that decodes its byte stream one span at a
/// time. Its iterators are input iterators: `*it` refers to a Span held in
/// the iterator, valid until the iterator moves, so two equal iterators do
/// not share one element. Each begin() decodes afresh, so the range can be
/// walked any number of times. A view: it owns no bytes.
class SpanList {
 public:
  class iterator {
   public:
    using iterator_category = std::input_iterator_tag;
    using value_type = Span;
    using difference_type = std::ptrdiff_t;
    using pointer = const Span*;
    using reference = const Span&;

    iterator() = default;
    const Span& operator*() const { return span_; }
    const Span* operator->() const { return &span_; }
    iterator& operator++() {
      if (--left_ != 0) next_ = codec::decode(next_, span_);
      return *this;
    }
    iterator operator++(int) {
      iterator old = *this;
      ++*this;
      return old;
    }
    bool operator==(const iterator& other) const { return left_ == other.left_; }

   private:
    friend class SpanList;
    iterator(const uint8_t* bytes, uint32_t count, sim::SimTime base)
        : next_(bytes), left_(count) {
      span_.start = base;
      if (left_ != 0) next_ = codec::decode(next_, span_);
    }
    const uint8_t* next_ = nullptr;
    uint32_t left_ = 0;
    Span span_;
  };

  SpanList() = default;

  iterator begin() const { return iterator(bytes_, count_, base_); }
  iterator end() const { return iterator(); }
  size_t size() const { return count_; }
  bool empty() const { return count_ == 0; }
  /// The encoded spans: size_bytes() of them, then the codec's slack.
  const uint8_t* data() const { return bytes_; }
  size_t size_bytes() const { return size_bytes_; }

 private:
  friend struct TraceContext;
  friend class TraceStore;

  const uint8_t* bytes_ = nullptr;
  sim::SimTime base_ = 0;  // the trace's `started`: the first span's delta base
  uint32_t count_ = 0;
  uint32_t size_bytes_ = 0;
};

class TraceStore;

/// One sampled request's trace. Contexts live in their run's TraceStore
/// (stable addresses; requests hold them by raw pointer) and are handed out
/// by TraceStore::open. A default-constructed context belongs to no store
/// and records nothing.
struct TraceContext {
  uint64_t request_id = 0;
  sim::SimTime started = 0;   // first client issue
  sim::SimTime finished = 0;  // final settlement (success or final failure)
  int servlet = -1;
  int attempts = 1;           // client-side issue attempts
  /// The recorded spans in order: decoded from the scratch buffer while the
  /// trace is open, from its sealed arena run once finalized.
  SpanList spans;
  bool ok = false;
  bool finalized = false;

  TraceContext() = default;
  TraceContext(const TraceContext&) = delete;
  TraceContext& operator=(const TraceContext&) = delete;

  /// Appends a span; drops it silently once the trace is finalized (late
  /// responses of attempts the client already settled still try to record).
  void add_span(SpanKind kind, int tier, sim::SimTime start, sim::SimTime end,
                double value = 0.0) {
    add_edge_span(kind, tier, kNoEdge, start, end, value);
  }

  /// add_span with the service-graph edge id the span occurred on. The span
  /// is encoded once, here, into the open trace's scratch bytes.
  void add_edge_span(SpanKind kind, int tier, int edge, sim::SimTime start,
                     sim::SimTime end, double value = 0.0) {
    if (store_ == nullptr) return;  // finalized, or not from a store
    DCM_CHECK(fits(start, Span::kTimeBits));
    DCM_CHECK(fits(end, Span::kTimeBits));
    DCM_CHECK(fits(tier, Span::kTierBits));
    DCM_CHECK(fits(edge, Span::kEdgeBits));
    // Room for the longest span, and the read slack behind it.
    if (scratch_capacity_ - spans.size_bytes_ < codec::kMaxSpanBytes + codec::kSlackBytes) {
      grow_scratch();
    }
    uint8_t* at = scratch_.get() + spans.size_bytes_;
    const uint8_t* next = codec::encode(at, kind, tier, edge, last_start_, start, end, value);
    last_start_ = start;
    spans.bytes_ = scratch_.get();
    spans.size_bytes_ += static_cast<uint32_t>(next - at);
    ++spans.count_;
  }

  /// Settles the trace and seals its spans into the store's arena; no
  /// spans are accepted afterwards.
  void finalize(sim::SimTime at, bool success);

 private:
  friend class TraceStore;

  /// True when `v` is representable in a signed field `bits` wide.
  static constexpr bool fits(int64_t v, int bits) {
    const int64_t half = int64_t{1} << (bits - 1);
    return v >= -half && v < half;
  }

  /// Doubles the scratch buffer (at least 256 bytes), keeping its bytes.
  [[gnu::cold, gnu::noinline]] void grow_scratch();

  uint32_t scratch_capacity_ = 0;
  TraceStore* store_ = nullptr;  // set by the store until finalize()
  sim::SimTime last_start_ = 0;  // the last recorded span's start
  /// Encoded spans of an open trace, in a buffer the store's thread
  /// recycles; spans.size_bytes() of its scratch_capacity_ bytes are used.
  std::unique_ptr<uint8_t[]> scratch_;
};

}  // namespace dcm::trace
