#include "sppnet/sim/event_queue.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "sppnet/common/check.h"

namespace sppnet {
namespace {

// Bucket-count bounds: the array only grows while the live event count
// exceeds 32x the bucket count (see the growth-site comment), and the
// cap bounds the resident footprint of the bucket headers at large N.
constexpr std::size_t kMinBuckets = 16;
constexpr std::size_t kMaxBuckets = std::size_t{1} << 21;

// Re-examine the width calibration every this many pops (but never
// more often than once per 4 * size_ pops — a recalibration
// redistributes every pending event, so it must amortize against the
// standing population or large-N runs spend their time re-bucketing);
// a stationary event population never trips the size-based resize
// thresholds, so without this a badly seeded width would persist
// forever.
constexpr std::uint64_t kRecalibratePops = 8192;
// Gap observations required before the mean is trusted for a width.
constexpr std::uint64_t kMinGapSamples = 64;

// Width as a multiple of the mean inter-dequeue gap. With the staged
// "today" run a day is sorted once and served in order, so wide days
// are cheap (sorting is O(k log k)) while narrow days are not: every
// empty day costs a probe when the scan hunts for the next populated
// one. The simulator's gap distribution is extremely skewed — flood
// waves contribute thousands of zero gaps, the Poisson clocks the long
// tail — so a generous multiple of the mean still yields short days in
// absolute terms.
constexpr double kWidthPerGap = 256.0;
constexpr double kMinWidth = 1e-12;
constexpr double kMaxWidth = 1e12;

// Functor (not a function pointer) so std::sort / std::lower_bound
// inline the comparison — it runs tens of millions of times per run.
struct EarlierCmp {
  bool operator()(const SimEvent& lhs, const SimEvent& rhs) const {
    if (lhs.time != rhs.time) return lhs.time < rhs.time;
    return lhs.seq < rhs.seq;
  }
};

inline bool EarlierEvent(const SimEvent& lhs, const SimEvent& rhs) {
  return EarlierCmp{}(lhs, rhs);
}

}  // namespace

CalendarQueue::CalendarQueue()
    : buckets_(kMinBuckets), width_(0.25), inv_width_(1.0 / 0.25) {}

void CalendarQueue::Schedule(SimEvent event) {
  event.seq = next_seq_++;
  Insert(event);
}

void CalendarQueue::Insert(const SimEvent& event) {
  SPPNET_CHECK(std::isfinite(event.time) && event.time >= 0.0);
  const std::uint64_t day = DayOf(event.time);
  if (today_active_ && day == today_day_) {
    // The staged day receives its late arrivals directly, keeping the
    // "no bucket slot carries today_day_" invariant. Sorted insert; in
    // the common case (a flood wave scheduling ascending (time, seq))
    // the position is the end, so this stays O(1) amortized.
    const auto it = std::lower_bound(
        today_.begin() + static_cast<std::ptrdiff_t>(today_pos_),
        today_.end(), event, EarlierCmp{});
    today_.insert(it, event);
    ++size_;
    return;
  }
  auto& bucket = buckets_[day & (buckets_.size() - 1)];
  bucket.push_back(event);
  ++size_;
  if (min_valid_) {
    // A later event (>= cached minimum) cannot rewind anything: its day
    // is >= the cached day, which is where cur_day_ sits. An earlier
    // one becomes the new cached minimum in place. The comparison runs
    // against the cached (time, seq) copy — touching the minimum's
    // bucket here would cost a cache miss per Schedule.
    if (event.time < min_time_ ||
        (event.time == min_time_ && event.seq < min_seq_)) {
      min_bucket_ = day & (buckets_.size() - 1);
      min_slot_ = bucket.size() - 1;
      min_time_ = event.time;
      min_seq_ = event.seq;
      cur_day_ = std::min(cur_day_, day);
    }
  } else {
    cur_day_ = std::min(cur_day_, day);
  }
  if (size_ > 32 * buckets_.size() && buckets_.size() < kMaxBuckets) {
    // Quadrupling (not doubling) halves the number of full
    // redistributions paid on the way up; each one rewrites every
    // pending event. Dozens of events per bucket (not the classic ~1)
    // is deliberate: staged-day serving makes the pop path insensitive
    // to bucket size, while fewer buckets keep the header array small
    // enough to stay cached for Schedule's random-bucket access —
    // measurably faster than a header array that spills to DRAM.
    Resize(std::min(buckets_.size() * 4, kMaxBuckets));
  }
}

bool CalendarQueue::TodayWins() const {
  const bool today_has = today_active_ && today_pos_ < today_.size();
  if (!today_has) return false;
  if (BucketSideSize() == 0) return true;
  if (!min_valid_) FindMin();
  const SimEvent& front = today_[today_pos_];
  if (front.time != min_time_) return front.time < min_time_;
  return front.seq < min_seq_;
}

double CalendarQueue::NextTime() const {
  SPPNET_CHECK(size_ > 0);
  if (TodayWins()) return today_[today_pos_].time;
  if (!min_valid_) FindMin();
  return min_time_;
}

void CalendarQueue::StageDay(std::uint64_t day) {
  auto& bucket = buckets_[day & (buckets_.size() - 1)];
  today_.clear();
  today_pos_ = 0;
  today_day_ = day;
  today_active_ = true;
  // One compacting pass: day slots out, the rest keeps its bucket. The
  // relative order of survivors changes freely — selection is by
  // (time, seq), never by position.
  std::size_t kept = 0;
  for (std::size_t i = 0; i < bucket.size(); ++i) {
    if (DayOf(bucket[i].time) == day) {
      today_.push_back(bucket[i]);
    } else {
      bucket[kept++] = bucket[i];
    }
  }
  bucket.resize(kept);
  // A flood wave parks its whole delivery pile on one day, so the
  // bucket that hosted it keeps a triple-digit capacity forever; on an
  // unbounded run every bucket eventually hosts one and the calendar's
  // footprint grows without bound while the live event count stays
  // flat (bench/sustained_throughput holds RSS flat over 1e8 events).
  // Trim the ratchet back once it overshoots the survivors 8x; the
  // occasional re-growth is a few geometric push_back reallocations
  // per wave, invisible next to the sort below.
  if (bucket.capacity() > std::max<std::size_t>(8 * kept, 64)) {
    std::vector<SimEvent>(bucket.begin(), bucket.end()).swap(bucket);
  }
  // Flood waves schedule their deliveries in dispatch order at a
  // constant latency, so a staged day is usually already in (time,
  // seq) order — the linear check dodges the sort for the common case.
  if (!std::is_sorted(today_.begin(), today_.end(), EarlierCmp{})) {
    std::sort(today_.begin(), today_.end(), EarlierCmp{});
  }
  min_valid_ = false;
}

SimEvent CalendarQueue::Pop() {
  SPPNET_CHECK(size_ > 0);
  SimEvent e;
  if (TodayWins()) {
    e = today_[today_pos_++];
    if (today_pos_ == today_.size()) {
      today_.clear();
      today_pos_ = 0;
      today_active_ = false;
      // No bucket-side event of an earlier day can remain (it would
      // have won every pop until now), and this day's events were all
      // staged — the next scan starts at this day harmlessly.
      cur_day_ = std::max(cur_day_, today_day_);
    }
    --size_;
  } else if (today_active_ && today_pos_ < today_.size()) {
    // Rare rewind: a bucket-side event scheduled into an earlier day
    // than the active staged run. Pop that single slot directly; the
    // staged remainder stays put.
    if (!min_valid_) FindMin();
    auto& bucket = buckets_[min_bucket_];
    e = bucket[min_slot_];
    cur_day_ = DayOf(e.time);
    bucket[min_slot_] = bucket.back();  // Swap-erase: order is by
    bucket.pop_back();                  // (time, seq), not position.
    --size_;
    min_valid_ = false;
  } else {
    if (!min_valid_) FindMin();
    // The bucket-side minimum's whole day becomes the staged run; the
    // minimum is its sorted front.
    StageDay(DayOf(buckets_[min_bucket_][min_slot_].time));
    cur_day_ = today_day_;
    e = today_[today_pos_++];
    if (today_pos_ == today_.size()) {
      today_.clear();
      today_pos_ = 0;
      today_active_ = false;
    }
    --size_;
  }

  if (have_last_pop_) {
    gap_sum_ += e.time - last_pop_time_;
    ++gap_count_;
  }
  last_pop_time_ = e.time;
  have_last_pop_ = true;
  ++pops_since_resize_;

  if (size_ < 2 * buckets_.size() && buckets_.size() > kMinBuckets) {
    Resize(std::max(buckets_.size() / 4, kMinBuckets));
  } else if (pops_since_resize_ >=
                 std::max<std::uint64_t>(kRecalibratePops, 4 * size_) &&
             gap_count_ >= kMinGapSamples) {
    // Same bucket count, recomputed width — only when the calibration
    // has drifted past 3x in either direction.
    const double ideal = std::clamp(
        kWidthPerGap * (gap_sum_ / static_cast<double>(gap_count_)),
        kMinWidth, kMaxWidth);
    // The wide drift band matters: a recalibration redistributes every
    // pending event, and the mean gap of an 8192-pop window swings
    // several-fold between wave-heavy and quiet stretches. Only a
    // genuinely mis-set width (orders of magnitude, e.g. from a seeded
    // default) is worth that price — staged-day serving keeps moderate
    // mis-widths cheap.
    if (ideal > 8.0 * width_ || ideal < width_ / 8.0) {
      Resize(buckets_.size());
    } else {
      pops_since_resize_ = 0;
      gap_sum_ = 0.0;
      gap_count_ = 0;
    }
  }
  return e;
}

void CalendarQueue::FindMin() const {
  // Walk the calendar one day at a time starting at cur_day_; the first
  // day holding any event holds the minimum (events of later days have
  // strictly later times). A bucket is shared by all days congruent
  // modulo the bucket count, hence the per-slot day filter.
  const std::size_t mask = buckets_.size() - 1;
  for (std::size_t step = 0; step < buckets_.size(); ++step) {
    ++day_steps_;
    const std::uint64_t day = cur_day_ + step;
    const auto& bucket = buckets_[day & mask];
    std::size_t best = bucket.size();
    slot_visits_ += bucket.size();
    for (std::size_t i = 0; i < bucket.size(); ++i) {
      if (DayOf(bucket[i].time) != day) continue;
      if (best == bucket.size() || EarlierEvent(bucket[i], bucket[best])) {
        best = i;
      }
    }
    if (best != bucket.size()) {
      min_bucket_ = day & mask;
      min_slot_ = best;
      min_time_ = bucket[best].time;
      min_seq_ = bucket[best].seq;
      min_valid_ = true;
      cur_day_ = day;
      return;
    }
  }
  // The next event is more than a whole year ahead (sparse region):
  // direct scan over every slot instead of walking day by day.
  ++global_scans_;
  std::size_t best_bucket = buckets_.size();
  std::size_t best_slot = 0;
  for (std::size_t b = 0; b < buckets_.size(); ++b) {
    for (std::size_t i = 0; i < buckets_[b].size(); ++i) {
      if (best_bucket == buckets_.size() ||
          EarlierEvent(buckets_[b][i], buckets_[best_bucket][best_slot])) {
        best_bucket = b;
        best_slot = i;
      }
    }
  }
  SPPNET_CHECK(best_bucket != buckets_.size());
  min_bucket_ = best_bucket;
  min_slot_ = best_slot;
  min_time_ = buckets_[best_bucket][best_slot].time;
  min_seq_ = buckets_[best_bucket][best_slot].seq;
  min_valid_ = true;
  cur_day_ = DayOf(min_time_);
}

void CalendarQueue::Resize(std::size_t new_buckets) {
  if (gap_count_ >= kMinGapSamples) {
    width_ = std::clamp(
        kWidthPerGap * (gap_sum_ / static_cast<double>(gap_count_)),
        kMinWidth, kMaxWidth);
    inv_width_ = 1.0 / width_;
  }
  std::vector<std::vector<SimEvent>> old = std::move(buckets_);
  buckets_.assign(new_buckets, {});
  const std::size_t mask = new_buckets - 1;
  std::uint64_t min_day = ~std::uint64_t{0};
  const auto reinsert = [&](const SimEvent& event) {
    const std::uint64_t day = DayOf(event.time);
    min_day = std::min(min_day, day);
    buckets_[day & mask].push_back(event);
  };
  for (auto& bucket : old) {
    for (const SimEvent& event : bucket) reinsert(event);
  }
  // The staged run's day values are width-dependent too: flush it back.
  for (std::size_t i = today_pos_; i < today_.size(); ++i) {
    reinsert(today_[i]);
  }
  today_.clear();
  today_pos_ = 0;
  today_active_ = false;
  cur_day_ = size_ > 0 ? min_day : DayOf(last_pop_time_);
  min_valid_ = false;
  gap_sum_ = 0.0;
  gap_count_ = 0;
  pops_since_resize_ = 0;
  ++resizes_;
}

std::vector<SimEvent> CalendarQueue::SnapshotEvents() const {
  // Draining a scratch copy reuses the engine's own (time, seq)
  // selection — no second ordering implementation to keep in sync.
  CalendarQueue scratch = *this;
  std::vector<SimEvent> events;
  events.reserve(scratch.size());
  while (!scratch.empty()) events.push_back(scratch.Pop());
  return events;
}

void CalendarQueue::RestorePending(const std::vector<SimEvent>& events,
                                   std::uint64_t next_seq) {
  SPPNET_CHECK(size_ == 0);
  for (const SimEvent& event : events) {
    SPPNET_CHECK(event.seq < next_seq);
    Insert(event);
  }
  next_seq_ = next_seq;
}

std::size_t CalendarQueue::ApproxMemoryBytes() const {
  std::size_t bytes = buckets_.capacity() * sizeof(buckets_[0]) +
                      today_.capacity() * sizeof(SimEvent);
  for (const auto& bucket : buckets_) {
    bytes += bucket.capacity() * sizeof(SimEvent);
  }
  return bytes;
}

}  // namespace sppnet
