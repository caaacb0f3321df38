#ifndef SPPNET_SIM_EVENT_QUEUE_H_
#define SPPNET_SIM_EVENT_QUEUE_H_

#include <cstdint>
#include <vector>

namespace sppnet {

/// One scheduled simulator event. Payload interpretation depends on
/// `kind`; the simulator defines the kinds. Events at equal timestamps
/// are delivered in schedule order (FIFO via the sequence number), which
/// keeps runs bit-for-bit deterministic.
struct SimEvent {
  double time = 0.0;
  std::uint64_t seq = 0;   ///< Assigned by the queue; breaks time ties.
  std::uint32_t kind = 0;
  std::uint32_t node = 0;  ///< Destination / acting node.
  std::uint64_t a = 0;     ///< Kind-specific payload.
  std::uint64_t b = 0;
  double x = 0.0;
};

/// Deterministic calendar queue (R. Brown, "Calendar Queues", CACM
/// 1988): a power-of-two array of unsorted buckets, each holding the
/// events whose time falls in one `width`-second slice ("day") of the
/// calendar; a day maps to bucket `day & (nbuckets-1)`, so the array
/// wraps around once per `nbuckets * width` seconds ("year").
///
/// Delivery order is (time, seq). When the front day of the calendar
/// is reached, its events are extracted from the bucket in one pass
/// and sorted by (time, seq) into a staged "today" run served in
/// order — one O(k log k) sort per k-event day instead of a bucket
/// rescan per pop. The simulator's flood waves make this essential:
/// one wave schedules hundreds of deliveries with identical
/// timestamps (one day), and per-pop rescans would be O(k^2) per
/// wave. Selection is by (time, seq) everywhere — never by storage
/// position — so the swap-erase removal, the staging extraction and
/// the resize-time redistribution below can never affect order: the
/// pop sequence is the (time, seq) sort of the pending events, which
/// tests/sim/event_queue_test.cc holds against a binary-heap oracle.
/// The bucket count adapts to the live event count and the bucket
/// width to the observed mean inter-dequeue gap; both
/// inputs are functions of the popped event sequence alone, so the
/// resize schedule (and everything downstream) is deterministic too.
///
/// Complexity: O(1) amortized per operation while the event population
/// is reasonably stationary (the simulator's is: per-user Poisson
/// clocks dominate), degrading gracefully to a global scan when the
/// calendar empties out far from the next event.
class CalendarQueue {
 public:
  CalendarQueue();

  /// Schedules `event` at event.time; assigns the tie-breaking sequence
  /// number. Times must be finite and >= 0 (checked).
  void Schedule(SimEvent event);

  /// Schedules an event whose tie-breaking key the CALLER already
  /// assigned (event.seq is taken verbatim; the internal counter is
  /// untouched). The sharded discipline derives keys from message
  /// content — (class, domain, counter) — so an event's position in the
  /// (time, seq) order is independent of which queue it lands in;
  /// mixing caller-keyed and queue-keyed events in one queue is the
  /// caller's responsibility to keep collision-free.
  void SchedulePreKeyed(const SimEvent& event) { Insert(event); }

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }

  /// Time of the earliest pending event. Aborts when empty.
  double NextTime() const;

  /// Removes and returns the earliest event. Aborts when empty.
  SimEvent Pop();

  /// Every pending event in (time, seq) order; the queue is unchanged
  /// (a scratch copy of the calendar is drained, so the scan counters
  /// of this queue are untouched too).
  std::vector<SimEvent> SnapshotEvents() const;
  /// Re-inserts checkpointed events preserving their original sequence
  /// numbers and resumes the sequence counter at `next_seq`. The queue
  /// must be empty (checked). Width calibration and scan counters start
  /// fresh: they are engine-internal and excluded from the determinism
  /// surface (see sim.queue.* docs), while delivery order — (time, seq)
  /// selection — is exactly preserved.
  void RestorePending(const std::vector<SimEvent>& events,
                      std::uint64_t next_seq);
  std::uint64_t next_seq() const { return next_seq_; }

  /// Engine introspection for the obs layer (sim.queue.*). Counts are
  /// deterministic: the resize schedule depends only on the event
  /// sequence.
  std::uint64_t resizes() const { return resizes_; }
  std::size_t num_buckets() const { return buckets_.size(); }
  double bucket_width_seconds() const { return width_; }
  /// Scan-effort counters (deterministic): empty-day probes, slot
  /// visits during day scans, and whole-calendar fallback scans.
  std::uint64_t day_steps() const { return day_steps_; }
  std::uint64_t slot_visits() const { return slot_visits_; }
  std::uint64_t global_scans() const { return global_scans_; }
  /// Approximate resident bytes of the bucket array (capacity-based).
  std::size_t ApproxMemoryBytes() const;

 private:
  std::uint64_t DayOf(double time) const {
    // Multiplication by the cached reciprocal, not division — this
    // runs once per Schedule and once per scanned slot. Any monotone
    // time -> day mapping is correct (the day bands stay ordered), so
    // the reciprocal's rounding is harmless; all slots of a given
    // width derive their day through this same function. Far-future
    // times collapse into one final "day" instead of overflowing the
    // cast; order among them is still resolved by (time, seq) when
    // that day is scanned.
    const double day = time * inv_width_;
    return day >= 9.0e18 ? static_cast<std::uint64_t>(9.0e18)
                         : static_cast<std::uint64_t>(day);
  }
  std::size_t BucketSideSize() const {
    return size_ - (today_.size() - today_pos_);
  }
  /// Locates the earliest (time, seq) bucket-side slot and caches its
  /// position; advances cur_day_ to that event's day. Requires
  /// BucketSideSize() > 0. Never touches the staged day.
  void FindMin() const;
  /// True when the staged run's front beats the bucket-side minimum
  /// (resolving min_valid_ via FindMin as needed). Requires size_ > 0.
  bool TodayWins() const;
  /// Extracts every slot of `day` from its bucket, sorts them by
  /// (time, seq) and makes them the staged run.
  void StageDay(std::uint64_t day);
  /// Doubles / halves the bucket array and re-derives the bucket width
  /// from the mean inter-dequeue gap observed since the last resize.
  /// Flushes the staged run back into the buckets (day values change
  /// with the width).
  void Resize(std::size_t new_buckets);
  /// Schedule minus the sequence-number assignment: places an event
  /// whose seq is already set (restore path shares it with Schedule).
  void Insert(const SimEvent& event);

  /// A bucket holds bare events; a slot's day is re-derived on scan via
  /// DayOf (every resident slot was inserted under the current width,
  /// since Resize re-buckets everything).
  mutable std::vector<std::vector<SimEvent>> buckets_;
  double width_;
  double inv_width_;  ///< Always 1.0 / width_.
  std::size_t size_ = 0;
  std::uint64_t next_seq_ = 0;
  /// The day the next bucket-side scan starts from (only days >=
  /// cur_day_ can hold the bucket-side minimum: pops advance it, and a
  /// Schedule into an earlier day rewinds it).
  mutable std::uint64_t cur_day_ = 0;

  // Staged front day: its events live here (removed from the buckets),
  // sorted ascending by (time, seq), served from today_pos_.
  std::vector<SimEvent> today_;
  std::size_t today_pos_ = 0;
  std::uint64_t today_day_ = 0;
  bool today_active_ = false;

  // Cached bucket-side minimum (valid between FindMin and the next
  // bucket-side mutation): location, plus a (time, seq) copy so the
  // Schedule / TodayWins hot paths compare against it without loading
  // the bucket (a near-guaranteed cache miss).
  mutable bool min_valid_ = false;
  mutable std::size_t min_bucket_ = 0;
  mutable std::size_t min_slot_ = 0;
  mutable double min_time_ = 0.0;
  mutable std::uint64_t min_seq_ = 0;

  // Width adaptation: mean gap between consecutively popped event times
  // since the last resize.
  double last_pop_time_ = 0.0;
  bool have_last_pop_ = false;
  double gap_sum_ = 0.0;
  std::uint64_t gap_count_ = 0;
  std::uint64_t pops_since_resize_ = 0;

  std::uint64_t resizes_ = 0;
  mutable std::uint64_t day_steps_ = 0;
  mutable std::uint64_t slot_visits_ = 0;
  mutable std::uint64_t global_scans_ = 0;
};

}  // namespace sppnet

#endif  // SPPNET_SIM_EVENT_QUEUE_H_
