// Simulated message-passing runtime — the substitution for MPI documented in
// DESIGN.md §3. Ranks are std::threads; each has a mailbox of typed messages.
// The API deliberately mirrors MPI's two-sided + collective model (LLNL MPI
// tutorial idioms) so the distributed algorithms in this directory are real
// message-passing code: explicit sends/recvs, owner-computes, barriers,
// reductions. Only the transport is in-process.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstring>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <type_traits>
#include <vector>

#include "check/thread_safety.hpp"
#include "dist/retry.hpp"

namespace peek::dist {

namespace detail {

struct Message {
  int src;
  int tag;
  std::vector<std::byte> payload;
};

/// Shared state of one communicator: mailboxes + collective scratch.
struct CommState {
  explicit CommState(int size);

  const int size;
  // Per-destination mailbox: box_mutex[d] guards boxes[d]. An array of
  // per-index locks cannot be expressed as a guarded_by relation, so these
  // stay raw std:: types outside the clang analysis.
  // ts-allow: per-index lock array; boxes[d] is guarded by box_mutex[d]
  std::vector<std::mutex> box_mutex;
  std::vector<std::condition_variable> box_cv;
  std::vector<std::multimap<std::pair<int, int>, Message>> boxes;  // (src,tag)

  // Reusable counter barrier (sense-reversing).
  check::Mutex barrier_mutex;
  check::CondVar barrier_cv;
  int barrier_count PEEK_GUARDED_BY(barrier_mutex) = 0;
  bool barrier_sense PEEK_GUARDED_BY(barrier_mutex) = false;

  // Collective exchange slots (one pointer-sized slot per rank).
  std::vector<std::vector<std::byte>> slots;
};

}  // namespace detail

/// Handle owned by one rank.
class Comm {
 public:
  Comm(std::shared_ptr<detail::CommState> state, int rank)
      : state_(std::move(state)), rank_(rank) {}

  int rank() const { return rank_; }
  int size() const { return state_->size; }

  /// Asynchronous point-to-point send (copies the payload; never blocks).
  /// Throws TransientError when the `dist.comm.send` fault probe fires —
  /// always BEFORE the message is enqueued, so a retry never duplicates it.
  void send_bytes(int dest, int tag, std::vector<std::byte> data);
  /// Blocking matched receive from (src, tag).
  std::vector<std::byte> recv_bytes(int src, int tag);

  void barrier();

  // ---- typed convenience (trivially copyable element types) ----

  template <typename T>
  void send(int dest, int tag, const std::vector<T>& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    std::vector<std::byte> bytes(v.size() * sizeof(T));
    if (!v.empty()) std::memcpy(bytes.data(), v.data(), bytes.size());
    send_bytes(dest, tag, std::move(bytes));
  }

  template <typename T>
  std::vector<T> recv(int src, int tag) {
    static_assert(std::is_trivially_copyable_v<T>);
    std::vector<std::byte> bytes = recv_bytes(src, tag);
    std::vector<T> v(bytes.size() / sizeof(T));
    if (!v.empty()) std::memcpy(v.data(), bytes.data(), bytes.size());
    return v;
  }

  /// Every rank contributes one value; all ranks see all values (rank order).
  template <typename T>
  std::vector<T> allgather(const T& mine) {
    publish(std::vector<T>{mine});
    barrier();
    std::vector<T> out;
    out.reserve(static_cast<size_t>(size()));
    for (int r = 0; r < size(); ++r) out.push_back(snoop<T>(r)[0]);
    barrier();  // nobody overwrites slots until everyone has read
    return out;
  }

  /// Variable-length allgather: concatenation of every rank's vector, with
  /// per-rank chunks returned separately.
  template <typename T>
  std::vector<std::vector<T>> allgatherv(const std::vector<T>& mine) {
    publish(mine);
    barrier();
    std::vector<std::vector<T>> out(static_cast<size_t>(size()));
    for (int r = 0; r < size(); ++r) out[static_cast<size_t>(r)] = snoop<T>(r);
    barrier();
    return out;
  }

  template <typename T, typename Op>
  T allreduce(const T& mine, Op op, T init) {
    auto all = allgather(mine);
    T acc = init;
    for (const T& x : all) acc = op(acc, x);
    return acc;
  }

  template <typename T>
  T allreduce_min(const T& mine) {
    return allreduce(mine, [](T a, T b) { return a < b ? a : b; },
                     std::numeric_limits<T>::max());
  }
  template <typename T>
  T allreduce_sum(const T& mine) {
    return allreduce(mine, [](T a, T b) { return a + b; }, T{});
  }

  /// All-to-all personalised exchange: element [r] of `outboxes` goes to
  /// rank r; returns what every rank addressed to me (indexed by source).
  /// Every send is wrapped in with_retry: a TransientError from the
  /// transport (lost message, injected `dist.comm.send` fault) is retried on
  /// the jittered exponential schedule instead of killing the rank. Sends
  /// fail before enqueue, so retries are idempotent.
  template <typename T>
  std::vector<std::vector<T>> all_to_all_reliable(
      const std::vector<std::vector<T>>& outboxes, int tag,
      const RetryOptions& retry) {
    for (int r = 0; r < size(); ++r) {
      with_retry([&] { send(r, tag, outboxes[static_cast<size_t>(r)]); },
                 retry);
    }
    std::vector<std::vector<T>> in(static_cast<size_t>(size()));
    for (int r = 0; r < size(); ++r) in[static_cast<size_t>(r)] = recv<T>(r, tag);
    return in;
  }

  /// allgatherv over retried point-to-point sends instead of the shared
  /// slots: same result as allgatherv, but each rank's contribution travels
  /// as size() messages that individually ride through transient send
  /// failures. Used by the distributed KSP candidate exchange.
  template <typename T>
  std::vector<std::vector<T>> allgatherv_reliable(const std::vector<T>& mine,
                                                  int tag,
                                                  const RetryOptions& retry) {
    for (int r = 0; r < size(); ++r) {
      with_retry([&] { send(r, tag, mine); }, retry);
    }
    std::vector<std::vector<T>> out(static_cast<size_t>(size()));
    for (int r = 0; r < size(); ++r) out[static_cast<size_t>(r)] = recv<T>(r, tag);
    return out;
  }

 private:
  template <typename T>
  void publish(const std::vector<T>& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    auto& slot = state_->slots[static_cast<size_t>(rank_)];
    const size_t bytes = v.size() * sizeof(T);
    slot.resize(bytes);
    if (bytes != 0) std::memcpy(slot.data(), v.data(), bytes);
  }

  template <typename T>
  std::vector<T> snoop(int r) const {
    const auto& slot = state_->slots[static_cast<size_t>(r)];
    std::vector<T> v(slot.size() / sizeof(T));
    if (!v.empty()) std::memcpy(v.data(), slot.data(), slot.size());
    return v;
  }

  std::shared_ptr<detail::CommState> state_;
  int rank_;
};

/// Spawns `ranks` threads, each running `body(comm)`; joins them all.
/// Exceptions in any rank are rethrown (first one wins).
void run_ranks(int ranks, const std::function<void(Comm&)>& body);

}  // namespace peek::dist
